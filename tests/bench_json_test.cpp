// Unit tests for bench/bench_json.hpp: the --json writer of the bench_*
// binaries must fail loudly, never leave a missing or unparseable document.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include "bench_json.hpp"
#include "obs/metrics.hpp"

namespace hpbdc::bench {
namespace {

/// A JsonWriter constructed as a bench's main() would be with `--json=path`.
JsonWriter writer_for(const std::string& path) {
  std::string prog = "bench_test";
  std::string arg = "--json=" + path;
  char* argv[] = {prog.data(), arg.data()};
  return JsonWriter("test", 2, argv);
}

TEST(JsonWriter, UnwritablePathThrowsBeforeTheBenchRuns) {
  const std::string path = ::testing::TempDir() + "hpbdc-no-such-dir/out.json";
  EXPECT_THROW(writer_for(path), std::runtime_error);
}

TEST(JsonWriter, NonFiniteMetricIsRejectedByName) {
  const std::string path = ::testing::TempDir() + "hpbdc_bench_json_test.json";
  {
    JsonWriter json = writer_for(path);
    json.metric("p50_s", 1.5);
    try {
      json.metric("p99_s", std::numeric_limits<double>::quiet_NaN());
      FAIL() << "a NaN metric must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("\"p99_s\""), std::string::npos) << e.what();
    }
    EXPECT_THROW(json.metric("rate", std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
  }
  std::ifstream in(path);
  const std::string doc{std::istreambuf_iterator<char>(in), {}};
  EXPECT_NE(doc.find("\"p50_s\""), std::string::npos) << doc;
  EXPECT_EQ(doc.find("p99_s"), std::string::npos) << doc;
  EXPECT_EQ(doc.find("nan"), std::string::npos) << doc;
  EXPECT_EQ(doc.find("inf"), std::string::npos) << doc;
}

TEST(JsonWriter, RegistryWritesEveryCounterAndGaugeWithItsLabels) {
  const std::string path = ::testing::TempDir() + "hpbdc_bench_json_registry.json";
  {
    obs::MetricsRegistry reg;
    reg.counter("dfs.blocks_written").add(3);
    reg.gauge("net.msgs_sent").set(-2);
    reg.histogram("serve.latency_s").record(0.5);
    JsonWriter json = writer_for(path);
    json.registry(reg, {{"table", "write"}, {"replication", "2"}});
  }
  std::ifstream in(path);
  const std::string doc{std::istreambuf_iterator<char>(in), {}};
  EXPECT_NE(doc.find("{\"name\": \"dfs.blocks_written\", \"value\": 3, \"labels\": "
                     "{\"table\": \"write\", \"replication\": \"2\"}}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("{\"name\": \"net.msgs_sent\", \"value\": -2, \"labels\": "
                     "{\"table\": \"write\", \"replication\": \"2\"}}"),
            std::string::npos)
      << doc;
  EXPECT_EQ(doc.find("serve.latency_s"), std::string::npos) << doc;
}

}  // namespace
}  // namespace hpbdc::bench
