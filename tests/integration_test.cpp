// Cross-module integration tests: pipelines that exercise several
// subsystems together, mirroring the example applications.

#include <gtest/gtest.h>

#include <map>

#include "algos/textgen.hpp"
#include "algos/wordcount.hpp"
#include "dataflow/pair_ops.hpp"
#include "dataflow/stream.hpp"
#include "exec/central_pool.hpp"
#include "exec/thread_pool.hpp"

namespace hpbdc {
namespace {

// ---- dataflow on both executors produces identical results ----------------------

TEST(Integration, DataflowResultIndependentOfExecutor) {
  Rng rng(22);
  algos::TextGenConfig tcfg;
  tcfg.vocabulary = 300;
  auto lines = algos::generate_text(tcfg, 1500, rng);

  auto run_with = [&lines](Executor& pool) {
    dataflow::Context ctx(pool);
    auto ds = dataflow::Dataset<std::string>::parallelize(ctx, lines, 8);
    auto counts = algos::word_count(ds).collect();
    std::map<std::string, std::uint64_t> m(counts.begin(), counts.end());
    return m;
  };
  ThreadPool ws(4);
  CentralQueuePool central(4);
  EXPECT_EQ(run_with(ws), run_with(central));
}

// ---- batch + streaming agree on aggregates --------------------------------------

TEST(Integration, StreamingWindowTotalsMatchBatch) {
  // Count events per key with the streaming engine, then confirm the batch
  // engine computes the same totals from the same events.
  Rng rng(23);
  struct Ev {
    int key;
  };
  std::vector<dataflow::stream::Event<Ev>> events;
  std::map<int, int> expect;
  for (int i = 0; i < 5000; ++i) {
    const int k = static_cast<int>(rng.next_below(20));
    events.push_back({static_cast<double>(i) * 0.001, Ev{k}});
    ++expect[k];
  }
  auto agg = dataflow::stream::make_windowed_aggregator<Ev, int>(
      dataflow::stream::WindowSpec::tumbling(0.5), 0.0,
      [](const Ev& e) { return e.key; }, [](int& acc, const Ev&) { ++acc; });
  for (const auto& e : events) agg.on_event(e);
  agg.flush();
  std::map<int, int> stream_totals;
  for (const auto& r : agg.take_results()) stream_totals[r.key] += r.value;

  ThreadPool pool(4);
  dataflow::Context ctx(pool);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(events.size());
  for (const auto& e : events) pairs.emplace_back(e.payload.key, 1);
  auto ds = dataflow::Dataset<std::pair<int, int>>::parallelize(ctx, pairs, 8);
  std::map<int, int> batch_totals;
  for (const auto& [k, v] :
       dataflow::reduce_by_key(ds, [](int a, int b) { return a + b; }).collect()) {
    batch_totals[k] = v;
  }
  EXPECT_EQ(stream_totals, batch_totals);
  EXPECT_EQ(stream_totals, expect);
}

}  // namespace
}  // namespace hpbdc
