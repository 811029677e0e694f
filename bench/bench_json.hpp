#pragma once
// Machine-readable results for the bench_* binaries. Every bench keeps its
// human-readable tables on stdout; passing --json=FILE additionally dumps
// the headline numbers as one JSON document so CI and notebooks can track
// them across commits without scraping tables:
//
//   {
//     "bench": "f12_job_service",
//     "metrics": [
//       {"name": "p99_latency_s", "value": 1.25,
//        "labels": {"tenants": "8", "load": "2x"}},
//       ...
//     ]
//   }
//
// Usage:
//   int main(int argc, char** argv) {
//     bench::JsonWriter json("f12_job_service", argc, argv);
//     ...
//     json.metric("p99_latency_s", p99, {{"tenants", "8"}, {"load", "2x"}});
//     json.registry(reg, {{"tenants", "8"}});  // every counter and gauge
//   }  // written at scope exit; no-op when --json was not passed
//
// Header-only; its one dependency is the metrics registry, so a bench that
// exports its layers' stats into an obs::MetricsRegistry writes them from
// there rather than naming each. Values are doubles, labels are strings,
// and the writer escapes strings itself. It fails loudly rather than leave a
// missing or unparseable document behind: an unwritable --json path throws
// std::runtime_error at construction (before the bench runs), and a NaN or
// infinite value throws std::invalid_argument naming the metric. Benches do
// not catch either, so both end the bench with a non-zero exit.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace hpbdc::bench {

class JsonWriter {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  JsonWriter(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    std::string path;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--json=", 0) == 0) path = arg.substr(7);
    }
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
      throw std::runtime_error("bench_json: cannot open " + path + " for writing");
    }
  }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void metric(const std::string& name, double value, Labels labels = {}) {
    if (!std::isfinite(value)) {
      throw std::invalid_argument("bench_json: metric " + quoted(name) +
                                  " is not finite: " + std::to_string(value));
    }
    metrics_.push_back({name, value, std::move(labels)});
  }

  /// Every counter and gauge of one snapshot of `reg`, each as a metric of
  /// its own name carrying `labels`. Histograms are left out: a bench
  /// writes the quantiles it reports with metric().
  void registry(const obs::MetricsRegistry& reg, const Labels& labels = {}) {
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto& [name, v] : snap.counters) metric(name, static_cast<double>(v), labels);
    for (const auto& [name, v] : snap.gauges) metric(name, static_cast<double>(v), labels);
  }

  /// Write the document now (idempotent; also runs at destruction).
  void flush() {
    if (file_ == nullptr) return;
    std::FILE* f = std::exchange(file_, nullptr);
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"metrics\": [",
                 quoted(bench_).c_str());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f, "%s\n    {\"name\": %s, \"value\": %.17g",
                   i == 0 ? "" : ",", quoted(m.name).c_str(), m.value);
      if (!m.labels.empty()) {
        std::fprintf(f, ", \"labels\": {");
        for (std::size_t l = 0; l < m.labels.size(); ++l) {
          std::fprintf(f, "%s%s: %s", l == 0 ? "" : ", ",
                       quoted(m.labels[l].first).c_str(),
                       quoted(m.labels[l].second).c_str());
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

  ~JsonWriter() { flush(); }

 private:
  struct Metric {
    std::string name;
    double value;
    Labels labels;
  };

  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  std::string bench_;
  std::FILE* file_ = nullptr;  // open from construction until flush()
  std::vector<Metric> metrics_;
};

}  // namespace hpbdc::bench
