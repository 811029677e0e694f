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
#include "storage/chunker.hpp"
#include "storage/dedup.hpp"
#include "storage/reed_solomon.hpp"

namespace hpbdc {
namespace {

// ---- storage pipeline: chunk -> dedup -> erasure-code -> lose -> restore ------

TEST(Integration, StoragePipelineEndToEnd) {
  Rng rng(21);
  // Two "backup generations" sharing most content.
  std::vector<std::uint8_t> gen1(1 << 20);
  for (auto& b : gen1) b = static_cast<std::uint8_t>(rng());
  auto gen2 = gen1;
  // ~20 scattered flips dirty ~20 of ~128 chunks, leaving >80% dedupable.
  for (int i = 0; i < 20; ++i) gen2[rng.next_below(gen2.size())] ^= 0xff;

  // 1. Dedup both generations.
  storage::DedupStore dedup;
  storage::CdcChunker chunker(8192, 2048, 65536);
  auto r1 = dedup.put(gen1, chunker);
  auto r2 = dedup.put(gen2, chunker);
  EXPECT_GT(dedup.stats().ratio(), 1.5);

  // 2. Erasure-code generation 1 as RS(6,3) and destroy any 3 shards.
  storage::ReedSolomon rs(6, 3);
  auto data_shards = storage::ReedSolomon::split(gen1, 6);
  auto parity = rs.encode(data_shards);
  std::vector<std::optional<storage::Shard>> survivors(9);
  for (std::size_t i = 0; i < 6; ++i) survivors[i] = data_shards[i];
  for (std::size_t i = 0; i < 3; ++i) survivors[6 + i] = parity[i];
  survivors[0].reset();
  survivors[3].reset();
  survivors[7].reset();

  // 3. Restore and verify byte-exactness.
  auto restored_shards = rs.decode(survivors);
  auto restored = storage::ReedSolomon::join(restored_shards, gen1.size());
  EXPECT_EQ(restored, gen1);

  // 4. Dedup store still serves both generations.
  EXPECT_EQ(dedup.get(r1), gen1);
  EXPECT_EQ(dedup.get(r2), gen2);
}

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

// ---- wordcount through dedup storage (round trip through bytes) ------------------

TEST(Integration, WordCountOnDedupStoredCorpus) {
  Rng rng(24);
  algos::TextGenConfig tcfg;
  tcfg.vocabulary = 100;
  auto lines = algos::generate_text(tcfg, 500, rng);
  std::string blob;
  for (const auto& l : lines) {
    blob += l;
    blob.push_back('\n');
  }
  // Store the corpus in the dedup store, read it back, and run wordcount.
  storage::DedupStore store;
  storage::CdcChunker chunker(4096, 1024, 16384);
  std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  auto recipe = store.put(bytes, chunker);
  auto restored = store.get(recipe);
  std::string text(restored.begin(), restored.end());

  std::vector<std::string> restored_lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto nl = text.find('\n', pos);
    restored_lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(restored_lines, lines);

  ThreadPool pool(2);
  dataflow::Context ctx(pool);
  auto ds = dataflow::Dataset<std::string>::parallelize(ctx, restored_lines, 4);
  auto counts = algos::word_count(ds).collect();
  auto serial = algos::word_count_serial(lines);
  EXPECT_EQ(counts.size(), serial.size());
}

}  // namespace
}  // namespace hpbdc
