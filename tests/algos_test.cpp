// Tests for src/algos: every dataflow algorithm is validated against an
// independent serial implementation on randomized inputs.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algos/components.hpp"
#include "algos/graph.hpp"
#include "algos/kmeans.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "algos/terasort.hpp"
#include "algos/vertex_program.hpp"
#include "algos/textgen.hpp"
#include "algos/triangles.hpp"
#include "algos/wordcount.hpp"
#include "exec/thread_pool.hpp"

namespace hpbdc::algos {
namespace {

struct AlgosTest : ::testing::Test {
  ThreadPool pool{4};
  dataflow::Context ctx{pool};
};

// ---- text / wordcount ---------------------------------------------------------

TEST(TextGen, WordsDeterministicAndDistinct) {
  EXPECT_EQ(word_for_rank(0), word_for_rank(0));
  std::set<std::string> words;
  for (std::size_t i = 0; i < 1000; ++i) words.insert(word_for_rank(i));
  EXPECT_EQ(words.size(), 1000u);
}

TEST(TextGen, Tokenize) {
  EXPECT_EQ(tokenize("a bb  ccc "), (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("   ").empty());
}

TEST(TextGen, GeneratesRequestedLines) {
  Rng rng(1);
  TextGenConfig cfg;
  auto lines = generate_text(cfg, 100, rng);
  ASSERT_EQ(lines.size(), 100u);
  for (const auto& l : lines) {
    const auto words = tokenize(l);
    EXPECT_GE(words.size(), kWordsPerLineMin);
    EXPECT_LE(words.size(), kWordsPerLineMax);
  }
}

TEST_F(AlgosTest, WordCountMatchesSerial) {
  Rng rng(2);
  TextGenConfig cfg;
  cfg.vocabulary = 500;
  auto lines = generate_text(cfg, 2000, rng);
  auto serial = word_count_serial(lines);

  auto ds = dataflow::Dataset<std::string>::parallelize(ctx, lines, 8);
  std::map<std::string, std::uint64_t> parallel;
  for (const auto& [w, c] : word_count(ds).collect()) parallel[w] = c;

  ASSERT_EQ(parallel.size(), serial.size());
  for (const auto& [w, c] : serial) EXPECT_EQ(parallel[w], c) << w;
}

TEST_F(AlgosTest, GrepFindsSubstrings) {
  auto ds = dataflow::Dataset<std::string>::parallelize(
      ctx, {"error: disk full", "ok", "another error here", "fine"}, 2);
  auto hits = grep(ds, "error").collect();
  EXPECT_EQ(hits.size(), 2u);
}

// ---- graph generators -----------------------------------------------------------

TEST(GraphGen, ErdosRenyiShape) {
  Rng rng(3);
  auto edges = erdos_renyi(100, 500, rng);
  EXPECT_EQ(edges.size(), 500u);
  for (const auto& e : edges) {
    EXPECT_LT(e.src, 100u);
    EXPECT_LT(e.dst, 100u);
    EXPECT_NE(e.src, e.dst);
  }
}

TEST(GraphGen, RmatPowerLawSkew) {
  Rng rng(4);
  auto edges = rmat(1024, 10000, rng);
  EXPECT_EQ(edges.size(), 10000u);
  std::vector<std::size_t> deg(1024, 0);
  for (const auto& e : edges) ++deg[e.src];
  std::sort(deg.rbegin(), deg.rend());
  // Top 1% of nodes should hold far more than 1% of edges (heavy tail).
  std::size_t top = 0;
  for (std::size_t i = 0; i < 10; ++i) top += deg[i];
  EXPECT_GT(top, 10000u / 20);
  EXPECT_THROW(rmat(1000, 10, rng), std::invalid_argument);  // not power of two
}

TEST(GraphGen, CsrNeighboursSorted) {
  std::vector<Edge> edges{{0, 3}, {0, 1}, {0, 2}, {2, 0}};
  Csr csr(4, edges);
  EXPECT_EQ(csr.out_degree(0), 3u);
  auto [lo, hi] = csr.neighbours(0);
  EXPECT_TRUE(std::is_sorted(lo, hi));
  EXPECT_EQ(csr.out_degree(1), 0u);
  EXPECT_EQ(csr.edges(), 4u);
}

// ---- pagerank --------------------------------------------------------------------

TEST_F(AlgosTest, PagerankMatchesSerial) {
  Rng rng(5);
  const NodeId n = 200;
  auto edges = erdos_renyi(n, 1000, rng);
  auto serial = pagerank_serial(n, edges, 10);
  auto parallel = pagerank_dataflow(ctx, n, edges, 10);
  ASSERT_EQ(parallel.size(), n);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(parallel[u].first, u);
    EXPECT_NEAR(parallel[u].second, serial[u], 1e-9) << u;
  }
}

TEST_F(AlgosTest, PagerankMassConserved) {
  Rng rng(6);
  const NodeId n = 128;
  auto edges = rmat(128, 600, rng);
  auto ranks = pagerank_dataflow(ctx, n, edges, 5);
  double sum = 0;
  for (const auto& [u, r] : ranks) sum += r;
  EXPECT_NEAR(sum, static_cast<double>(n), 1e-6);
}

TEST(Pagerank, SerialHandlesDanglingNodes) {
  // Node 2 has no out-edges; rank must not leak.
  std::vector<Edge> edges{{0, 1}, {1, 2}};
  auto ranks = pagerank_serial(3, edges, 20);
  EXPECT_NEAR(ranks[0] + ranks[1] + ranks[2], 3.0, 1e-9);
  EXPECT_GT(ranks[2], ranks[0]);  // sink receives more
}

TEST(Pagerank, StarCenterDominates) {
  std::vector<Edge> edges;
  for (NodeId u = 1; u < 20; ++u) edges.push_back(Edge{u, 0});
  auto ranks = pagerank_serial(20, edges, 30);
  for (NodeId u = 1; u < 20; ++u) EXPECT_GT(ranks[0], ranks[u]);
}

// ---- kmeans ----------------------------------------------------------------------

TEST_F(AlgosTest, KmeansMatchesSerial) {
  Rng rng(7);
  auto points = generate_clustered_points(2000, 5, rng);
  auto serial = kmeans_serial(points, 5, 15);
  auto parallel = kmeans_dataflow(ctx, points, 5, 15);
  EXPECT_NEAR(parallel.inertia, serial.inertia, serial.inertia * 1e-9 + 1e-9);
  ASSERT_EQ(parallel.centroids.size(), serial.centroids.size());
  for (std::size_t c = 0; c < serial.centroids.size(); ++c) {
    for (std::size_t d = 0; d < kKmeansDim; ++d) {
      EXPECT_NEAR(parallel.centroids[c][d], serial.centroids[c][d], 1e-6);
    }
  }
}

TEST_F(AlgosTest, KmeansFindsTightClusters) {
  Rng rng(8);
  auto points = generate_clustered_points(3000, 8, rng, 0.2);
  auto res = kmeans_dataflow(ctx, points, 8, 25);
  // With tight well-separated blobs the mean within-cluster distance is
  // tiny relative to the 100-unit coordinate range.
  EXPECT_LT(res.inertia / static_cast<double>(points.size()), 5.0);
}

TEST(Kmeans, SerialConvergesAndStops) {
  Rng rng(9);
  auto points = generate_clustered_points(500, 3, rng, 0.1);
  auto res = kmeans_serial(points, 3, 100);
  EXPECT_LT(res.iterations, 100u);  // converged before the cap
}

// ---- connected components -----------------------------------------------------------

TEST_F(AlgosTest, ComponentsMatchSerial) {
  Rng rng(10);
  const NodeId n = 300;
  auto edges = erdos_renyi(n, 350, rng);  // sparse: several components
  auto serial = cc_serial(n, edges);
  auto parallel = cc_dataflow(ctx, n, edges);
  EXPECT_EQ(parallel, serial);
}

TEST_F(AlgosTest, ComponentsIsolatedNodes) {
  const NodeId n = 10;
  std::vector<Edge> edges{{0, 1}, {1, 2}, {5, 6}};
  auto labels = cc_dataflow(ctx, n, edges);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[5], labels[6]);
  EXPECT_NE(labels[0], labels[5]);
  EXPECT_EQ(labels[9], 9u);  // isolated keeps own label
}

TEST(Components, SerialChainIsOneComponent) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < 100; ++u) edges.push_back(Edge{u, u + 1});
  auto labels = cc_serial(100, edges);
  for (NodeId u = 0; u < 100; ++u) EXPECT_EQ(labels[u], 0u);
}

// ---- triangles -------------------------------------------------------------------

class TriangleGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriangleGraphs, MatchesReferenceOnRandomGraphs) {
  ThreadPool pool(4);
  Rng rng(GetParam());
  const NodeId n = 60;
  auto edges = erdos_renyi(n, 400, rng);
  EXPECT_EQ(count_triangles(pool, n, edges), count_triangles_reference(n, edges));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleGraphs, ::testing::Values(1, 2, 3, 4, 5));

TEST(Triangles, KnownSmallGraphs) {
  ThreadPool pool(2);
  // Complete graph K4: C(4,3) = 4 triangles.
  std::vector<Edge> k4;
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) k4.push_back(Edge{a, b});
  }
  EXPECT_EQ(count_triangles(pool, 4, k4), 4u);
  // A 4-cycle has none.
  std::vector<Edge> c4{{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  EXPECT_EQ(count_triangles(pool, 4, c4), 0u);
}

TEST(Triangles, DuplicatesAndSelfLoopsIgnored) {
  ThreadPool pool(2);
  std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}, {1, 2}, {2, 0}, {2, 2}};
  EXPECT_EQ(count_triangles(pool, 3, edges), 1u);
}

// ---- sssp ------------------------------------------------------------------------

TEST_F(AlgosTest, SsspMatchesDijkstra) {
  Rng rng(13);
  const NodeId n = 200;
  auto edges = with_random_weights(erdos_renyi(n, 1200, rng), rng);
  auto serial = sssp_serial(n, edges, 0);
  auto parallel = sssp_dataflow(ctx, n, edges, 0);
  ASSERT_EQ(parallel.size(), n);
  for (NodeId u = 0; u < n; ++u) {
    if (std::isinf(serial[u])) {
      EXPECT_TRUE(std::isinf(parallel[u])) << u;
    } else {
      EXPECT_NEAR(parallel[u], serial[u], 1e-9) << u;
    }
  }
}

TEST_F(AlgosTest, SsspUnreachableIsInfinity) {
  // Two disconnected pairs.
  std::vector<WEdge> edges{{0, 1, 2.0}, {2, 3, 4.0}};
  auto dist = sssp_dataflow(ctx, 4, edges, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 2.0);
  EXPECT_TRUE(std::isinf(dist[2]));
  EXPECT_TRUE(std::isinf(dist[3]));
}

TEST(Sssp, SerialChainDistances) {
  std::vector<WEdge> edges;
  for (NodeId u = 0; u + 1 < 10; ++u) edges.push_back(WEdge{u, u + 1, 1.5});
  auto dist = sssp_serial(10, edges, 0);
  for (NodeId u = 0; u < 10; ++u) EXPECT_DOUBLE_EQ(dist[u], 1.5 * u);
}

TEST(Sssp, SerialPrefersLighterDetour) {
  // Direct edge weight 10 vs two-hop path weight 3.
  std::vector<WEdge> edges{{0, 2, 10.0}, {0, 1, 1.0}, {1, 2, 2.0}};
  auto dist = sssp_serial(3, edges, 0);
  EXPECT_DOUBLE_EQ(dist[2], 3.0);
}

// ---- vertex programs / BFS -----------------------------------------------------

TEST_F(AlgosTest, BfsMatchesSerial) {
  Rng rng(14);
  const NodeId n = 300;
  auto edges = erdos_renyi(n, 900, rng);
  EXPECT_EQ(bfs_dataflow(ctx, n, edges, 0), bfs_serial(n, edges, 0));
}

TEST_F(AlgosTest, BfsDepthsOnChain) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < 10; ++u) edges.push_back(Edge{u, u + 1});
  auto depth = bfs_dataflow(ctx, 10, edges, 0);
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(depth[u], u);
}

TEST_F(AlgosTest, BfsUnreachableStaysMax) {
  std::vector<Edge> edges{{0, 1}};
  auto depth = bfs_dataflow(ctx, 3, edges, 0);
  EXPECT_EQ(depth[2], BfsProgram::kUnreached);
}

TEST_F(AlgosTest, VertexProgramTerminatesAtQuiescence) {
  Rng rng(15);
  const NodeId n = 128;
  auto edges = rmat(128, 500, rng);
  std::vector<std::uint32_t> depth(n, BfsProgram::kUnreached);
  depth[0] = 0;
  auto stats = run_vertex_program(ctx, n, edges, BfsProgram{}, depth, {0});
  // BFS converges within diameter+1 supersteps, far below the cap.
  EXPECT_GT(stats.supersteps, 0u);
  EXPECT_LT(stats.supersteps, 64u);
  EXPECT_GT(stats.messages_sent, 0u);
}

TEST_F(AlgosTest, VertexProgramRejectsBadValueSize) {
  std::vector<std::uint32_t> wrong_size(3);
  std::vector<Edge> edges{{0, 1}};
  EXPECT_THROW(
      run_vertex_program(ctx, 5, edges, BfsProgram{}, wrong_size, {0}),
      std::invalid_argument);
}

// ---- terasort --------------------------------------------------------------------

TEST_F(AlgosTest, TerasortGloballySorted) {
  Rng rng(11);
  auto records = generate_tera_records(30000, rng);
  auto sorted = terasort(ctx, records).collect();
  ASSERT_EQ(sorted.size(), records.size());
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end(),
                             [](const TeraRecord& a, const TeraRecord& b) {
                               return a.key < b.key;
                             }));
  // Permutation check: same multiset of keys.
  std::multiset<std::uint64_t> in_keys, out_keys;
  for (const auto& r : records) in_keys.insert(r.key);
  for (const auto& r : sorted) out_keys.insert(r.key);
  EXPECT_EQ(in_keys, out_keys);
}

TEST_F(AlgosTest, TerasortPayloadTravelsWithKey) {
  Rng rng(12);
  auto records = generate_tera_records(1000, rng);
  std::map<std::uint64_t, std::array<std::uint8_t, 16>> by_key;
  for (const auto& r : records) by_key[r.key] = r.payload;
  auto sorted = terasort(ctx, records).collect();
  for (const auto& r : sorted) {
    auto it = by_key.find(r.key);
    ASSERT_NE(it, by_key.end());
    EXPECT_EQ(r.payload, it->second);
  }
}

}  // namespace
}  // namespace hpbdc::algos
