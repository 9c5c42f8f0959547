#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "graph/algorithms.hpp"
#include "rng/rng.hpp"

namespace match::graph {
namespace {

void expect_weights_in_range(const Graph& g, WeightRange node_w,
                             WeightRange edge_w) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_GE(g.node_weight(u), static_cast<double>(node_w.lo));
    EXPECT_LE(g.node_weight(u), static_cast<double>(node_w.hi));
  }
  for (const Edge& e : g.edge_list()) {
    EXPECT_GE(e.weight, static_cast<double>(edge_w.lo));
    EXPECT_LE(e.weight, static_cast<double>(edge_w.hi));
  }
}

TEST(Complete, HasAllEdges) {
  rng::Rng rng(1);
  const Graph g = make_complete(10, {1, 5}, {10, 20}, rng);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 45u);
  expect_weights_in_range(g, {1, 5}, {10, 20});
}

TEST(Ring, HasNEdgesAndDegreeTwo) {
  rng::Rng rng(2);
  const Graph g = make_ring(8, {1, 1}, {1, 1}, rng);
  EXPECT_EQ(g.num_edges(), 8u);
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Ring, RejectsTinyN) {
  rng::Rng rng(3);
  EXPECT_THROW(make_ring(2, {1, 1}, {1, 1}, rng), std::invalid_argument);
}

TEST(Star, HubHasFullDegree) {
  rng::Rng rng(4);
  const Graph g = make_star(9, {1, 1}, {1, 1}, rng);
  EXPECT_EQ(g.num_edges(), 8u);
  EXPECT_EQ(g.degree(0), 8u);
  for (NodeId u = 1; u < 9; ++u) EXPECT_EQ(g.degree(u), 1u);
}

TEST(Mesh, EdgeCountWithoutTorus) {
  rng::Rng rng(5);
  const Graph g = make_mesh(3, 4, false, {1, 1}, {1, 1}, rng);
  EXPECT_EQ(g.num_nodes(), 12u);
  // rows*(cols-1) + cols*(rows-1) = 3*3 + 4*2 = 17
  EXPECT_EQ(g.num_edges(), 17u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Mesh, TorusAddsWrapEdges) {
  rng::Rng rng(6);
  const Graph g = make_mesh(3, 4, true, {1, 1}, {1, 1}, rng);
  // 17 + 3 row wraps (cols=4>2) + 4 col wraps (rows=3>2) = 24; every node
  // degree 4 in a full torus.
  EXPECT_EQ(g.num_edges(), 24u);
  for (NodeId u = 0; u < g.num_nodes(); ++u) EXPECT_EQ(g.degree(u), 4u);
}

TEST(Mesh, TorusSkipsDegenerateWraps) {
  rng::Rng rng(7);
  const Graph g = make_mesh(2, 3, true, {1, 1}, {1, 1}, rng);
  // Mesh: 2*2 + 3*1 = 7; wraps: cols=3>2 adds 2, rows=2 adds none -> 9.
  EXPECT_EQ(g.num_edges(), 9u);
}

TEST(Gnp, ZeroProbabilityStillConnectedWhenForced) {
  rng::Rng rng(8);
  const Graph g = make_gnp(12, 0.0, {1, 1}, {5, 5}, rng, true);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.num_edges(), 11u);  // at least a spanning set of patch edges
}

TEST(Gnp, ZeroProbabilityUnforcedIsEmpty) {
  rng::Rng rng(9);
  const Graph g = make_gnp(12, 0.0, {1, 1}, {5, 5}, rng, false);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Gnp, FullProbabilityIsComplete) {
  rng::Rng rng(10);
  const Graph g = make_gnp(9, 1.0, {1, 1}, {1, 1}, rng);
  EXPECT_EQ(g.num_edges(), 36u);
}

TEST(Gnp, EdgeCountTracksProbability) {
  rng::Rng rng(11);
  const Graph g = make_gnp(60, 0.3, {1, 1}, {1, 1}, rng, false);
  const double expected = 0.3 * 60 * 59 / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 0.25 * expected);
}

TEST(Gnp, RejectsBadProbability) {
  rng::Rng rng(12);
  EXPECT_THROW(make_gnp(5, 1.5, {1, 1}, {1, 1}, rng), std::invalid_argument);
  EXPECT_THROW(make_gnp(5, -0.1, {1, 1}, {1, 1}, rng), std::invalid_argument);
}

TEST(Clustered, DenseRegionsAreDenser) {
  rng::Rng rng(13);
  const std::size_t n = 60, regions = 3;
  const Graph g = make_clustered(n, regions, 0.8, 0.05, {1, 1}, {1, 1}, rng,
                                 false);
  std::size_t intra = 0, inter = 0;
  for (const Edge& e : g.edge_list()) {
    if (e.u % regions == e.v % regions) {
      ++intra;
    } else {
      ++inter;
    }
  }
  // Possible intra pairs: 3 * C(20,2) = 570 at p=.8 -> ~456.
  // Possible inter pairs: C(60,2) - 570 = 1200 at p=.05 -> ~60.
  EXPECT_GT(intra, inter);
  EXPECT_NEAR(static_cast<double>(intra), 456.0, 120.0);
  EXPECT_NEAR(static_cast<double>(inter), 60.0, 40.0);
}

TEST(Clustered, ForcedConnectivity) {
  rng::Rng rng(14);
  const Graph g = make_clustered(30, 5, 0.5, 0.0, {1, 1}, {1, 1}, rng, true);
  EXPECT_TRUE(is_connected(g));
}

TEST(Clustered, RejectsZeroRegions) {
  rng::Rng rng(15);
  EXPECT_THROW(make_clustered(10, 0, 0.5, 0.5, {1, 1}, {1, 1}, rng),
               std::invalid_argument);
}

TEST(BarabasiAlbert, EdgeCountFormula) {
  rng::Rng rng(16);
  const std::size_t n = 40, m = 3;
  const Graph g = make_barabasi_albert(n, m, {1, 1}, {1, 1}, rng);
  // Seed clique over m+1 nodes + m edges per subsequent node.
  const std::size_t expected = (m + 1) * m / 2 + (n - m - 1) * m;
  EXPECT_EQ(g.num_edges(), expected);
  EXPECT_TRUE(is_connected(g));
}

TEST(BarabasiAlbert, ProducesSkewedDegrees) {
  rng::Rng rng(17);
  const Graph g = make_barabasi_albert(200, 2, {1, 1}, {1, 1}, rng);
  const GraphStats s = compute_stats(g);
  // Scale-free graphs have hubs: max degree well above the mean.
  EXPECT_GT(static_cast<double>(s.max_degree), 3.0 * s.mean_degree);
}

TEST(BarabasiAlbert, RejectsBadParams) {
  rng::Rng rng(18);
  EXPECT_THROW(make_barabasi_albert(5, 0, {1, 1}, {1, 1}, rng),
               std::invalid_argument);
  EXPECT_THROW(make_barabasi_albert(3, 3, {1, 1}, {1, 1}, rng),
               std::invalid_argument);
}

TEST(Generators, DeterministicForFixedSeed) {
  rng::Rng a(42), b(42);
  EXPECT_EQ(make_gnp(25, 0.4, {1, 9}, {1, 99}, a),
            make_gnp(25, 0.4, {1, 9}, {1, 99}, b));
}

TEST(Generators, DifferentSeedsDiffer) {
  rng::Rng a(42), b(43);
  EXPECT_FALSE(make_gnp(25, 0.4, {1, 9}, {1, 99}, a) ==
               make_gnp(25, 0.4, {1, 9}, {1, 99}, b));
}

using TopologyParam = std::tuple<std::string, std::size_t>;

class TopologyWeightTest : public ::testing::TestWithParam<TopologyParam> {};

TEST_P(TopologyWeightTest, WeightsRespectRanges) {
  const auto [kind, n] = GetParam();
  rng::Rng rng(99);
  const WeightRange node_w{2, 7}, edge_w{30, 40};
  Graph g;
  if (kind == "complete") {
    g = make_complete(n, node_w, edge_w, rng);
  } else if (kind == "ring") {
    g = make_ring(n, node_w, edge_w, rng);
  } else if (kind == "star") {
    g = make_star(n, node_w, edge_w, rng);
  } else if (kind == "gnp") {
    g = make_gnp(n, 0.5, node_w, edge_w, rng);
  } else if (kind == "clustered") {
    g = make_clustered(n, 3, 0.7, 0.2, node_w, edge_w, rng);
  } else {
    g = make_barabasi_albert(n, 2, node_w, edge_w, rng);
  }
  EXPECT_EQ(g.num_nodes(), n);
  expect_weights_in_range(g, node_w, edge_w);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, TopologyWeightTest,
    ::testing::Combine(::testing::Values("complete", "ring", "star", "gnp",
                                         "clustered", "ba"),
                       ::testing::Values(std::size_t{10}, std::size_t{30})));

}  // namespace
}  // namespace match::graph
