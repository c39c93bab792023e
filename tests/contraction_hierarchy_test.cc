#include "routing/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "routing/bidirectional.h"
#include "routing/dijkstra.h"
#include "reference_contraction.h"

namespace urr {
namespace {

TEST(ChTest, TinyLineGraph) {
  auto g = RoadNetwork::Build(4, {{0, 1, 1}, {1, 2, 2}, {2, 3, 3}});
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  EXPECT_DOUBLE_EQ(q.Distance(0, 3), 6);
  EXPECT_DOUBLE_EQ(q.Distance(0, 0), 0);
  EXPECT_DOUBLE_EQ(q.Distance(3, 0), kInfiniteCost);
  EXPECT_EQ(q.num_queries(), 3);
}

TEST(ChTest, RanksAreAPermutation) {
  Rng rng(41);
  GridCityOptions opt;
  opt.width = 10;
  opt.height = 10;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  std::vector<bool> seen(static_cast<size_t>(g->num_nodes()), false);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    const int32_t r = ch->rank(v);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, g->num_nodes());
    EXPECT_FALSE(seen[static_cast<size_t>(r)]);
    seen[static_cast<size_t>(r)] = true;
  }
}

/// EXPECT_NEAR chokes on (inf, inf); compare with explicit inf handling.
void ExpectDistanceEq(Cost got, Cost want, NodeId s, NodeId t) {
  if (want == kInfiniteCost || got == kInfiniteCost) {
    EXPECT_EQ(got, want) << s << " -> " << t;
  } else {
    EXPECT_NEAR(got, want, 1e-6) << s << " -> " << t;
  }
}

// The one contraction order breaks (priority, id) ties by node id, so the
// numbering of the input steers which hierarchy gets built. Each case
// renumbers the graph first and then checks the hierarchy against Dijkstra.
enum class InputNumbering {
  kAsGenerated,  // ids as the generator emitted them
  kPriority,     // ascending degree: ties go to the nodes a priority
                 // order contracts first
  kGeometric,    // nested dissection of the coordinates: separators get
                 // the highest ids, so they lose ties and contract last
};

/// Appends `set` to `seq` in nested-dissection order: recursively bisect on
/// the wider coordinate axis and emit the ~sqrt(|set|) nodes nearest the
/// median after both halves.
void AppendNestedDissection(const RoadNetwork& g, std::vector<NodeId> set,
                            std::vector<NodeId>* seq) {
  if (set.size() <= 16) {
    seq->insert(seq->end(), set.begin(), set.end());
    return;
  }
  double min_x = 1e300, max_x = -1e300, min_y = 1e300, max_y = -1e300;
  for (NodeId v : set) {
    min_x = std::min(min_x, g.coord(v).x);
    max_x = std::max(max_x, g.coord(v).x);
    min_y = std::min(min_y, g.coord(v).y);
    max_y = std::max(max_y, g.coord(v).y);
  }
  const bool by_x = (max_x - min_x) >= (max_y - min_y);
  std::sort(set.begin(), set.end(), [&](NodeId a, NodeId b) {
    const double ka = by_x ? g.coord(a).x : g.coord(a).y;
    const double kb = by_x ? g.coord(b).x : g.coord(b).y;
    return ka != kb ? ka < kb : a < b;
  });
  const size_t n = set.size();
  const size_t sep = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  const size_t lo = n / 2 - sep / 2;
  AppendNestedDissection(g, {set.begin(), set.begin() + lo}, seq);
  AppendNestedDissection(g, {set.begin() + lo + sep, set.end()}, seq);
  seq->insert(seq->end(), set.begin() + lo, set.begin() + lo + sep);
}

/// `g` with its nodes renumbered per `numbering` (edges and coordinates
/// follow their nodes).
RoadNetwork Renumber(const RoadNetwork& g, InputNumbering numbering) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> seq(static_cast<size_t>(n));  // new id -> old id
  for (NodeId v = 0; v < n; ++v) seq[static_cast<size_t>(v)] = v;
  if (numbering == InputNumbering::kPriority) {
    auto degree = [&](NodeId v) {
      return g.OutNeighbors(v).size() + g.InNeighbors(v).size();
    };
    std::stable_sort(seq.begin(), seq.end(), [&](NodeId a, NodeId b) {
      return degree(a) < degree(b);
    });
  } else if (numbering == InputNumbering::kGeometric) {
    std::vector<NodeId> all = std::move(seq);
    seq.clear();
    AppendNestedDissection(g, std::move(all), &seq);
  }
  std::vector<NodeId> id(static_cast<size_t>(n));  // old id -> new id
  std::vector<Coord> coords(g.coords().size());
  for (NodeId k = 0; k < n; ++k) {
    const NodeId v = seq[static_cast<size_t>(k)];
    id[static_cast<size_t>(v)] = k;
    if (g.has_coords()) coords[static_cast<size_t>(k)] = g.coord(v);
  }
  std::vector<Edge> edges = g.EdgeList();
  for (Edge& e : edges) {
    e.from = id[static_cast<size_t>(e.from)];
    e.to = id[static_cast<size_t>(e.to)];
  }
  auto out = RoadNetwork::Build(n, std::move(edges), std::move(coords));
  EXPECT_TRUE(out.ok()) << out.status();
  return std::move(*out);
}

class ChOrderTest : public ::testing::TestWithParam<InputNumbering> {};

TEST_P(ChOrderTest, MatchesDijkstraOnRandomGrid) {
  Rng rng(42);
  GridCityOptions opt;
  opt.width = 18;
  opt.height = 14;
  opt.keep_probability = 0.85;
  opt.arterial_fraction = 0.03;
  auto generated = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(generated.ok());
  const RoadNetwork g = Renumber(*generated, GetParam());
  auto ch = ContractionHierarchy::Build(g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  DijkstraEngine ref(g);
  for (int trial = 0; trial < 300; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
    ExpectDistanceEq(q.Distance(s, t), ref.Distance(s, t), s, t);
  }
}

TEST_P(ChOrderTest, MatchesDijkstraOnDirectedGraph) {
  // Random sparse directed graph: edges are one-way, so the upward and
  // downward halves of the hierarchy differ.
  Rng rng(43);
  const NodeId n = 120;
  std::vector<Edge> edges;
  std::vector<Coord> coords(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    coords[static_cast<size_t>(v)] = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
  }
  for (NodeId v = 0; v < n; ++v) {
    for (int e = 0; e < 3; ++e) {
      const NodeId w = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      if (w != v) edges.push_back({v, w, rng.Uniform(1, 10)});
    }
  }
  auto generated = RoadNetwork::Build(n, edges, coords);
  ASSERT_TRUE(generated.ok());
  const RoadNetwork g = Renumber(*generated, GetParam());
  auto ch = ContractionHierarchy::Build(g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  DijkstraEngine ref(g);
  for (int trial = 0; trial < 400; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    ExpectDistanceEq(q.Distance(s, t), ref.Distance(s, t), s, t);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ChOrderTest,
                         ::testing::Values(InputNumbering::kAsGenerated,
                                           InputNumbering::kPriority,
                                           InputNumbering::kGeometric),
                         [](const auto& info) {
                           switch (info.param) {
                             case InputNumbering::kPriority:
                               return "Priority";
                             case InputNumbering::kGeometric:
                               return "Geometric";
                             default:
                               return "AsGenerated";
                           }
                         });

TEST(ChTest, PathUnpacksToOriginalEdges) {
  Rng rng(45);
  GridCityOptions opt;
  opt.width = 15;
  opt.height = 12;
  opt.arterial_fraction = 0.05;  // shortcuts guaranteed interesting
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  DijkstraEngine ref(*g);
  int nontrivial = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    std::vector<NodeId> path;
    const Cost d = q.Path(s, t, &path);
    const Cost want = ref.Distance(s, t);
    if (want == kInfiniteCost) {
      EXPECT_EQ(d, kInfiniteCost);
      EXPECT_TRUE(path.empty());
      continue;
    }
    ASSERT_NEAR(d, want, 1e-6) << s << " -> " << t;
    // The path must be a real walk in the original network whose edge
    // costs sum to the distance.
    ASSERT_GE(path.size(), 1u);
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    Cost total = 0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const Cost leg = g->EdgeCost(path[i], path[i + 1]);
      ASSERT_LT(leg, kInfiniteCost)
          << "no original edge " << path[i] << " -> " << path[i + 1];
      total += leg;
    }
    EXPECT_NEAR(total, want, 1e-6);
    if (path.size() > 3) ++nontrivial;
  }
  EXPECT_GT(nontrivial, 30);  // the sweep must exercise real unpacking
}

TEST(ChTest, PathIdentityAndUnreachable) {
  auto g = RoadNetwork::Build(3, {{0, 1, 2}});
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  std::vector<NodeId> path;
  EXPECT_DOUBLE_EQ(q.Path(1, 1, &path), 0);
  EXPECT_EQ(path, (std::vector<NodeId>{1}));
  EXPECT_EQ(q.Path(1, 0, &path), kInfiniteCost);
  EXPECT_TRUE(path.empty());
  EXPECT_DOUBLE_EQ(q.Path(0, 1, &path), 2);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1}));
}

TEST(ChTest, HandlesParallelEdgesAndSelfLoops) {
  auto g = RoadNetwork::Build(3, {{0, 1, 5},
                                  {0, 1, 2},
                                  {1, 1, 1},
                                  {1, 2, 4},
                                  {1, 2, 7}});
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  EXPECT_DOUBLE_EQ(q.Distance(0, 2), 6);
}

TEST(ChTest, DisconnectedComponents) {
  auto g = RoadNetwork::Build(4, {{0, 1, 1}, {2, 3, 1}});
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  EXPECT_DOUBLE_EQ(q.Distance(0, 1), 1);
  EXPECT_EQ(q.Distance(0, 3), kInfiniteCost);
}

TEST(ChParallelTest, SerializedBytesIdenticalAcrossThreadCounts) {
  Rng rng(77);
  GridCityOptions opt;
  opt.width = 16;
  opt.height = 12;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());

  auto bytes_with_threads = [&](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ChOptions options;
    options.pool = pool.get();
    auto ch = ContractionHierarchy::Build(*g, options);
    EXPECT_TRUE(ch.ok());
    BinaryWriter writer;
    ch->Serialize(&writer);
    return writer.buffer();
  };

  const std::string serial = bytes_with_threads(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 8}) {
    EXPECT_EQ(bytes_with_threads(threads), serial)
        << "hierarchy built with " << threads
        << " threads must be bit-identical to the serial build";
  }
}

// Regression: simultaneous independent-set contraction with heavily tied
// edge costs. Two same-round winners can witness each other's shortcut at
// exactly equal cost; the round simulation must not let both suppress
// (witness comparison must be strict), or the path disappears entirely and
// queries silently overestimate.
TEST(ChParallelTest, ExactOnHeavilyTiedCosts) {
  Rng rng(20170512);
  GridCityOptions opt;
  opt.width = 12;
  opt.height = 10;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  std::vector<Edge> edges = g->EdgeList();
  // Quantize coarsely: nearly every block edge collapses onto the same cost.
  for (Edge& e : edges) e.cost = std::max(1.0, std::round(e.cost / 16.0)) * 16.0;
  auto q = RoadNetwork::Build(g->num_nodes(), std::move(edges), g->coords());
  ASSERT_TRUE(q.ok());

  auto ch = ContractionHierarchy::Build(*q);
  ASSERT_TRUE(ch.ok());
  ChQuery query(*ch);
  DijkstraEngine ref(*q);
  std::vector<NodeId> targets;
  for (NodeId t = 0; t < q->num_nodes(); t += 5) targets.push_back(t);
  for (NodeId s = 0; s < q->num_nodes(); s += 7) {
    const std::vector<Cost> want = ref.Distances(s, targets);
    for (size_t j = 0; j < targets.size(); ++j) {
      ExpectDistanceEq(query.Distance(s, targets[j]), want[j], s, targets[j]);
    }
  }
}

// Contraction differential: the one-to-many witness search must produce the
// same hierarchy, byte for byte, as the per-pair reference at every thread
// count.
std::string ChBytes(const RoadNetwork& g, int threads) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  ChOptions options;
  options.pool = pool.get();
  auto ch = ContractionHierarchy::Build(g, options);
  EXPECT_TRUE(ch.ok()) << ch.status();
  BinaryWriter writer;
  ch->Serialize(&writer);
  return writer.TakeBuffer();
}

void ExpectMatchesReferenceContraction(const RoadNetwork& g) {
  const std::string want = reference::ContractSerialized(g);
  for (const int threads : {1, 2, 4, 8}) {
    EXPECT_TRUE(ChBytes(g, threads) == want)
        << "hierarchy at " << threads
        << " threads differs from the per-pair reference";
  }
}

TEST(ChReferenceTest, NycLikeCity) {
  Rng rng(42);
  auto g = GenerateNycLike(800, &rng);
  ASSERT_TRUE(g.ok());
  ExpectMatchesReferenceContraction(*g);
}

TEST(ChReferenceTest, ChicagoLikeCity) {
  Rng rng(2017);
  auto g = GenerateChicagoLike(600, &rng);
  ASSERT_TRUE(g.ok());
  ExpectMatchesReferenceContraction(*g);
}

TEST(ChReferenceTest, QuantizedGrid) {
  Rng rng(5);
  GridCityOptions opt;
  opt.width = 20;
  opt.height = 16;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  std::vector<Edge> edges = g->EdgeList();
  // Heavy ties: the strict-witness rule and the settle order decide.
  for (Edge& e : edges) e.cost = std::max(1.0, std::round(e.cost / 16.0)) * 16.0;
  auto q = RoadNetwork::Build(g->num_nodes(), std::move(edges), g->coords());
  ASSERT_TRUE(q.ok());
  ExpectMatchesReferenceContraction(*q);
}

// Long expensive edges over a cheap grid: their witness searches reach more
// than the settle cap's worth of nodes within the via bound, so the cap
// decides which shortcuts survive (it never binds on the small cities).
TEST(ChReferenceTest, SettleCapBindsOnArterialGrid) {
  constexpr NodeId kSide = 24;
  Rng rng(11);
  std::vector<Edge> edges;
  for (NodeId y = 0; y < kSide; ++y) {
    for (NodeId x = 0; x < kSide; ++x) {
      const NodeId v = y * kSide + x;
      if (x + 1 < kSide) {
        const Cost c = rng.Uniform(1.0, 2.0);
        edges.push_back({v, v + 1, c});
        edges.push_back({v + 1, v, c});
      }
      if (y + 1 < kSide) {
        const Cost c = rng.Uniform(1.0, 2.0);
        edges.push_back({v, v + kSide, c});
        edges.push_back({v + kSide, v, c});
      }
    }
  }
  for (int i = 0; i < 60; ++i) {
    const auto a = static_cast<NodeId>(rng.UniformInt(0, kSide * kSide - 1));
    const auto b = static_cast<NodeId>(rng.UniformInt(0, kSide * kSide - 1));
    edges.push_back({a, b, rng.Uniform(40.0, 80.0)});
  }
  auto g = RoadNetwork::Build(kSide * kSide, std::move(edges));
  ASSERT_TRUE(g.ok());
  ExpectMatchesReferenceContraction(*g);
}

TEST(ChReferenceTest, IsolatedLastNode) {
  Rng rng(9);
  GridCityOptions opt;
  opt.width = 10;
  opt.height = 8;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  // One more node with no edges at all: its CSR ranges are empty at the
  // very end of every array.
  auto h = RoadNetwork::Build(g->num_nodes() + 1, g->EdgeList());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->OutNeighbors(h->num_nodes() - 1).empty());
  ExpectMatchesReferenceContraction(*h);
  auto ch = ContractionHierarchy::Build(*h);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  EXPECT_EQ(q.Distance(0, h->num_nodes() - 1), kInfiniteCost);
  EXPECT_EQ(q.Distance(h->num_nodes() - 1, 0), kInfiniteCost);
}

TEST(BidirectionalTest, MatchesDijkstra) {
  Rng rng(44);
  GridCityOptions opt;
  opt.width = 16;
  opt.height = 12;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  BidirectionalDijkstra bidi(*g);
  DijkstraEngine ref(*g);
  for (int trial = 0; trial < 300; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    EXPECT_NEAR(bidi.Distance(s, t), ref.Distance(s, t), 1e-6);
  }
}

TEST(BidirectionalTest, UnreachableAndIdentity) {
  auto g = RoadNetwork::Build(3, {{0, 1, 2}});
  ASSERT_TRUE(g.ok());
  BidirectionalDijkstra bidi(*g);
  EXPECT_DOUBLE_EQ(bidi.Distance(0, 0), 0);
  EXPECT_DOUBLE_EQ(bidi.Distance(0, 1), 2);
  EXPECT_EQ(bidi.Distance(1, 0), kInfiniteCost);
  EXPECT_EQ(bidi.Distance(0, 2), kInfiniteCost);
}

}  // namespace
}  // namespace urr
