#include "routing/hub_labels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/dimacs.h"
#include "graph/generators.h"
#include "routing/distance_oracle.h"

namespace urr {
namespace {

uint64_t BitsOf(Cost c) {
  uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(c));
  std::memcpy(&b, &c, sizeof(b));
  return b;
}

RoadNetwork SmallCity(uint64_t seed, int width = 14, int height = 14) {
  Rng rng(seed);
  GridCityOptions opt;
  opt.width = width;
  opt.height = height;
  auto g = GenerateGridCity(opt, &rng);
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Rounds every edge cost to a multiple of 1/256 so that all path sums are
/// exact in double arithmetic: Dijkstra, CH and HL then agree bitwise.
RoadNetwork Quantize(const RoadNetwork& net) {
  std::vector<Edge> edges = net.EdgeList();
  for (Edge& e : edges) e.cost = std::round(e.cost * 256.0) / 256.0;
  auto g = RoadNetwork::Build(net.num_nodes(), std::move(edges), net.coords());
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(HubLabelsTest, MatchesDijkstraOnGeneratorGraphs) {
  for (const uint64_t seed : {51, 92, 133}) {
    const RoadNetwork net = SmallCity(seed);
    auto hl = HubLabelOracle::Create(net);
    ASSERT_TRUE(hl.ok());
    DijkstraOracle ref(net);
    Rng rng(seed * 7 + 1);
    for (int i = 0; i < 300; ++i) {
      const NodeId s =
          static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
      const NodeId t =
          static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
      EXPECT_NEAR((*hl)->Distance(s, t), ref.Distance(s, t), 1e-6)
          << "seed " << seed << " query " << s << "->" << t;
    }
  }
}

TEST(HubLabelsTest, BitwiseEqualToDijkstraAndChOnQuantizedCosts) {
  const RoadNetwork net = Quantize(SmallCity(77));
  auto hl = HubLabelOracle::Create(net);
  ASSERT_TRUE(hl.ok());
  auto ch = ChOracle::Create(net);
  ASSERT_TRUE(ch.ok());
  DijkstraOracle ref(net);
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    const Cost want = ref.Distance(s, t);
    EXPECT_EQ(BitsOf((*hl)->Distance(s, t)), BitsOf(want))
        << "hl vs dijkstra " << s << "->" << t;
    EXPECT_EQ(BitsOf((*ch)->Distance(s, t)), BitsOf(want))
        << "ch vs dijkstra " << s << "->" << t;
  }
}

TEST(HubLabelsTest, MatchesDijkstraOnDimacsFixture) {
  // Hand-written DIMACS fixture: a directed diamond with a shortcut-worthy
  // middle, an asymmetric pair, and an unreachable sink (node 7 has no
  // incoming arcs from the rest). Integer weights => exact arithmetic.
  const std::string gr = R"(c tiny fixture
p sp 7 10
a 1 2 3
a 2 3 4
a 1 3 9
a 3 4 2
a 2 4 8
a 4 5 1
a 5 1 7
a 5 6 2
a 6 4 5
a 3 6 11
)";
  auto g = ParseDimacs(gr);
  ASSERT_TRUE(g.ok());
  auto hl = HubLabelOracle::Create(*g);
  ASSERT_TRUE(hl.ok());
  DijkstraOracle ref(*g);
  for (NodeId s = 0; s < g->num_nodes(); ++s) {
    for (NodeId t = 0; t < g->num_nodes(); ++t) {
      EXPECT_EQ(BitsOf((*hl)->Distance(s, t)), BitsOf(ref.Distance(s, t)))
          << s << "->" << t;
    }
  }
}

// The load-bearing claim for batched candidate evaluation: each oracle's
// many-to-many rectangle is bitwise identical to its own scalar queries,
// even on jittered (non-quantized) generator costs.
TEST(HubLabelsTest, BatchedRectanglesMatchScalarBitwise) {
  const RoadNetwork net = SmallCity(29);
  auto ch = ChOracle::Create(net);
  ASSERT_TRUE(ch.ok());
  auto hl = HubLabelOracle::FromHierarchy((*ch)->hierarchy());
  ASSERT_TRUE(hl.ok());
  DijkstraOracle dij(net);
  CachingOracle caching(ch->get());

  Rng rng(31);
  std::vector<NodeId> sources, targets;
  for (int i = 0; i < 17; ++i) {
    sources.push_back(static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1)));
  }
  for (int i = 0; i < 23; ++i) {
    targets.push_back(static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1)));
  }
  // Include a source == target diagonal and duplicate columns on purpose.
  targets[3] = sources[2];
  targets[11] = targets[4];

  std::vector<DistanceOracle*> contenders = {&dij, ch->get(), hl->get(),
                                             &caching};
  for (DistanceOracle* oracle : contenders) {
    ASSERT_TRUE(oracle->SupportsBatch());
    std::vector<Cost> batched(sources.size() * targets.size());
    oracle->BatchDistances(sources, targets, batched.data());
    for (size_t i = 0; i < sources.size(); ++i) {
      for (size_t j = 0; j < targets.size(); ++j) {
        EXPECT_EQ(BitsOf(batched[i * targets.size() + j]),
                  BitsOf(oracle->Distance(sources[i], targets[j])))
            << sources[i] << "->" << targets[j];
      }
    }
    // Element-wise batch too (used by Rebuild and GBS classify).
    std::vector<NodeId> us(sources.begin(), sources.end());
    std::vector<NodeId> vs(targets.begin(), targets.begin() + sources.size());
    std::vector<Cost> pairwise(us.size());
    oracle->BatchPairwise(us, vs, pairwise.data());
    for (size_t k = 0; k < us.size(); ++k) {
      EXPECT_EQ(BitsOf(pairwise[k]), BitsOf(oracle->Distance(us[k], vs[k])));
    }
  }
}

// Edge cases of the dense-bucket batch kernel. Every cell must be bitwise
// equal to the scalar label query, and the per-clone scratch must come back
// clean after every call (a stale bucket would leak into the next batch).
std::unique_ptr<HubLabelOracle> OracleWithIsolatedLastNode(NodeId* isolated) {
  const RoadNetwork net = SmallCity(41, 10, 9);
  auto g = RoadNetwork::Build(net.num_nodes() + 1, net.EdgeList());
  EXPECT_TRUE(g.ok());
  *isolated = g->num_nodes() - 1;
  auto hl = HubLabelOracle::Create(*g);
  EXPECT_TRUE(hl.ok());
  return std::move(*hl);
}

void ExpectBatchMatchesScalar(DistanceOracle* oracle,
                              const std::vector<NodeId>& sources,
                              const std::vector<NodeId>& targets) {
  const HubLabels& labels = dynamic_cast<HubLabelOracle*>(oracle)->labels();
  std::vector<Cost> out(sources.size() * targets.size(), -1.0);
  oracle->BatchDistances(sources, targets, out.data());
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(BitsOf(out[i * targets.size() + j]),
                BitsOf(labels.Distance(sources[i], targets[j])))
          << sources[i] << "->" << targets[j];
    }
  }
}

TEST(HubLabelsBatchTest, EmptySourcesOrTargetsWriteNothing) {
  NodeId isolated = 0;
  auto hl = OracleWithIsolatedLastNode(&isolated);
  const std::vector<NodeId> some = {0, 3, isolated};
  Cost sentinel = -1.0;
  hl->BatchDistances({}, some, &sentinel);
  hl->BatchDistances(some, {}, &sentinel);
  hl->BatchDistances({}, {}, &sentinel);
  EXPECT_EQ(sentinel, -1.0);
  ExpectBatchMatchesScalar(hl.get(), some, some);
}

TEST(HubLabelsBatchTest, SingleRowAndSingleColumn) {
  NodeId isolated = 0;
  auto hl = OracleWithIsolatedLastNode(&isolated);
  std::vector<NodeId> all;
  for (NodeId v = 0; v <= isolated; ++v) all.push_back(v);
  for (const NodeId v : {NodeId{0}, NodeId{17}, isolated}) {
    ExpectBatchMatchesScalar(hl.get(), {v}, all);
    ExpectBatchMatchesScalar(hl.get(), all, {v});
  }
}

TEST(HubLabelsBatchTest, RepeatedTargetsAndDiagonal) {
  NodeId isolated = 0;
  auto hl = OracleWithIsolatedLastNode(&isolated);
  const std::vector<NodeId> sources = {5, 9, 5, 23, isolated};
  const std::vector<NodeId> targets = {9, 9, 5, 23, 5, isolated, 9};
  ExpectBatchMatchesScalar(hl.get(), sources, targets);
  std::vector<Cost> out(sources.size() * targets.size());
  hl->BatchDistances(sources, targets, out.data());
  EXPECT_EQ(out[0 * targets.size() + 2], 0.0);  // 5 -> 5
  EXPECT_EQ(out[1 * targets.size() + 0], 0.0);  // 9 -> 9
}

TEST(HubLabelsBatchTest, UnreachablePairsAreInfinite) {
  NodeId isolated = 0;
  auto hl = OracleWithIsolatedLastNode(&isolated);
  const std::vector<NodeId> sources = {0, isolated, 12};
  const std::vector<NodeId> targets = {isolated, 0, 12};
  std::vector<Cost> out(sources.size() * targets.size());
  hl->BatchDistances(sources, targets, out.data());
  EXPECT_EQ(out[0], kInfiniteCost);      // 0 -> isolated
  EXPECT_EQ(out[3 + 1], kInfiniteCost);  // isolated -> 0
  EXPECT_EQ(out[3 + 2], kInfiniteCost);  // isolated -> 12
  EXPECT_EQ(out[3 + 0], 0.0);            // isolated -> isolated
  EXPECT_EQ(out[6 + 0], kInfiniteCost);  // 12 -> isolated
  EXPECT_LT(out[6 + 1], kInfiniteCost);  // 12 -> 0
  ExpectBatchMatchesScalar(hl.get(), sources, targets);
}

// Clones never share batch scratch: two clones hammering the kernel from
// two threads stay exact (and race-free under TSan).
TEST(HubLabelsBatchTest, ClonesQueriedFromTwoThreads) {
  NodeId isolated = 0;
  auto hl = OracleWithIsolatedLastNode(&isolated);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v <= isolated; v += 3) nodes.push_back(v);
  std::vector<Cost> want(nodes.size() * nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = 0; j < nodes.size(); ++j) {
      want[i * nodes.size() + j] = hl->labels().Distance(nodes[i], nodes[j]);
    }
  }
  auto work = [&](DistanceOracle* oracle, std::vector<Cost>* got) {
    got->assign(want.size(), -1.0);
    for (int round = 0; round < 20; ++round) {
      oracle->BatchDistances(nodes, nodes, got->data());
    }
  };
  std::unique_ptr<DistanceOracle> a = hl->Clone();
  std::unique_ptr<DistanceOracle> b = hl->Clone();
  std::vector<Cost> got_a, got_b;
  std::thread ta(work, a.get(), &got_a);
  std::thread tb(work, b.get(), &got_b);
  ta.join();
  tb.join();
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(BitsOf(got_a[k]), BitsOf(want[k]));
    EXPECT_EQ(BitsOf(got_b[k]), BitsOf(want[k]));
  }
}

TEST(HubLabelsTest, CloneSharesLabelStoreAndIsIndependent) {
  const RoadNetwork net = SmallCity(13, 8, 8);
  auto hl = HubLabelOracle::Create(net);
  ASSERT_TRUE(hl.ok());
  std::unique_ptr<DistanceOracle> clone = (*hl)->Clone();
  ASSERT_NE(clone, nullptr);
  // Shared immutable store: the clone is just another view.
  auto* typed = dynamic_cast<HubLabelOracle*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(&typed->labels(), &(*hl)->labels());
  // Independent call counters.
  const Cost a = (*hl)->Distance(0, 1);
  const Cost b = clone->Distance(0, 1);
  EXPECT_EQ(BitsOf(a), BitsOf(b));
  EXPECT_EQ((*hl)->num_calls(), 1);
  EXPECT_EQ(clone->num_calls(), 1);
}

TEST(HubLabelsTest, LabelsAreSortedAndCarrySelfEntries) {
  const RoadNetwork net = SmallCity(7, 9, 9);
  auto hl = HubLabelOracle::Create(net);
  ASSERT_TRUE(hl.ok());
  const HubLabels& labels = (*hl)->labels();
  EXPECT_EQ(labels.num_nodes(), net.num_nodes());
  EXPECT_GT(labels.average_label_size(), 0.0);
  for (NodeId v = 0; v < labels.num_nodes(); ++v) {
    for (const auto hubs : {labels.ForwardHubs(v), labels.BackwardHubs(v)}) {
      ASSERT_FALSE(hubs.empty());
      bool has_self = false;
      for (size_t k = 0; k < hubs.size(); ++k) {
        if (hubs[k] == v) has_self = true;
        if (k > 0) {
          EXPECT_LT(hubs[k - 1], hubs[k]);
        }
      }
      EXPECT_TRUE(has_self) << "node " << v;
    }
    EXPECT_EQ(BitsOf(labels.Distance(v, v)), BitsOf(Cost{0}));
  }
}

TEST(HubLabelsTest, LabelBytesIdenticalAcrossThreadCounts) {
  const RoadNetwork net = SmallCity(23, 16, 12);
  auto ch = ContractionHierarchy::Build(net);
  ASSERT_TRUE(ch.ok());

  auto bytes_with_threads = [&](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    auto hl = HubLabels::Build(*ch, pool.get());
    EXPECT_TRUE(hl.ok());
    BinaryWriter writer;
    hl->Serialize(&writer);
    return writer.buffer();
  };

  const std::string serial = bytes_with_threads(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 8}) {
    EXPECT_EQ(bytes_with_threads(threads), serial)
        << "labels extracted with " << threads
        << " threads must be bit-identical to the serial extraction";
  }
}

TEST(OracleStackTest, BuildsEveryKindAndParsesNames) {
  const RoadNetwork net = SmallCity(3, 8, 8);
  for (const char* name : {"dijkstra", "ch", "caching", "hl"}) {
    auto kind = ParseOracleKind(name);
    ASSERT_TRUE(kind.ok()) << name;
    EXPECT_STREQ(OracleKindName(*kind), name);
    auto stack = BuildOracleStack(net, *kind);
    ASSERT_TRUE(stack.ok()) << name;
    ASSERT_NE(stack->active, nullptr) << name;
    EXPECT_GE(stack->active->Distance(0, 1), 0) << name;
  }
  EXPECT_FALSE(ParseOracleKind("bogus").ok());
  // The caching stack exposes its CH for benches that need the hierarchy.
  auto stack = BuildOracleStack(net, OracleKind::kCachingCh);
  ASSERT_TRUE(stack.ok());
  EXPECT_NE(stack->ch, nullptr);
  EXPECT_EQ(stack->active, stack->caching.get());
}

}  // namespace
}  // namespace urr
