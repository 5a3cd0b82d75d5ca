// Unit tests for the batch dataflow graph: region discovery, graph queries,
// subgraph enumeration, convexity/independence, and contracted emission
// order.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "graph/regions.hpp"
#include "model/builder.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hcg {
namespace {

Model fig4(int n = 8) { return resolved(benchmodels::paper_fig4_model(n)); }

std::vector<BatchRegion> fig4_regions(const Model& m) {
  return find_batch_regions(m, AllOpsSupport());
}

// ---------------------------------------------------------------------------
// Dataflow primitives
// ---------------------------------------------------------------------------

TEST(Dataflow, AddNodeValidatesOperands) {
  Dataflow g(16, 32);
  const int x = g.add_external({0, 0, DataType::kInt32});
  DfgNode good{BatchOp::kAbs, {ValueRef::external(x)}, DataType::kInt32, 0};
  EXPECT_EQ(g.add_node(good), 0);
  DfgNode bad{BatchOp::kAbs, {ValueRef::node(5)}, DataType::kInt32, 0};
  EXPECT_THROW(g.add_node(bad), InternalError);
  DfgNode bad2{BatchOp::kAbs, {ValueRef::external(9)}, DataType::kInt32, 0};
  EXPECT_THROW(g.add_node(bad2), InternalError);
}

TEST(Dataflow, ConsumersAndOutputs) {
  Dataflow g(16, 32);
  const int x = g.add_external({0, 0, DataType::kInt32});
  const int a = g.add_node({BatchOp::kAbs, {ValueRef::external(x)},
                            DataType::kInt32, 0});
  const int b = g.add_node({BatchOp::kNot, {ValueRef::node(a)},
                            DataType::kInt32, 1});
  g.mark_output(b);
  EXPECT_EQ(g.consumers(a), std::vector<int>{b});
  EXPECT_TRUE(g.consumers(b).empty());
  EXPECT_TRUE(g.is_output(b));
  EXPECT_FALSE(g.is_output(a));
  g.mark_output(b);  // idempotent
  EXPECT_EQ(g.outputs().size(), 1u);
}

TEST(Dataflow, OpCostOrdersExpensiveOpsFirst) {
  EXPECT_GT(op_cost(BatchOp::kDiv), op_cost(BatchOp::kMul));
  EXPECT_GT(op_cost(BatchOp::kMul), op_cost(BatchOp::kAdd));
  EXPECT_EQ(op_cost(BatchOp::kSqrt), op_cost(BatchOp::kRecp));
}

// ---------------------------------------------------------------------------
// Topological numbering: the invariants linear-time Algorithm 2 relies on
// ---------------------------------------------------------------------------

// A random DAG whose nodes are numbered in dependency order, as add_node
// requires: every node operand refers to an earlier node.
Dataflow random_dag(Rng& rng) {
  Dataflow g(16, 32);
  const int externals = static_cast<int>(rng.uniform_int(1, 3));
  for (int x = 0; x < externals; ++x) g.add_external({0, 0, DataType::kInt32});
  const int nodes = static_cast<int>(rng.uniform_int(2, 14));
  for (int i = 0; i < nodes; ++i) {
    const bool binary = rng.uniform_int(0, 2) != 0;
    DfgNode node{binary ? BatchOp::kAdd : BatchOp::kAbs, {}, DataType::kInt32, 0};
    for (int k = 0; k < (binary ? 2 : 1); ++k) {
      if (i > 0 && rng.uniform_int(0, 3) != 0) {
        node.operands.push_back(
            ValueRef::node(static_cast<int>(rng.uniform_int(0, i - 1))));
      } else {
        node.operands.push_back(ValueRef::external(
            static_cast<int>(rng.uniform_int(0, externals - 1))));
      }
    }
    g.add_node(std::move(node));
  }
  for (int i = 0; i < g.node_count(); ++i) {
    if (g.consumers(i).empty() || rng.uniform_int(0, 4) == 0) g.mark_output(i);
  }
  return g;
}

std::vector<bool> random_mask(Rng& rng, int n) {
  std::vector<bool> mask(static_cast<size_t>(n));
  for (size_t i = 0; i < mask.size(); ++i) mask[i] = rng.uniform_int(0, 2) == 0;
  return mask;
}

// Convexity by unbounded reachability: no member is reachable from another
// member through a non-member.
bool reference_convex(const Dataflow& g, const std::vector<int>& subgraph) {
  const std::set<int> members(subgraph.begin(), subgraph.end());
  std::vector<int> stack;
  for (int m : subgraph) {
    for (int c : g.consumers(m)) {
      if (!members.count(c)) stack.push_back(c);
    }
  }
  std::set<int> visited;
  while (!stack.empty()) {
    const int n = stack.back();
    stack.pop_back();
    if (members.count(n)) return false;
    if (!visited.insert(n).second) continue;
    for (int c : g.consumers(n)) stack.push_back(c);
  }
  return true;
}

// Every connected set of unmapped nodes containing `seed` with at most
// `max_nodes` members, each sorted.
std::set<std::vector<int>> connected_sets(const Dataflow& g, int seed,
                                          const std::vector<bool>& mapped,
                                          int max_nodes) {
  std::set<std::vector<int>> all{{seed}};
  std::vector<std::vector<int>> frontier{{seed}};
  while (!frontier.empty()) {
    std::vector<std::vector<int>> next;
    for (const std::vector<int>& set : frontier) {
      if (static_cast<int>(set.size()) >= max_nodes) continue;
      for (int m : set) {
        std::vector<int> adjacent = g.consumers(m);
        for (const ValueRef& v : g.node(m).operands) {
          if (v.kind == ValueRef::Kind::kNode) adjacent.push_back(v.index);
        }
        for (int a : adjacent) {
          if (mapped[static_cast<size_t>(a)]) continue;
          if (std::find(set.begin(), set.end(), a) != set.end()) continue;
          std::vector<int> grown = set;
          grown.push_back(a);
          std::sort(grown.begin(), grown.end());
          if (all.insert(grown).second) next.push_back(std::move(grown));
        }
      }
    }
    frontier = std::move(next);
  }
  return all;
}

TEST(Dataflow, BoundedConvexityAgreesWithReachabilityOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const Dataflow g = random_dag(rng);
    const int n = g.node_count();
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<bool> mapped = random_mask(rng, n);
      const int start = static_cast<int>(rng.uniform_int(0, n - 1));
      mapped[static_cast<size_t>(start)] = false;
      std::set<std::vector<int>> expected;
      for (const std::vector<int>& set : connected_sets(g, start, mapped, 4)) {
        EXPECT_EQ(g.is_convex(set), reference_convex(g, set)) << "seed " << seed;
        if (reference_convex(g, set)) expected.insert(set);
      }
      std::set<std::vector<int>> got;
      for (std::vector<int> s : g.extend_subgraphs(start, mapped, 4)) {
        std::sort(s.begin(), s.end());
        got.insert(std::move(s));
      }
      EXPECT_EQ(got, expected) << "seed " << seed << " start " << start;
    }
    // Arbitrary, possibly disconnected, member sets.
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<int> set;
      const std::vector<bool> pick = random_mask(rng, n);
      for (int i = 0; i < n; ++i) {
        if (pick[static_cast<size_t>(i)]) set.push_back(i);
      }
      if (set.empty()) continue;
      EXPECT_EQ(g.is_convex(set), reference_convex(g, set)) << "seed " << seed;
    }
  }
}

TEST(Dataflow, TopLeftNodeIsFirstUnmappedIndexOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const Dataflow g = random_dag(rng);
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<bool> mapped = random_mask(rng, g.node_count());
      const auto first = std::find(mapped.begin(), mapped.end(), false);
      const int expected = first == mapped.end()
                               ? -1
                               : static_cast<int>(first - mapped.begin());
      EXPECT_EQ(g.top_left_node(mapped), expected) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Region discovery on the Figure 4 model
// ---------------------------------------------------------------------------

TEST(Regions, Fig4FormsOneRegionOfFiveNodes) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].graph.node_count(), 5);
  EXPECT_EQ(regions[0].graph.length(), 8);
  EXPECT_EQ(regions[0].graph.data_bit_width(), 32);
  // Externals: a, b, c, d.
  EXPECT_EQ(regions[0].graph.externals().size(), 4u);
  // Outputs: Shr and Add2 leave the region (feed Outports).
  EXPECT_EQ(regions[0].graph.outputs().size(), 2u);
}

TEST(Regions, Fig4GraphStructureMatchesPaper) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  const BatchRegion& r = regions[0];
  const Dataflow& g = r.graph;

  const int sub = r.node_of.at(m.find_actor("Sub"));
  const int add1 = r.node_of.at(m.find_actor("Add1"));
  const int shr = r.node_of.at(m.find_actor("Shr"));
  const int mul = r.node_of.at(m.find_actor("Mul"));
  const int add2 = r.node_of.at(m.find_actor("Add2"));

  // Sub feeds Add1, Mul and Add2 — three consumers.
  EXPECT_EQ(g.consumers(sub).size(), 3u);
  // Shr's operand is Add1 plus the immediate 1.
  ASSERT_EQ(g.node(shr).operands.size(), 2u);
  EXPECT_EQ(g.node(shr).operands[0], ValueRef::node(add1));
  EXPECT_EQ(g.node(shr).operands[1], ValueRef::immediate(1));
  // Add2 = Sub + Mul.
  EXPECT_EQ(g.node(add2).operands[0], ValueRef::node(sub));
  EXPECT_EQ(g.node(add2).operands[1], ValueRef::node(mul));
}

TEST(Regions, TopLeftNodeFollowsReadiness) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  const Dataflow& g = regions[0].graph;
  std::vector<bool> mapped(static_cast<size_t>(g.node_count()), false);
  // First ready node is Sub (the only node with no node-operands at start
  // that precedes the others in firing order).
  const int first = g.top_left_node(mapped);
  EXPECT_EQ(g.node(first).op, BatchOp::kSub);
  // After mapping everything, -1.
  std::fill(mapped.begin(), mapped.end(), true);
  EXPECT_EQ(g.top_left_node(mapped), -1);
}

TEST(Regions, ExtendSubgraphsFromSubMatchesPaperNarrative) {
  // Paper: "three subgraphs will be extended from the Sub node ... which are
  // Sub-Mul, Sub-Add and Sub" (with max 2 nodes).
  Model m = fig4();
  auto regions = fig4_regions(m);
  const Dataflow& g = regions[0].graph;
  std::vector<bool> mapped(static_cast<size_t>(g.node_count()), false);
  const int sub = g.top_left_node(mapped);

  auto subgraphs = g.extend_subgraphs(sub, mapped, 2);
  // Exactly the paper's three: {Sub, Mul}, {Sub, Add1} and {Sub} —
  // {Sub, Add2} is rejected as non-convex (the path Sub -> Mul -> Add2
  // re-enters through the non-member Mul).
  EXPECT_EQ(subgraphs.size(), 3u);
  int singletons = 0, pairs = 0;
  for (const auto& s : subgraphs) {
    if (s.size() == 1) ++singletons;
    if (s.size() == 2) ++pairs;
    // A unique sink sits last; multi-sink candidates report -1 and are
    // discarded later by the interior-privacy check.
    const int sink = g.sink_of(s);
    EXPECT_TRUE(sink == s.back() || sink == -1);
  }
  EXPECT_EQ(singletons, 1);
  EXPECT_EQ(pairs, 2);
  // Cost ordering: multi-node subgraphs come before the singleton.
  EXPECT_GT(subgraphs.front().size(), 1u);
  EXPECT_EQ(subgraphs.back().size(), 1u);
}

TEST(Regions, InteriorPrivacyRejectsFanoutFusion) {
  // {Sub, Mul}: Sub's value is also needed by Add1 and Add2 outside, so the
  // pair cannot be fused into one instruction.
  Model m = fig4();
  auto regions = fig4_regions(m);
  const BatchRegion& r = regions[0];
  const Dataflow& g = r.graph;
  const int sub = r.node_of.at(m.find_actor("Sub"));
  const int mul = r.node_of.at(m.find_actor("Mul"));
  EXPECT_FALSE(g.interior_values_private({sub, mul}));
  // {Mul, Add2} is fine: Mul feeds only Add2.
  const int add2 = r.node_of.at(m.find_actor("Add2"));
  EXPECT_TRUE(g.interior_values_private({mul, add2}));
}

TEST(Regions, IndependenceRequiresMappedExternalsOnly) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  const BatchRegion& r = regions[0];
  const Dataflow& g = r.graph;
  const int sub = r.node_of.at(m.find_actor("Sub"));
  const int add1 = r.node_of.at(m.find_actor("Add1"));
  const int shr = r.node_of.at(m.find_actor("Shr"));

  std::vector<bool> mapped(static_cast<size_t>(g.node_count()), false);
  // {Add1, Shr} depends on Sub, which is not yet generated.
  EXPECT_FALSE(g.is_independent({add1, shr}, mapped));
  mapped[static_cast<size_t>(sub)] = true;
  EXPECT_TRUE(g.is_independent({add1, shr}, mapped));
}

TEST(Regions, ConvexityDetectsReentrantPaths) {
  Model m = fig4();
  auto regions = fig4_regions(m);
  const BatchRegion& r = regions[0];
  const Dataflow& g = r.graph;
  const int sub = r.node_of.at(m.find_actor("Sub"));
  const int add1 = r.node_of.at(m.find_actor("Add1"));
  const int shr = r.node_of.at(m.find_actor("Shr"));
  const int mul = r.node_of.at(m.find_actor("Mul"));
  const int add2 = r.node_of.at(m.find_actor("Add2"));

  // {Sub, Add2} has a path Sub -> Mul -> Add2 through the non-member Mul.
  EXPECT_FALSE(g.is_convex({sub, add2}));
  EXPECT_TRUE(g.is_convex({sub, mul, add2}));
  EXPECT_TRUE(g.is_convex({add1, shr}));
}

// ---------------------------------------------------------------------------
// Region grouping rules
// ---------------------------------------------------------------------------

TEST(Regions, DifferentLengthsSplitRegions) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({16}));
  PortRef y = b.inport("y", DataType::kFloat32, Shape({8}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef c = b.actor("c", "Abs", {y});
  b.outport("oa", a);
  b.outport("oc", c);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  EXPECT_EQ(regions.size(), 2u);
}

TEST(Regions, DifferentBitWidthsSplitRegions) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kInt16, Shape({16}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef c = b.actor("c", "Cast", {a}, {{"to", "i32"}});  // width change
  PortRef d = b.actor("d", "Abs", {c});
  b.outport("o", d);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  // The widening Cast cannot join either side; a and d are separate regions.
  for (const auto& r : regions) {
    for (ActorId id : r.actors) {
      EXPECT_NE(m.actor(id).type(), "Cast");
    }
  }
  EXPECT_EQ(regions.size(), 2u);
}

TEST(Regions, SameWidthCastJoinsRegion) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({16}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef c = b.actor("c", "Cast", {a}, {{"to", "i32"}});  // 32 -> 32 bits
  PortRef d = b.actor("d", "BitNot", {c});
  b.outport("o", d);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].actors.size(), 3u);
}

TEST(Regions, UnsupportedOpsAreExcluded) {
  class NoMul final : public OpSupport {
   public:
    bool supports(BatchOp op, DataType in, DataType out) const override {
      return op != BatchOp::kMul && AllOpsSupport().supports(op, in, out);
    }
  };
  Model m = resolved(benchmodels::fir_model(64));  // Mul then Add
  auto regions = find_batch_regions(m, NoMul());
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(m.actor(regions[0].actors[0]).type(), "Add");
}

TEST(Regions, ScalarActorsNeverJoinRegions) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({}));  // scalar
  PortRef a = b.actor("a", "Abs", {x});
  b.outport("o", a);
  Model m = resolved(b.take());
  EXPECT_TRUE(find_batch_regions(m, AllOpsSupport()).empty());
}

TEST(Regions, NonConvexComponentIsSplit) {
  // batch -> intensive -> batch, where the two batch actors are also wired
  // directly: one connected component whose fusion would trap the DCT.
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({16}));
  PortRef a = b.actor("a", "Abs", {x});
  PortRef t = b.actor("t", "DCT", {a});
  PortRef s = b.actor("s", "Add", {a, t});
  b.outport("o", s);
  Model m = resolved(b.take());
  auto regions = find_batch_regions(m, AllOpsSupport());
  // 'a' and 's' must end up in different regions despite being connected.
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_NO_THROW(emission_order(m, regions));
}

// ---------------------------------------------------------------------------
// Emission order
// ---------------------------------------------------------------------------

TEST(EmissionOrder, RegionsEmitAfterProducersBeforeConsumers) {
  Model m = resolved(benchmodels::highpass_model(64));
  auto regions = find_batch_regions(m, AllOpsSupport());
  ASSERT_EQ(regions.size(), 1u);
  auto order = emission_order(m, regions);

  int region_pos = -1, inport_pos = -1, outport_pos = -1;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i].region == 0) region_pos = static_cast<int>(i);
    if (order[i].actor == m.find_actor("x")) inport_pos = static_cast<int>(i);
    if (order[i].actor == m.find_actor("y")) outport_pos = static_cast<int>(i);
  }
  ASSERT_NE(region_pos, -1);
  EXPECT_LT(inport_pos, region_pos);
  EXPECT_GT(outport_pos, region_pos);
}

TEST(EmissionOrder, CoversEveryActorExactlyOnce) {
  Model m = resolved(benchmodels::paper_fig4_model(16));
  auto regions = find_batch_regions(m, AllOpsSupport());
  auto order = emission_order(m, regions);
  int actors_covered = 0;
  for (const EmissionItem& item : order) {
    if (item.actor != kNoActor) {
      ++actors_covered;
    } else {
      actors_covered += static_cast<int>(
          regions[static_cast<size_t>(item.region)].actors.size());
    }
  }
  EXPECT_EQ(actors_covered, m.actor_count());
}

}  // namespace
}  // namespace hcg
