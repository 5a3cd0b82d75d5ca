#include "graph/regions.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>

#include "actors/catalog.hpp"
#include "model/schedule.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace hcg {

bool AllOpsSupport::supports(BatchOp op, DataType in, DataType out) const {
  if (op == BatchOp::kCast) {
    return !is_complex(in) && !is_complex(out);
  }
  return op_supports_type(op, out);
}

namespace {

/// A batch actor is a region candidate if its op is SIMD-implementable and
/// its input/output arrays share one element count and bit width.
bool is_region_candidate(const Model& model, ActorId id,
                         const OpSupport& support) {
  if (classify(model, id) != ActorKind::kBatch) return false;
  const Actor& actor = model.actor(id);
  const BatchOp op = batch_op_for_actor_type(actor.type());
  const PortSpec& out = actor.output(0);
  for (int port = 0; port < actor.input_count(); ++port) {
    const PortSpec& in = actor.input(port);
    if (bit_width(in.type) != bit_width(out.type)) return false;
    if (in.shape.elements() != out.shape.elements()) return false;
  }
  return support.supports(op, actor.input(0).type, out.type);
}

struct Signature {
  int elements;
  int bits;
  bool operator==(const Signature&) const = default;
};

Signature signature_of(const Actor& actor) {
  return Signature{actor.output(0).shape.elements(),
                   bit_width(actor.output(0).type)};
}

/// The op/type/actor skeleton of a dataflow node, before operands.
DfgNode make_batch_node(const Model& model, ActorId id) {
  const Actor& actor = model.actor(id);
  DfgNode node;
  node.op = batch_op_for_actor_type(actor.type());
  node.out_type = actor.output(0).type;
  node.actor = id;
  return node;
}

/// Appends the trailing non-wire operand some ops carry: MulC's gain,
/// AddC's bias, or a shift's immediate amount.
void append_parameter_operand(const Actor& actor, DfgNode& node) {
  if (node.op == BatchOp::kMulC) {
    node.operands.push_back(
        ValueRef::scalar_const(parse_double(actor.param("gain"))));
  } else if (node.op == BatchOp::kAddC) {
    node.operands.push_back(
        ValueRef::scalar_const(parse_double(actor.param("bias"))));
  } else if (has_immediate(node.op)) {
    node.operands.push_back(ValueRef::immediate(actor.int_param("amount")));
  }
}

}  // namespace

std::vector<BatchRegion> find_batch_regions(const Model& model,
                                            const OpSupport& support) {
  const std::vector<ActorId> order = schedule(model);

  std::vector<bool> candidate(static_cast<size_t>(model.actor_count()), false);
  for (const Actor& actor : model.actors()) {
    candidate[static_cast<size_t>(actor.id())] =
        is_region_candidate(model, actor.id(), support);
  }

  // Union-find over candidates connected by a wire, same signature.
  std::vector<int> parent(static_cast<size_t>(model.actor_count()));
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const Connection& c : model.connections()) {
    if (!candidate[static_cast<size_t>(c.src)] ||
        !candidate[static_cast<size_t>(c.dst)]) {
      continue;
    }
    if (!(signature_of(model.actor(c.src)) == signature_of(model.actor(c.dst)))) {
      continue;
    }
    parent[static_cast<size_t>(find(c.src))] = find(c.dst);
  }

  // Group members per root, keeping firing order.
  std::map<int, std::vector<ActorId>> groups;
  for (ActorId id : order) {
    if (candidate[static_cast<size_t>(id)]) groups[find(id)].push_back(id);
  }

  // ---- convexification ----------------------------------------------------
  // A region must be emittable as one code block, so no dependency path may
  // leave the region and re-enter it.  Offending groups lose their last
  // member (which becomes its own group) until convex; remainders are
  // re-split into connected pieces.
  auto group_is_convex = [&](const std::vector<ActorId>& members) {
    const std::set<ActorId> member_set(members.begin(), members.end());
    for (ActorId start : members) {
      std::vector<ActorId> stack;
      std::set<ActorId> visited;
      for (const Connection& c : model.outgoing_all(start)) {
        if (!member_set.count(c.dst)) stack.push_back(c.dst);
      }
      while (!stack.empty()) {
        ActorId n = stack.back();
        stack.pop_back();
        if (!visited.insert(n).second) continue;
        if (member_set.count(n)) return false;
        if (is_delay_type(model.actor(n).type())) continue;
        for (const Connection& c : model.outgoing_all(n)) {
          if (member_set.count(c.dst)) return false;
          stack.push_back(c.dst);
        }
      }
    }
    return true;
  };

  auto connected_pieces = [&](const std::vector<ActorId>& members) {
    std::vector<std::vector<ActorId>> pieces;
    const std::set<ActorId> member_set(members.begin(), members.end());
    std::set<ActorId> assigned;
    for (ActorId seed : members) {
      if (assigned.count(seed)) continue;
      std::set<ActorId> piece;
      std::vector<ActorId> stack{seed};
      while (!stack.empty()) {
        ActorId n = stack.back();
        stack.pop_back();
        if (!piece.insert(n).second) continue;
        for (const Connection& c : model.outgoing_all(n)) {
          if (member_set.count(c.dst) && !piece.count(c.dst)) {
            stack.push_back(c.dst);
          }
        }
        for (const Connection& c : model.incoming_all(n)) {
          if (member_set.count(c.src) && !piece.count(c.src)) {
            stack.push_back(c.src);
          }
        }
      }
      std::vector<ActorId> ordered_piece;
      for (ActorId id : members) {
        if (piece.count(id)) ordered_piece.push_back(id);
      }
      for (ActorId id : ordered_piece) assigned.insert(id);
      pieces.push_back(std::move(ordered_piece));
    }
    return pieces;
  };

  std::vector<std::vector<ActorId>> final_groups;
  std::vector<std::vector<ActorId>> work;
  for (auto& [root, members] : groups) {
    (void)root;
    work.push_back(members);
  }
  while (!work.empty()) {
    std::vector<ActorId> members = std::move(work.back());
    work.pop_back();
    if (members.size() <= 1 || group_is_convex(members)) {
      final_groups.push_back(std::move(members));
      continue;
    }
    std::vector<ActorId> last{members.back()};
    members.pop_back();
    final_groups.push_back(std::move(last));
    for (auto& piece : connected_pieces(members)) work.push_back(std::move(piece));
  }

  std::vector<BatchRegion> regions;
  // Deterministic region order: by first actor's firing position.
  std::vector<int> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    position[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  std::vector<std::pair<int, std::vector<ActorId>>> ordered;
  for (auto& members : final_groups) {
    const int first_pos = position[static_cast<size_t>(members.front())];
    ordered.emplace_back(first_pos, std::move(members));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (auto& [pos, members] : ordered) {
    (void)pos;
    const Actor& first = model.actor(members.front());
    const Signature sig = signature_of(first);
    BatchRegion region{.actors = members,
                       .node_of = {},
                       .graph = Dataflow(sig.elements, sig.bits)};

    std::map<std::pair<ActorId, int>, int> external_of;
    auto external_index = [&](ActorId src, int port) {
      auto key = std::make_pair(src, port);
      auto it = external_of.find(key);
      if (it != external_of.end()) return it->second;
      DfgExternal ext{.src = src,
                      .src_port = port,
                      .type = model.actor(src).output(port).type};
      int index = region.graph.add_external(ext);
      external_of.emplace(key, index);
      return index;
    };

    const std::set<ActorId> member_set(members.begin(), members.end());
    for (ActorId id : members) {
      const Actor& actor = model.actor(id);
      DfgNode node = make_batch_node(model, id);

      for (int port = 0; port < actor.input_count(); ++port) {
        const Connection conn = *model.incoming(id, port);
        if (member_set.count(conn.src)) {
          node.operands.push_back(
              ValueRef::node(region.node_of.at(conn.src)));
        } else {
          node.operands.push_back(
              ValueRef::external(external_index(conn.src, conn.src_port)));
        }
      }
      append_parameter_operand(actor, node);

      region.node_of[id] = region.graph.add_node(std::move(node));
    }

    // Outputs: any member result consumed outside the region.
    for (ActorId id : members) {
      for (const Connection& c : model.outgoing(id, 0)) {
        if (!member_set.count(c.dst)) {
          region.graph.mark_output(region.node_of.at(id));
          break;
        }
      }
    }

    regions.push_back(std::move(region));
  }
  return regions;
}

BatchRegion singleton_batch_region(const Model& model, ActorId id) {
  const Actor& actor = model.actor(id);
  BatchRegion region{{id},
                     {},
                     Dataflow(actor.output(0).shape.elements(),
                              bit_width(actor.output(0).type))};

  std::map<std::pair<ActorId, int>, int> external_of;
  DfgNode node = make_batch_node(model, id);
  for (int port = 0; port < actor.input_count(); ++port) {
    const Connection conn = *model.incoming(id, port);
    const auto key = std::make_pair(conn.src, conn.src_port);
    auto it = external_of.find(key);
    if (it == external_of.end()) {
      DfgExternal ext{conn.src, conn.src_port,
                      model.actor(conn.src).output(conn.src_port).type};
      it = external_of.emplace(key, region.graph.add_external(ext)).first;
    }
    node.operands.push_back(ValueRef::external(it->second));
  }
  append_parameter_operand(actor, node);
  region.node_of[id] = region.graph.add_node(std::move(node));
  region.graph.mark_output(0);
  return region;
}

RegionVectorPlan plan_region_vectorization(const BatchRegion& region,
                                           const VectorCapability& capability,
                                           int min_nodes_for_simd) {
  RegionVectorPlan plan;
  const Dataflow& graph = region.graph;
  plan.lanes = capability.width_bits / graph.data_bit_width();
  if (plan.lanes <= 0) return plan;

  // A region is predicated when the table covers every node type with the
  // scalable predicate kit; the loop then handles any length >= 1 with no
  // remainder, so the fixed-width batch_count >= 1 early exit does not
  // apply.  batch_count/offset become granule-width estimates for sizing
  // and reporting only.
  bool predicated = true;
  for (const DfgNode& node : graph.nodes()) {
    if (!capability.predicated_of || !capability.predicated_of(node.out_type)) {
      predicated = false;
      break;
    }
  }

  plan.predicated = predicated;
  if (predicated) {
    plan.batch_count = (graph.length() + plan.lanes - 1) / plan.lanes;
    plan.offset = 0;
    if (graph.length() < 1 || graph.node_count() < min_nodes_for_simd) {
      return plan;
    }
  } else {
    plan.batch_count = graph.length() / plan.lanes;
    plan.offset = graph.length() % plan.lanes;
    if (plan.batch_count < 1 || graph.node_count() < min_nodes_for_simd) {
      return plan;
    }
  }
  for (const DfgNode& node : graph.nodes()) {
    if (capability.lanes_of(node.out_type) != plan.lanes) return plan;
  }
  plan.viable = true;
  return plan;
}

std::vector<EmissionItem> emission_order(
    const Model& model, const std::vector<BatchRegion>& regions) {
  // Contracted graph: each region is one item, every other actor its own.
  const int n = model.actor_count();
  std::vector<int> item_of(static_cast<size_t>(n), -1);
  std::vector<EmissionItem> items;
  for (size_t r = 0; r < regions.size(); ++r) {
    items.push_back(EmissionItem{kNoActor, static_cast<int>(r)});
    for (ActorId id : regions[r].actors) {
      item_of[static_cast<size_t>(id)] = static_cast<int>(items.size()) - 1;
    }
  }
  for (ActorId id = 0; id < n; ++id) {
    if (item_of[static_cast<size_t>(id)] != -1) continue;
    items.push_back(EmissionItem{id, -1});
    item_of[static_cast<size_t>(id)] = static_cast<int>(items.size()) - 1;
  }

  // Distinct contracted edges as per-item successor lists.
  std::vector<std::vector<int>> successors(items.size());
  for (const Connection& c : model.connections()) {
    if (is_delay_type(model.actor(c.src).type())) continue;
    const int a = item_of[static_cast<size_t>(c.src)];
    const int b = item_of[static_cast<size_t>(c.dst)];
    if (a != b) successors[static_cast<size_t>(a)].push_back(b);
  }
  std::vector<int> pending(items.size(), 0);
  for (std::vector<int>& next : successors) {
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    for (int b : next) ++pending[static_cast<size_t>(b)];
  }

  // Kahn's algorithm, smallest item first.
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (size_t i = 0; i < items.size(); ++i) {
    if (pending[i] == 0) ready.push(static_cast<int>(i));
  }
  std::vector<EmissionItem> order;
  while (!ready.empty()) {
    const int item = ready.top();
    ready.pop();
    order.push_back(items[static_cast<size_t>(item)]);
    for (int b : successors[static_cast<size_t>(item)]) {
      if (--pending[static_cast<size_t>(b)] == 0) ready.push(b);
    }
  }
  require(order.size() == items.size(),
          "emission_order: contracted graph is cyclic (non-convex region "
          "survived convexification)");
  return order;
}

}  // namespace hcg
