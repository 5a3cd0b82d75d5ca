#include "graph/dataflow.hpp"

#include <algorithm>
#include <set>

#include "support/error.hpp"

namespace hcg {

int op_cost(BatchOp op) {
  switch (op) {
    case BatchOp::kDiv:
    case BatchOp::kRecp:
    case BatchOp::kSqrt:
      return 4;
    case BatchOp::kMul:
    case BatchOp::kMulC:
      return 2;
    default:
      return 1;
  }
}

int Dataflow::add_external(DfgExternal external) {
  externals_.push_back(external);
  return static_cast<int>(externals_.size()) - 1;
}

int Dataflow::add_node(DfgNode node) {
  for (const ValueRef& operand : node.operands) {
    if (operand.kind == ValueRef::Kind::kNode) {
      require(operand.index >= 0 && operand.index < node_count(),
              "DfgNode operand references a later node (graph must be "
              "topologically ordered)");
    }
    if (operand.kind == ValueRef::Kind::kExternal) {
      require(operand.index >= 0 &&
                  operand.index < static_cast<int>(externals_.size()),
              "DfgNode operand references an unknown external");
    }
  }
  const int index = node_count();
  for (const ValueRef& operand : node.operands) {
    if (operand.kind != ValueRef::Kind::kNode) continue;
    std::vector<int>& uses = consumers_[static_cast<size_t>(operand.index)];
    if (uses.empty() || uses.back() != index) uses.push_back(index);
  }
  nodes_.push_back(std::move(node));
  consumers_.emplace_back();
  return index;
}

void Dataflow::mark_output(int node_index) {
  require(node_index >= 0 && node_index < node_count(),
          "mark_output: bad node index");
  if (!is_output(node_index)) outputs_.push_back(node_index);
}

bool Dataflow::is_output(int node_index) const {
  return std::find(outputs_.begin(), outputs_.end(), node_index) !=
         outputs_.end();
}

const std::vector<int>& Dataflow::consumers(int node_index) const {
  return consumers_.at(static_cast<size_t>(node_index));
}

int Dataflow::top_left_node(const std::vector<bool>& mapped) const {
  for (int i = 0; i < node_count(); ++i) {
    if (mapped[static_cast<size_t>(i)]) continue;
    bool ready = true;
    for (const ValueRef& operand : nodes_[static_cast<size_t>(i)].operands) {
      if (operand.kind == ValueRef::Kind::kNode &&
          !mapped[static_cast<size_t>(operand.index)]) {
        ready = false;
        break;
      }
    }
    if (ready) return i;
  }
  return -1;
}

int Dataflow::sink_of(const std::vector<int>& subgraph) const {
  const std::set<int> members(subgraph.begin(), subgraph.end());
  int sink = -1;
  for (int m : subgraph) {
    bool escapes = is_output(m);
    for (int c : consumers(m)) {
      if (!members.count(c)) escapes = true;
    }
    // A node consumed by nothing at all is also a sink of the subgraph.
    if (consumers(m).empty() && !escapes) escapes = true;
    if (escapes) {
      if (sink != -1) return -1;
      sink = m;
    }
  }
  return sink;
}

bool Dataflow::is_convex(const std::vector<int>& subgraph) const {
  if (subgraph.empty()) return true;
  const std::set<int> members(subgraph.begin(), subgraph.end());
  // Edges only run from lower to higher indices (add_node), so a node
  // numbered above the largest member can never lead back into the
  // subgraph: the forward walk stops there.
  const int last = *members.rbegin();
  // For every member, walk forward through non-members; if we re-enter the
  // subgraph the set is non-convex.
  for (int start : subgraph) {
    std::vector<int> stack;
    std::set<int> visited;
    for (int c : consumers(start)) {
      if (c < last && !members.count(c)) stack.push_back(c);
    }
    while (!stack.empty()) {
      int n = stack.back();
      stack.pop_back();
      if (!visited.insert(n).second) continue;
      for (int c : consumers(n)) {
        if (members.count(c)) return false;
        if (c < last) stack.push_back(c);
      }
    }
  }
  return true;
}

bool Dataflow::is_independent(const std::vector<int>& subgraph,
                              const std::vector<bool>& mapped) const {
  const std::set<int> members(subgraph.begin(), subgraph.end());
  for (int m : subgraph) {
    for (const ValueRef& operand : nodes_[static_cast<size_t>(m)].operands) {
      if (operand.kind != ValueRef::Kind::kNode) continue;
      if (members.count(operand.index)) continue;
      if (!mapped[static_cast<size_t>(operand.index)]) return false;
    }
  }
  return true;
}

bool Dataflow::interior_values_private(const std::vector<int>& subgraph) const {
  const std::set<int> members(subgraph.begin(), subgraph.end());
  const int sink = sink_of(subgraph);
  for (int m : subgraph) {
    if (m == sink) continue;
    if (is_output(m)) return false;
    for (int c : consumers(m)) {
      if (!members.count(c)) return false;
    }
  }
  return true;
}

int Dataflow::cost(const std::vector<int>& subgraph) const {
  int total = 0;
  for (int m : subgraph) total += op_cost(nodes_[static_cast<size_t>(m)].op);
  return total;
}

std::vector<std::vector<int>> Dataflow::extend_subgraphs(
    int seed, const std::vector<bool>& mapped, int max_nodes) const {
  require(seed >= 0 && seed < node_count(), "extend_subgraphs: bad seed");

  // Undirected adjacency over unmapped nodes.
  auto neighbours = [&](int n) {
    std::vector<int> out;
    for (const ValueRef& operand : nodes_[static_cast<size_t>(n)].operands) {
      if (operand.kind == ValueRef::Kind::kNode &&
          !mapped[static_cast<size_t>(operand.index)]) {
        out.push_back(operand.index);
      }
    }
    for (int c : consumers(n)) {
      if (!mapped[static_cast<size_t>(c)]) out.push_back(c);
    }
    return out;
  };

  std::set<std::vector<int>> seen;
  std::vector<std::vector<int>> result;
  std::vector<std::vector<int>> frontier = {{seed}};
  seen.insert({seed});
  result.push_back({seed});

  while (!frontier.empty()) {
    std::vector<std::vector<int>> next;
    for (const std::vector<int>& s : frontier) {
      if (static_cast<int>(s.size()) >= max_nodes) continue;
      for (int m : s) {
        for (int nb : neighbours(m)) {
          if (std::find(s.begin(), s.end(), nb) != s.end()) continue;
          std::vector<int> grown = s;
          grown.push_back(nb);
          std::sort(grown.begin(), grown.end());
          if (!seen.insert(grown).second) continue;
          next.push_back(grown);
          result.push_back(grown);
        }
      }
    }
    frontier = std::move(next);
  }

  // Keep every convex candidate — the paper discards unmatchable subgraphs
  // at instruction-matching time, not during extension.  (Independence and
  // interior-privacy are checked by the synthesis loop because they depend
  // on the evolving mapped set.)  When the subgraph has a unique sink it
  // goes last so callers can treat s.back() as the produced value; a
  // multi-sink subgraph keeps its topologically-last member there and will
  // fail the interior-privacy check downstream.
  std::vector<std::vector<int>> filtered;
  for (std::vector<int>& s : result) {
    if (!is_convex(s)) continue;
    int sink = sink_of(s);
    if (sink == -1) sink = *std::max_element(s.begin(), s.end());
    s.erase(std::remove(s.begin(), s.end(), sink), s.end());
    s.push_back(sink);
    filtered.push_back(std::move(s));
  }

  // Higher computational cost first; ties: more nodes first, then stable by
  // member indices for determinism.
  std::stable_sort(filtered.begin(), filtered.end(),
                   [&](const std::vector<int>& a, const std::vector<int>& b) {
                     const int ca = cost(a), cb = cost(b);
                     if (ca != cb) return ca > cb;
                     if (a.size() != b.size()) return a.size() > b.size();
                     return a < b;
                   });
  return filtered;
}

std::string Dataflow::to_string() const {
  std::string out = "dataflow(length=" + std::to_string(length_) +
                    ", bits=" + std::to_string(bit_width_) + ")\n";
  for (int i = 0; i < node_count(); ++i) {
    const DfgNode& n = nodes_[static_cast<size_t>(i)];
    out += "  n" + std::to_string(i) + " = " + std::string(op_name(n.op)) + "(";
    for (size_t j = 0; j < n.operands.size(); ++j) {
      if (j > 0) out += ", ";
      const ValueRef& v = n.operands[j];
      switch (v.kind) {
        case ValueRef::Kind::kNode: out += "n" + std::to_string(v.index); break;
        case ValueRef::Kind::kExternal: out += "x" + std::to_string(v.index); break;
        case ValueRef::Kind::kScalarConst: out += "c:" + std::to_string(v.scalar); break;
        case ValueRef::Kind::kImmediate: out += "#" + std::to_string(v.imm); break;
      }
    }
    out += ") : " + std::string(short_name(n.out_type));
    if (is_output(i)) out += "  -> store";
    out += "\n";
  }
  return out;
}

}  // namespace hcg
