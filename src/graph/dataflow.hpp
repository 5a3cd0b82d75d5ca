// The directed dataflow graph of a batch-computing region (paper §3.2.2).
//
// Nodes are element-wise operations; operands are either results of other
// nodes, external arrays entering the region, scalar constants (Gain/Bias
// coefficients, broadcast into a vector register), or immediates (shift
// amounts, baked into the instruction encoding).
#pragma once

#include <string>
#include <vector>

#include "actors/batch_op.hpp"
#include "model/model.hpp"

namespace hcg {

/// One operand of a dataflow node.
struct ValueRef {
  enum class Kind : std::uint8_t {
    kNode,         // result of another node in the same graph
    kExternal,     // array produced outside the region (loaded via vld)
    kScalarConst,  // scalar constant, broadcast via vdup
    kImmediate,    // compile-time literal baked into the instruction
  };

  Kind kind = Kind::kExternal;
  int index = -1;     // node index (kNode) or external index (kExternal)
  double scalar = 0;  // kScalarConst payload
  long long imm = 0;  // kImmediate payload

  static ValueRef node(int index) {
    return ValueRef{Kind::kNode, index, 0, 0};
  }
  static ValueRef external(int index) {
    return ValueRef{Kind::kExternal, index, 0, 0};
  }
  static ValueRef scalar_const(double value) {
    return ValueRef{Kind::kScalarConst, -1, value, 0};
  }
  static ValueRef immediate(long long value) {
    return ValueRef{Kind::kImmediate, -1, 0, value};
  }

  bool operator==(const ValueRef&) const = default;
};

/// One element-wise operation.
struct DfgNode {
  BatchOp op = BatchOp::kAdd;
  std::vector<ValueRef> operands;
  DataType out_type = DataType::kFloat32;  // differs across Cast nodes
  ActorId actor = kNoActor;                // originating model actor
};

/// An array flowing into the region from outside.
struct DfgExternal {
  ActorId src = kNoActor;  // producing actor (Inport/Constant/non-batch/...)
  int src_port = 0;
  DataType type = DataType::kFloat32;
};

class Dataflow {
 public:
  Dataflow(int length, int data_bit_width)
      : length_(length), bit_width_(data_bit_width) {}

  /// Array length (elements) shared by every signal in the region.
  int length() const { return length_; }
  /// Element bit width shared by every signal in the region.
  int data_bit_width() const { return bit_width_; }

  int add_external(DfgExternal external);
  int add_node(DfgNode node);

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const DfgNode& node(int index) const { return nodes_.at(static_cast<size_t>(index)); }
  const std::vector<DfgNode>& nodes() const { return nodes_; }
  const std::vector<DfgExternal>& externals() const { return externals_; }

  /// Marks a node's result as leaving the region (needs a vector store).
  void mark_output(int node_index);
  const std::vector<int>& outputs() const { return outputs_; }
  bool is_output(int node_index) const;

  /// Node indices that consume `node_index`'s result (deduplicated,
  /// ascending; maintained incrementally by add_node).
  const std::vector<int>& consumers(int node_index) const;

  /// The "topmost and leftmost" unmapped node (Algorithm 2 line 12): the
  /// lowest-index node whose node-operands are all in `mapped`.
  /// Returns -1 when every node is mapped.  Because add_node numbers nodes
  /// in dependency order, this is always the first unmapped index — which
  /// is what lets Algorithm 2 advance a cursor instead of calling this.
  int top_left_node(const std::vector<bool>& mapped) const;

  /// extendGraphs (Algorithm 2 line 13): all *convex* connected subgraphs of
  /// unmapped nodes containing `seed`, with at most `max_nodes` nodes,
  /// sorted by descending computational cost.  Each subgraph is a list of
  /// node indices with its sink (the value an instruction would produce)
  /// last; candidates without a unique sink are still enumerated — they are
  /// discarded later by matching / interior-privacy, mirroring the paper.
  std::vector<std::vector<int>> extend_subgraphs(
      int seed, const std::vector<bool>& mapped, int max_nodes) const;

  /// The unique sink of `subgraph` (the only member whose result is used
  /// outside it or is a region output); -1 if not unique.
  int sink_of(const std::vector<int>& subgraph) const;

  /// Convexity (paper: "nodes do not indirectly depend on the results of its
  /// own nodes"): no path between two members passes through a non-member.
  /// Only non-members numbered below the largest member are visited.
  bool is_convex(const std::vector<int>& subgraph) const;

  /// Independence (Algorithm 2 line 15): every node-operand entering the
  /// subgraph from outside has already been generated (is in `mapped`).
  bool is_independent(const std::vector<int>& subgraph,
                      const std::vector<bool>& mapped) const;

  /// Interior check: every member other than the sink is consumed only by
  /// members (fusing would otherwise lose a value other consumers need).
  bool interior_values_private(const std::vector<int>& subgraph) const;

  /// Computational cost of a subgraph (sum of per-op costs; higher-cost
  /// subgraphs are matched first, Algorithm 2's ordering rule).
  int cost(const std::vector<int>& subgraph) const;

  /// Human-readable dump for diagnostics and tests.
  std::string to_string() const;

 private:
  int length_;
  int bit_width_;
  std::vector<DfgNode> nodes_;
  std::vector<std::vector<int>> consumers_;  // use lists, parallel to nodes_
  std::vector<DfgExternal> externals_;
  std::vector<int> outputs_;
};

/// Per-op cost heuristic used for subgraph ordering.
int op_cost(BatchOp op);

}  // namespace hcg
