#include "synth/batch.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"
#include "synth/matcher.hpp"

namespace hcg::synth {

namespace {

class BatchSynthesizer {
 public:
  BatchSynthesizer(const Model& model, const BatchRegion& region,
                   const isa::VectorIsa& isa, const BufferNameFn& buffer_name,
                   const BatchOptions& options, int indent)
      : model_(model),
        region_(region),
        graph_(region.graph),
        isa_(isa),
        buffer_name_(buffer_name),
        options_(options),
        pad_(static_cast<size_t>(indent) * 2, ' ') {}

  BatchSynthResult run() {
    HCG_TRACE_SCOPE("synth.batch");
    static obs::Counter& regions_metric =
        obs::Registry::instance().counter("batch.regions");
    static obs::Counter& simd_metric =
        obs::Registry::instance().counter("batch.simd_regions");
    static obs::Counter& scalar_metric =
        obs::Registry::instance().counter("batch.scalar_fallbacks");
    regions_metric.add();
    BatchSynthResult result;

    // Algorithm 2 lines 1-4: batch size / batch count — the same early
    // exits the emitter's buffer planner mirrors via the shared helper.
    const RegionVectorPlan plan = plan_region_vectorization(
        region_, isa_.capability(), options_.min_nodes_for_simd);
    result.batch_size = plan.lanes;
    result.batch_count = plan.batch_count;
    result.offset = plan.offset;
    if (!plan.viable) {
      // BatchCount < 1, the §4.3 threshold, or a node type the table cannot
      // vectorize at this width; conventional translation.
      result.used_simd = false;
      scalar_metric.add();
      return result;
    }
    if (plan.predicated) {
      // Scalable table: one predicated loop covers [0, length).  The region
      // shares one element bit-width, so any member type's predicate kit
      // governs every lane of the loop.
      predicated_ = true;
      pred_ = isa_.find_pred(graph_.node(0).out_type);
      require(pred_ != nullptr, "batch synth: missing predicate after filter");
      result.predicated = true;
      result.step_expr = pred_->vl_expr;
    }

    // Map the dataflow graph onto instructions (lines 10-22).
    std::vector<cgir::Stmt> calc_lines = map_graph(result);

    // Structured bodies: loads, calculations, stores for the vector loop;
    // the element-wise recomputation for the scalar remainder.
    result.vector_body = vector_body(std::move(calc_lines));
    if (result.offset != 0) result.remainder_body = remainder_body();

    // Assemble the text form: remainder first (line 25-26: "added to the
    // front"), then the main vector loop.
    std::string code;
    if (result.offset != 0) {
      code += render_remainder(result.remainder_body, result.offset);
    }
    code += render_loop(result.vector_body, result);
    result.code = std::move(code);
    result.used_simd = true;
    simd_metric.add();
    return result;
  }

 private:
  // ---- naming -------------------------------------------------------------

  std::string node_var(int index) const {
    return sanitize_identifier(
               model_.actor(graph_.node(index).actor).name()) +
           "_b";
  }

  std::string node_scalar_var(int index) const {
    return sanitize_identifier(
               model_.actor(graph_.node(index).actor).name()) +
           "_s";
  }

  std::string external_var(int index) const {
    const DfgExternal& ext = graph_.externals()[static_cast<size_t>(index)];
    std::string base = sanitize_identifier(model_.actor(ext.src).name());
    if (ext.src_port != 0) base += "_" + std::to_string(ext.src_port);
    return base + "_b";
  }

  std::string external_buffer(int index) const {
    const DfgExternal& ext = graph_.externals()[static_cast<size_t>(index)];
    return buffer_name_(ext.src, ext.src_port);
  }

  const isa::VType& vtype_of(DataType type) const {
    const isa::VType* v = isa_.find_vtype(type);
    require(v != nullptr, "batch synth: missing vtype after region filter");
    return *v;
  }

  /// The C expression for a vector operand.
  std::string value_expr(const ValueRef& value) const {
    switch (value.kind) {
      case ValueRef::Kind::kNode:
        return node_var(value.index);
      case ValueRef::Kind::kExternal:
        return external_var(value.index);
      default:
        throw InternalError("value_expr: non-vector operand");
    }
  }

  // ---- graph mapping --------------------------------------------------------

  std::vector<cgir::Stmt> map_graph(BatchSynthResult& result) {
    std::vector<cgir::Stmt> lines;
    std::vector<bool> mapped(static_cast<size_t>(graph_.node_count()), false);
    // Line 12's topmost-leftmost ready node is always the first unmapped
    // index (Dataflow::top_left_node), and every step maps its seed, so one
    // forward sweep visits the seeds in the paper's order in O(n) total.
    for (int seed = 0; seed < graph_.node_count(); ++seed) {
      if (mapped[static_cast<size_t>(seed)]) continue;

      const std::vector<std::vector<int>> subgraphs =
          graph_.extend_subgraphs(seed, mapped, isa_.max_pattern_nodes());

      bool advanced = false;
      for (const std::vector<int>& subgraph : subgraphs) {  // line 14
        if (!graph_.is_independent(subgraph, mapped)) continue;  // 15-16
        if (!graph_.interior_values_private(subgraph)) continue;

        const DfgNode& sink = graph_.node(subgraph.back());
        std::string line;
        std::string ins_name;
        if (subgraph.size() == 1 && sink.op == BatchOp::kCast) {
          line = emit_cvt(subgraph.back());
          ins_name = "cvt";
        } else {
          auto match = find_matching_instruction(graph_, subgraph, isa_);
          if (!match) continue;  // lines 18-19
          line = emit_instruction(subgraph.back(), *match);
          ins_name = match->instruction->name;
        }

        cgir::Stmt stmt = cgir::Stmt::text_line(std::move(line));  // line 20
        stmt.defines = node_var(subgraph.back());
        lines.push_back(std::move(stmt));
        result.instructions_used.push_back(ins_name);
        for (int member : subgraph) {  // line 21: removeNodes
          mapped[static_cast<size_t>(member)] = true;
        }
        advanced = true;
        break;  // line 22
      }
      if (!advanced) {
        throw SynthesisError(
            "batch synthesis: node '" +
            model_.actor(graph_.node(seed).actor).name() +
            "' has no matching SIMD instruction in isa '" + isa_.name + "'");
      }
    }
    return lines;
  }

  std::string emit_instruction(int sink, const InstructionMatch& match) const {
    const isa::Instruction& ins = *match.instruction;
    std::vector<std::pair<std::string, std::string>> repl;
    repl.emplace_back("O", vtype_of(ins.type).c_name + " " + node_var(sink));
    if (predicated_) repl.emplace_back("G", std::string(kPredVar));
    for (const auto& [slot, value] : match.binding.inputs) {
      repl.emplace_back("I" + std::to_string(slot), value_expr(value));
    }
    if (match.binding.has_scalar) {
      repl.emplace_back("C",
                        isa::scalar_literal(ins.type, match.binding.scalar));
    }
    if (match.binding.has_imm) {
      repl.emplace_back("IMM", std::to_string(match.binding.imm));
    }
    return isa::substitute_tokens(ins.code, repl);
  }

  std::string emit_cvt(int node_index) const {
    const DfgNode& node = graph_.node(node_index);
    const ValueRef& src = node.operands.at(0);
    const DataType from = src.kind == ValueRef::Kind::kNode
                              ? graph_.node(src.index).out_type
                              : graph_.externals()[static_cast<size_t>(src.index)].type;
    const isa::CvtCode* cvt = isa_.find_cvt(from, node.out_type);
    require(cvt != nullptr, "batch synth: missing cvt after region filter");
    std::vector<std::pair<std::string, std::string>> repl = {
        {"O", vtype_of(node.out_type).c_name + " " + node_var(node_index)},
        {"I1", value_expr(src)},
        {"I", value_expr(src)}};
    if (predicated_) repl.emplace_back("G", std::string(kPredVar));
    return isa::substitute_tokens(cvt->code, repl);
  }

  // ---- loop assembly ---------------------------------------------------------

  /// Assembles the main loop body: data preparation (line 9), the mapped
  /// calculation lines, and stores for region outputs (line 23).
  std::vector<cgir::Stmt> vector_body(std::vector<cgir::Stmt> calc_lines) const {
    std::vector<cgir::Stmt> body;
    if (predicated_) {
      // The loop-governing predicate is recomputed every iteration; the
      // final trip covers exactly the tail lanes, so no remainder exists.
      cgir::Stmt stmt = cgir::Stmt::text_line(isa::substitute_tokens(
          pred_->whilelt,
          {{"O", pred_->c_name + " " + std::string(kPredVar)},
           {"I", "i"},
           {"N", std::to_string(graph_.length())}}));
      stmt.defines = kPredVar;
      body.push_back(std::move(stmt));
    }
    for (size_t x = 0; x < graph_.externals().size(); ++x) {
      const DfgExternal& ext = graph_.externals()[x];
      const isa::IoCode* load = isa_.find_load(ext.type);
      require(load != nullptr, "batch synth: missing load");
      std::vector<std::pair<std::string, std::string>> repl = {
          {"O", vtype_of(ext.type).c_name + " " +
                    external_var(static_cast<int>(x))},
          {"P", "&" + external_buffer(static_cast<int>(x)) + "[i]"}};
      if (predicated_) repl.emplace_back("G", std::string(kPredVar));
      cgir::Stmt stmt =
          cgir::Stmt::text_line(isa::substitute_tokens(load->code, repl));
      stmt.defines = external_var(static_cast<int>(x));
      // Predicated loads read through a mask; they are not the plain
      // `v = vld(&buf[i])` shape copy forwarding may rewrite.
      stmt.is_load = !predicated_;
      stmt.accesses.push_back(
          {external_buffer(static_cast<int>(x)), false, true});
      body.push_back(std::move(stmt));
    }

    for (cgir::Stmt& line : calc_lines) body.push_back(std::move(line));

    for (int out : graph_.outputs()) {
      const DfgNode& node = graph_.node(out);
      const isa::IoCode* store = isa_.find_store(node.out_type);
      require(store != nullptr, "batch synth: missing store");
      std::vector<std::pair<std::string, std::string>> repl = {
          {"P", "&" + buffer_name_(node.actor, 0) + "[i]"},
          {"V", node_var(out)}};
      if (predicated_) repl.emplace_back("G", std::string(kPredVar));
      cgir::Stmt stmt =
          cgir::Stmt::text_line(isa::substitute_tokens(store->code, repl));
      stmt.stores_var = node_var(out);
      stmt.is_store = !predicated_;
      stmt.accesses.push_back({buffer_name_(node.actor, 0), true, true});
      body.push_back(std::move(stmt));
    }
    return body;
  }

  /// Lines 24-26: the scalar remainder, same computation element-wise.
  std::vector<cgir::Stmt> remainder_body() const {
    std::vector<cgir::Stmt> body;
    for (int n = 0; n < graph_.node_count(); ++n) {
      const DfgNode& node = graph_.node(n);
      cgir::Stmt stmt =
          cgir::Stmt::text_line(std::string(c_name(node.out_type)) + " " +
                                node_scalar_var(n) + " = " + scalar_expr(n) +
                                ";");
      stmt.defines = node_scalar_var(n);
      for (const ValueRef& operand : node.operands) {
        if (operand.kind == ValueRef::Kind::kExternal) {
          stmt.accesses.push_back(
              {external_buffer(operand.index), false, true});
        }
      }
      body.push_back(std::move(stmt));
    }
    for (int out : graph_.outputs()) {
      const std::string buffer = buffer_name_(graph_.node(out).actor, 0);
      cgir::Stmt stmt = cgir::Stmt::text_line(
          buffer + "[i] = " + node_scalar_var(out) + ";");
      stmt.stores_var = node_scalar_var(out);
      stmt.is_store = true;
      stmt.accesses.push_back({buffer, true, true});
      body.push_back(std::move(stmt));
    }
    return body;
  }

  std::string render_loop(const std::vector<cgir::Stmt>& body,
                          const BatchSynthResult& result) const {
    const std::string body_pad = pad_ + "  ";
    std::string code;
    if (result.predicated) {
      // One vector-length-agnostic loop over the whole domain; the final
      // partial trip is handled by the predicate, never by a remainder.
      code += pad_ + "for (int i = 0; i < " +
              std::to_string(graph_.length()) +
              "; i += " + result.step_expr + ") {\n";
    } else if (result.batch_count >= 2) {  // lines 7-8: addBatchLoop
      code += pad_ + "for (int i = " + std::to_string(result.offset) +
              "; i < " + std::to_string(graph_.length()) +
              "; i += " + std::to_string(result.batch_size) + ") {\n";
    } else {
      code += pad_ + "{\n";
      code += body_pad + "const int i = " + std::to_string(result.offset) +
              ";\n";
    }
    for (const cgir::Stmt& line : body) code += body_pad + line.text + "\n";
    code += pad_ + "}\n";
    return code;
  }

  std::string render_remainder(const std::vector<cgir::Stmt>& body,
                               int offset) const {
    const std::string body_pad = pad_ + "  ";
    std::string code = pad_ + "for (int i = 0; i < " + std::to_string(offset) +
                       "; ++i) {\n";
    for (const cgir::Stmt& line : body) code += body_pad + line.text + "\n";
    code += pad_ + "}\n";
    return code;
  }

  std::string scalar_operand(const ValueRef& value) const {
    switch (value.kind) {
      case ValueRef::Kind::kNode:
        return node_scalar_var(value.index);
      case ValueRef::Kind::kExternal:
        return external_buffer(value.index) + "[i]";
      case ValueRef::Kind::kScalarConst:
        return isa::scalar_literal(DataType::kFloat64, value.scalar);
      case ValueRef::Kind::kImmediate:
        return std::to_string(value.imm);
    }
    throw InternalError("scalar_operand: bad ValueRef kind");
  }

  std::string scalar_expr(int node_index) const {
    const DfgNode& node = graph_.node(node_index);
    const std::string a = scalar_operand(node.operands.at(0));
    std::string b, c;
    if (node.operands.size() > 1) {
      const ValueRef& second = node.operands[1];
      if (second.kind == ValueRef::Kind::kScalarConst) {
        b = isa::scalar_literal(node.out_type, second.scalar);
      } else {
        b = scalar_operand(second);
      }
    }
    if (node.operands.size() > 2) c = scalar_operand(node.operands[2]);
    return scalar_c_expr(node.op, node.out_type, a, b, c);
  }

  /// Name of the loop-governing predicate local in predicated loops.
  static constexpr const char* kPredVar = "pg";

  const Model& model_;
  const BatchRegion& region_;
  const Dataflow& graph_;
  const isa::VectorIsa& isa_;
  const BufferNameFn& buffer_name_;
  const BatchOptions& options_;
  std::string pad_;
  bool predicated_ = false;
  const isa::PredCode* pred_ = nullptr;
};

}  // namespace

BatchSynthResult synthesize_batch(const Model& model, const BatchRegion& region,
                                  const isa::VectorIsa& isa,
                                  const BufferNameFn& buffer_name,
                                  const BatchOptions& options, int indent) {
  return BatchSynthesizer(model, region, isa, buffer_name, options, indent)
      .run();
}

}  // namespace hcg::synth
