// The emitter: lowers a resolved model — scheduled actors plus Algorithm 2's
// matched batch regions — into the cgir translation unit, runs the cgir pass
// pipeline over it, and prints the result.  Buffer reuse (the arena pass) is
// the one allocator at every -O level; loop fusion and copy forwarding join
// at -O1, the strip-mining, tiling and layout passes at -O2.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <future>
#include <optional>
#include <set>

#include "actors/catalog.hpp"
#include "actors/exec.hpp"
#include "analysis/range.hpp"
#include "analysis/verifier.hpp"
#include "cgir/cgir.hpp"
#include "cgir/passes.hpp"
#include "codegen/generator.hpp"
#include "actors/resolve.hpp"
#include "graph/regions.hpp"
#include "kernels/library.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace hcg::codegen {

namespace {

/// A signal is identified by its producing (actor, output port).
using SignalId = std::pair<ActorId, int>;

class Emitter {
 public:
  Emitter(const Model& model, const EmitConfig& config)
      : model_(model), config_(config) {
    Stopwatch timer;
    resolve_model(model_);
    resolve_ms_ = timer.elapsed_seconds() * 1e3;
  }

  GeneratedCode run() {
    HCG_TRACE_SCOPE("codegen.emit");
    out_.model_name = model_.name();
    out_.tool_name = config_.tool_name;
    out_.init_symbol = model_.name() + "_init";
    out_.step_symbol = model_.name() + "_step";

    out_.report.model = model_.name();
    out_.report.tool = config_.tool_name;
    out_.report.isa = config_.isa != nullptr ? config_.isa->name : "";
    out_.report.actor_count = model_.actor_count();
    out_.report.phases.push_back({"resolve", resolve_ms_});

    // The synthesis pool: intensive pre-calculation sweeps and Algorithm 2
    // region matching fan out over it; everything else stays on this thread.
    ThreadPool pool(config_.jobs);
    obs::Registry::instance().gauge("synth.pool.threads").set(pool.size());

    Stopwatch phase;
    {
      HCG_TRACE_SCOPE("emit.regions");
      build_regions(narrow_regions_by_range());
      order_ = emission_order(model_, regions_);
    }
    finish_phase("regions", phase);
    {
      HCG_TRACE_SCOPE("emit.intensive");
      select_intensive_implementations(pool);
    }
    finish_phase("intensive_select", phase);
    {
      HCG_TRACE_SCOPE("emit.plan");
      plan_folding();
      plan_buffers();
    }
    finish_phase("plan", phase);
    {
      HCG_TRACE_SCOPE("emit.batch");
      synthesize_regions(pool);
    }
    finish_phase("batch_synth", phase);
    {
      HCG_TRACE_SCOPE("emit.body");
      emit_header();
      emit_kernel_sources();
      emit_init();
      emit_step();
    }
    finish_phase("emit", phase);
    {
      HCG_TRACE_SCOPE("emit.opt");
      run_pass_pipeline();
    }
    finish_phase("opt", phase);

    out_.report.emit_bytes = source_.size();
    out_.report.static_buffer_bytes = out_.static_buffer_bytes;
    out_.report.fused_regions = out_.fused_regions;
    static obs::Counter& bytes_metric =
        obs::Registry::instance().counter("codegen.emit_bytes");
    static obs::Counter& models_metric =
        obs::Registry::instance().counter("codegen.models");
    static obs::Counter& fused_metric =
        obs::Registry::instance().counter("batch.fused_regions");
    bytes_metric.add(source_.size());
    models_metric.add();
    fused_metric.add(static_cast<std::uint64_t>(out_.fused_regions));
    obs::Registry::instance()
        .gauge("batch.simd_coverage")
        .set(out_.report.simd_coverage());

    out_.source = std::move(source_);
    return std::move(out_);
  }

 private:
  /// Closes one report phase: records the elapsed time and restarts `timer`.
  void finish_phase(const char* name, Stopwatch& timer) {
    out_.report.phases.push_back({name, timer.elapsed_seconds() * 1e3});
    timer.reset();
  }

  // ------------------------------------------------------------------
  // Planning
  // ------------------------------------------------------------------

  // ------------------------------------------------------------------
  // Range-driven lane narrowing (docs/ANALYSIS.md)
  // ------------------------------------------------------------------

  /// Narrower same-signedness integer candidates, narrowest first.
  static std::vector<DataType> narrowing_candidates(DataType cur) {
    std::vector<DataType> out;
    const std::vector<DataType> pool =
        is_signed_int(cur)
            ? std::vector<DataType>{DataType::kInt8, DataType::kInt16,
                                    DataType::kInt32}
            : std::vector<DataType>{DataType::kUInt8, DataType::kUInt16,
                                    DataType::kUInt32};
    if (!is_integer(cur)) return out;
    for (DataType t : pool) {
      if (bit_width(t) < bit_width(cur)) out.push_back(t);
    }
    return out;
  }

  /// A model actor name no existing actor uses.
  std::string fresh_actor_name(int* counter) {
    for (;; ++*counter) {
      std::string name = "hcg_nw_" + std::to_string(*counter);
      if (model_.find_actor(name) == kNoActor) {
        ++*counter;
        return name;
      }
    }
  }

  /// Everything except the value-range proof that narrowing one region to
  /// `nar` needs: more lanes than the current type, a viable plan at the
  /// narrow width, a single-instruction implementation for every node, and
  /// representable scalar constants / in-range shift immediates.
  bool narrowing_isa_ok(const BatchRegion& region, DataType cur,
                        DataType nar) const {
    const isa::VectorIsa& isa = *config_.isa;
    const int lanes_nar = isa.lanes(nar);
    if (lanes_nar <= 0 || lanes_nar <= isa.lanes(cur)) return false;
    if (!isa.predicated(nar) && region.graph.length() < lanes_nar) {
      return false;
    }
    if (region.graph.node_count() <
        config_.batch_options.min_nodes_for_simd) {
      return false;
    }
    for (const DfgNode& node : region.graph.nodes()) {
      if (!isa.supports(node.op, nar, nar)) return false;
      for (const ValueRef& operand : node.operands) {
        if (operand.kind == ValueRef::Kind::kScalarConst) {
          const double t = std::trunc(operand.scalar);
          if (!analysis::interval_fits({t, t}, nar)) return false;
        }
        if (operand.kind == ValueRef::Kind::kImmediate &&
            operand.imm >= bit_width(nar)) {
          return false;
        }
      }
    }
    return true;
  }

  /// The value-range proof: every node result and every array entering the
  /// region provably fits `nar`.  (A node interval that would wrap at the
  /// *current* width is top, which never fits, so a region that passes here
  /// computes identical values at either width.)
  bool narrowing_range_ok(const BatchRegion& region,
                          const analysis::RangeAnalysis& ranges,
                          DataType nar) const {
    for (const DfgNode& node : region.graph.nodes()) {
      const analysis::Interval* iv = ranges.find(node.actor, 0);
      if (iv == nullptr || !analysis::interval_fits(*iv, nar)) return false;
    }
    for (const DfgExternal& ext : region.graph.externals()) {
      const analysis::Interval* iv = ranges.find(ext.src, ext.src_port);
      if (iv == nullptr || !analysis::interval_fits(*iv, nar)) return false;
    }
    return true;
  }

  /// Splices Cast actors around one region so it re-resolves at `nar`:
  /// a Cast-down on every external input signal, a Cast-up back to `cur`
  /// on every signal leaving the region.  A Constant feeding only this
  /// region is instead retyped in place — its value provably fits `nar`,
  /// and folding the conversion into the initializer avoids a per-step
  /// cast pass over the whole array.  The region's own actors keep their
  /// types param-free (elementwise actors inherit operand types), so
  /// re-resolution retypes the whole chain.
  void rewrite_region_narrow(const BatchRegion& region, DataType cur,
                             DataType nar, int* name_counter) {
    const std::set<ActorId> members(region.actors.begin(),
                                    region.actors.end());
    for (const DfgExternal& ext : region.graph.externals()) {
      const std::vector<Connection> consumers =
          model_.outgoing(ext.src, ext.src_port);
      Actor& producer = model_.actor(ext.src);
      if (producer.type() == "Constant") {
        bool all_in_region = true;
        for (const Connection& c : model_.outgoing_all(ext.src)) {
          all_in_region &= members.count(c.dst) > 0;
        }
        if (all_in_region) {
          producer.set_param("dtype", short_name(nar));
          continue;
        }
      }
      const ActorId down =
          model_.add_actor(fresh_actor_name(name_counter), "Cast");
      model_.actor(down).set_param("to", short_name(nar));
      model_.connect(ext.src, ext.src_port, down, 0);
      for (const Connection& c : consumers) {
        if (members.count(c.dst)) {
          model_.rewire_input(c.dst, c.dst_port, down, 0);
        }
      }
    }
    for (int node_index : region.graph.outputs()) {
      const ActorId src = region.graph.node(node_index).actor;
      const std::vector<Connection> consumers = model_.outgoing(src, 0);
      ActorId up = kNoActor;
      for (const Connection& c : consumers) {
        if (members.count(c.dst)) continue;
        if (up == kNoActor) {
          up = model_.add_actor(fresh_actor_name(name_counter), "Cast");
          model_.actor(up).set_param("to", short_name(cur));
          model_.connect(src, 0, up, 0);
        }
        model_.rewire_input(c.dst, c.dst_port, up, 0);
      }
    }
  }

  /// The range-driven lane-narrowing pass: re-plans an integer batch region
  /// at a narrower element type when the interval analysis proves every
  /// value fits, doubling (or quadrupling) the SIMD lanes Algorithm 2 gets
  /// to use.  Runs before build_regions() so the rebuilt regions are the
  /// narrow chains (the inserted mixed-width Casts fall out of regions by
  /// the HCG404 rule).  Off at -O0; regions-mode only.  Returns the regions
  /// of its final round — that round rewrote nothing, so they match the
  /// model — or nothing when the pass is off.
  std::optional<std::vector<BatchRegion>> narrow_regions_by_range() {
    const bool enabled = config_.opt_level >= 1 &&
                         config_.batch_mode == BatchMode::kRegions &&
                         config_.isa != nullptr;
    if (!enabled) return std::nullopt;

    int narrowed = 0;
    int blocked = 0;
    int name_counter = 0;
    std::set<ActorId> narrowed_members;
    auto remark = [this](std::string code, std::string message) {
      obs::ReportDiagnostic diag;
      diag.code = std::move(code);
      diag.severity = "remark";
      diag.location = model_.name() + ": regions";
      diag.message = std::move(message);
      out_.report.diagnostics.push_back(std::move(diag));
    };
    auto region_names = [this](const BatchRegion& region) {
      std::string out;
      for (ActorId id : region.actors) {
        if (!out.empty()) out += ", ";
        out += model_.actor(id).name();
      }
      return out;
    };
    // Uniform-type integer chains only: a same-width Cast (e.g. i32 to
    // f32) inside a region gives it two element types, and narrowing a
    // mixed chain is not expressible as one retype.
    auto narrowable_type = [](const BatchRegion& region) {
      const DataType cur = region.graph.nodes().front().out_type;
      if (!is_integer(cur) || bit_width(cur) < 16) return std::optional<DataType>();
      for (const DfgNode& node : region.graph.nodes()) {
        if (node.out_type != cur) return std::optional<DataType>();
      }
      for (const DfgExternal& ext : region.graph.externals()) {
        if (ext.type != cur) return std::optional<DataType>();
      }
      return std::optional<DataType>(cur);
    };

    // One region is rewritten per round, then regions and intervals are
    // recomputed from the rewritten model — a rewrite moves wires other
    // regions' snapshots may reference, so stale snapshots must never be
    // rewritten.  Rewritten chains are remembered and skipped, which bounds
    // the loop by the region count.
    analysis::RangeAnalysis ranges;
    std::vector<BatchRegion> regions;
    for (bool progress = true; progress;) {
      progress = false;
      ranges = analysis::analyze_ranges(model_, nullptr);
      regions = find_batch_regions(model_, *config_.isa);
      for (const BatchRegion& region : regions) {
        const std::optional<DataType> cur = narrowable_type(region);
        if (!cur) continue;
        bool member_done = false;
        for (ActorId id : region.actors) {
          if (narrowed_members.count(id)) member_done = true;
        }
        if (member_done) continue;
        for (DataType nar : narrowing_candidates(*cur)) {
          if (!narrowing_isa_ok(region, *cur, nar)) continue;
          if (!narrowing_range_ok(region, ranges, nar)) continue;
          rewrite_region_narrow(region, *cur, nar, &name_counter);
          resolve_model(model_);
          narrowed_members.insert(region.actors.begin(),
                                  region.actors.end());
          ++narrowed;
          remark("HCG411",
                 "region {" + region_names(region) + "} re-planned at " +
                     std::string(short_name(nar)) + " (" +
                     std::to_string(config_.isa->lanes(nar)) +
                     " lanes, was " + std::string(short_name(*cur)) +
                     " at " + std::to_string(config_.isa->lanes(*cur)) +
                     "): proven value ranges fit the narrower type");
          progress = true;
          break;
        }
        if (progress) break;
      }
    }

    // Final scan: regions that would narrow but for an unprovable range.
    for (const BatchRegion& region : regions) {
      const std::optional<DataType> cur = narrowable_type(region);
      if (!cur) continue;
      bool member_done = false;
      for (ActorId id : region.actors) {
        if (narrowed_members.count(id)) member_done = true;
      }
      if (member_done) continue;
      for (DataType nar : narrowing_candidates(*cur)) {
        if (!narrowing_isa_ok(region, *cur, nar)) continue;
        if (narrowing_range_ok(region, ranges, nar)) continue;
        ++blocked;
        remark("HCG412",
               "region {" + region_names(region) +
                   "} could use more SIMD lanes at " +
                   std::string(short_name(nar)) +
                   ", but the value range could not be proven to fit; "
                   "declare Inport range_min/range_max to enable narrowing");
        break;
      }
    }

    out_.report.range_ran = true;
    out_.report.range_actors_analyzed = ranges.actors_analyzed;
    out_.report.range_bounded_outputs = ranges.bounded_outputs;
    out_.report.range_widened_delays = ranges.widened_delays;
    out_.report.regions_narrowed = narrowed;
    out_.report.narrowing_blocked = blocked;
    static obs::Counter& narrowed_metric =
        obs::Registry::instance().counter("codegen.range.regions_narrowed");
    narrowed_metric.add(static_cast<std::uint64_t>(narrowed));
    return regions;
  }

  /// Sets up the batch regions the mode asks for, from `scanned` (Algorithm
  /// 2's regions of the current model) when the narrowing pass already
  /// computed them.
  void build_regions(std::optional<std::vector<BatchRegion>> scanned) {
    if (config_.batch_mode == BatchMode::kRegions) {
      require(config_.isa != nullptr, "BatchMode::kRegions needs an ISA");
      regions_ = scanned ? std::move(*scanned)
                         : find_batch_regions(model_, *config_.isa);
    } else if (config_.batch_mode == BatchMode::kScattered) {
      require(config_.isa != nullptr, "BatchMode::kScattered needs an ISA");
      // One region per batch actor: each actor gets its own load/compute/
      // store loop — the "scattered SIMD" the paper attributes to Simulink
      // Coder on Intel.  (Narrowing is regions-mode only, so nothing was
      // scanned yet.)
      for (const BatchRegion& region :
           find_batch_regions(model_, *config_.isa)) {
        for (ActorId id : region.actors) {
          regions_.push_back(singleton_batch_region(model_, id));
        }
      }
    }
    for (size_t r = 0; r < regions_.size(); ++r) {
      for (ActorId id : regions_[r].actors) {
        region_of_[id] = static_cast<int>(r);
      }
    }
    // Predict which regions Algorithm 2 will vectorize (the shared helper
    // mirrors its early exits) so interior signals — which live entirely in
    // vector registers — get no memory buffer.
    for (const BatchRegion& region : regions_) {
      const RegionVectorPlan plan = plan_region_vectorization(
          region, config_.isa->capability(),
          config_.batch_options.min_nodes_for_simd);
      if (!plan.viable) continue;
      for (const auto& [actor, node_index] : region.node_of) {
        if (!region.graph.is_output(node_index)) register_only_.insert(actor);
      }
    }
  }

  /// Fans `task(0..count-1)` out over the pool and collects the results in
  /// index order.  Every task is awaited even on failure (nothing may still
  /// reference this stack frame afterwards); the first exception, in index
  /// order, is rethrown once all tasks have finished.
  template <typename Result, typename Task>
  static std::vector<Result> run_indexed(ThreadPool& pool, std::size_t count,
                                         const Task& task) {
    static obs::Counter& tasks_metric =
        obs::Registry::instance().counter("synth.pool.tasks");
    std::vector<std::future<Result>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      futures.push_back(pool.submit([&task, i] { return task(i); }));
      tasks_metric.add();
    }
    obs::Registry::instance()
        .gauge("synth.pool.queue_depth")
        .set(static_cast<double>(pool.pending()));
    std::vector<Result> results;
    results.reserve(count);
    std::exception_ptr first_error;
    for (std::future<Result>& future : futures) {
      try {
        results.push_back(future.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        results.emplace_back();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  void select_intensive_implementations(ThreadPool& pool) {
    const kernels::CodeLibrary& library = kernels::CodeLibrary::instance();
    std::vector<const Actor*> intensive;
    for (const Actor& actor : model_.actors()) {
      if (classify(model_, actor.id()) != ActorKind::kIntensive) continue;
      intensive.push_back(&actor);
    }
    if (intensive.empty()) return;

    // Algorithm 1 sweeps run concurrently; the single-flight selector makes
    // duplicate (type, dtype, shapes) keys share one measurement, whether
    // the duplicates race in parallel or arrive sequentially at --jobs 1.
    std::vector<synth::IntensiveSelection> selections;
    if (config_.select_intensive) {
      synth::SelectionHistory* history =
          config_.history != nullptr ? config_.history : &local_history_;
      selections = run_indexed<synth::IntensiveSelection>(
          pool, intensive.size(), [&](std::size_t i) {
            return selector_.select(*intensive[i], *history,
                                    config_.intensive_options);
          });
    }

    // Report entries, impl bindings and kernel sources are committed on this
    // thread in model order, so the output is identical at every job count.
    for (std::size_t i = 0; i < intensive.size(); ++i) {
      const Actor& actor = *intensive[i];
      const DataType dtype = actor.input(0).type;
      obs::ReportIntensive entry;
      entry.actor = actor.name();
      entry.actor_type = actor.type();
      entry.dtype = std::string(short_name(dtype));
      const kernels::KernelImpl* impl = nullptr;
      if (config_.select_intensive) {
        const synth::IntensiveSelection& selection = selections[i];
        impl = selection.impl;
        entry.selected = true;
        entry.from_history = selection.from_history;
        for (const auto& [id, seconds] : selection.measured_costs) {
          entry.candidates.push_back({id, seconds * 1e3});
        }
        if (!selection.failures.empty()) {
          // Degraded mode: the run survived candidate failures — record
          // every one so report readers can see the output is lossy.
          obs::ReportFallback fallback;
          fallback.actor = actor.name();
          fallback.stage = "precalc";
          fallback.impl = impl->id;
          fallback.reference_fallback = selection.degraded;
          for (const synth::CandidateFailure& failure : selection.failures) {
            fallback.failures.push_back({failure.impl, failure.reason});
          }
          out_.report.degraded.push_back(std::move(fallback));
        }
      } else {
        impl = &library.general_implementation(actor.type(), dtype);
      }
      entry.impl = impl->id;
      out_.report.intensive.push_back(std::move(entry));
      intensive_impl_[actor.id()] = impl;
      out_.intensive_choices[actor.name()] = impl->id;
      kernel_sources_.insert(impl->source_key);
    }
  }

  /// Runs Algorithm 2 over every batch region concurrently (regions are
  /// independent dataflow graphs) and caches the results; emit_step() then
  /// merges them in deterministic region order.  Buffer names are planned
  /// by the time this runs, so the tasks only read shared state.
  void synthesize_regions(ThreadPool& pool) {
    if (regions_.empty()) return;
    region_synth_ = run_indexed<synth::BatchSynthResult>(
        pool, regions_.size(), [this](std::size_t r) {
          return synth::synthesize_batch(
              model_, regions_[r], *config_.isa,
              [this](ActorId id, int port) {
                return buffer_name_.at({id, port});
              },
              config_.batch_options, /*indent=*/1);
        });
  }

  /// Expression folding: single-consumer scalar elementwise/constant signals
  /// are inlined into their consumer instead of materialized.
  void plan_folding() {
    if (!config_.fold_scalar_expressions) return;
    for (const Actor& actor : model_.actors()) {
      if (actor.output_count() != 1) continue;
      if (actor.type() == "Inport" || actor.type() == "UnitDelay") continue;
      if (region_of_.count(actor.id())) continue;
      const PortSpec& out = actor.output(0);
      if (out.shape.elements() != 1 || is_complex(out.type)) continue;
      const bool is_const = actor.type() == "Constant";
      const bool is_elementwise = actor_type_info(actor.type()).elementwise;
      if (!is_const && !is_elementwise) continue;
      const auto consumers = model_.outgoing(actor.id(), 0);
      if (consumers.size() != 1) continue;
      // Never fold into a delay (its update happens at end of step) or into
      // an intensive kernel call (needs a real buffer).
      const Actor& consumer = model_.actor(consumers[0].dst);
      if (consumer.type() == "UnitDelay" ||
          actor_type_info(consumer.type()).intensive) {
        continue;
      }
      folded_.insert(actor.id());
    }
  }

  bool is_folded(ActorId id) const { return folded_.count(id) != 0; }

  void plan_buffers() {
    // Inports bind to the step's input pointers.
    for (ActorId id : model_.inports()) {
      buffer_name_[{id, 0}] = "in_" + sanitize_identifier(model_.actor(id).name());
    }

    // Signals consumed by an Outport can be produced directly into the
    // caller's output buffer, eliminating the boundary memcpy.  (Inport,
    // Constant and UnitDelay sources keep their own storage: the first is
    // read-only, the latter two persist across steps.)
    for (ActorId id : model_.outports()) {
      const Connection conn = *model_.incoming(id, 0);
      const Actor& src = model_.actor(conn.src);
      if (src.type() == "Inport" || src.type() == "Constant" ||
          src.type() == "UnitDelay" || is_folded(conn.src)) {
        continue;
      }
      const SignalId signal{conn.src, conn.src_port};
      if (buffer_name_.count(signal)) continue;  // already aliased
      buffer_name_[signal] = "out_" + sanitize_identifier(model_.actor(id).name());
      direct_outports_.insert(id);
    }

    // Every other signal gets its own `sig_`/`dly_` buffer, declared in
    // emission order.  Simulink Coder's output variable reuse is the
    // reuse_arena pass: with reuse_buffers set, intermediate buffers are
    // marked arena-eligible and the pass rebinds those whose live ranges
    // over the lowered step (end-of-step delay latch and folded reads
    // included) do not overlap.
    for (const EmissionItem& item : order_) {
      std::vector<ActorId> producers;
      if (item.actor != kNoActor) {
        producers.push_back(item.actor);
      } else {
        producers = regions_[static_cast<size_t>(item.region)].actors;
      }
      for (ActorId id : producers) {
        const Actor& actor = model_.actor(id);
        if (actor.type() == "Inport" || is_folded(id)) continue;
        if (register_only_.count(id)) continue;  // lives in vector registers
        for (int port = 0; port < actor.output_count(); ++port) {
          if (buffer_name_.count({id, port})) continue;  // output-aliased
          const PortSpec& spec = actor.output(port);
          const bool reusable = config_.reuse_buffers &&
                                actor.type() != "Constant" &&
                                actor.type() != "UnitDelay";
          std::string name = (actor.type() == "UnitDelay" ? "dly_" : "sig_") +
                             sanitize_identifier(actor.name());
          if (port != 0) name += "_p" + std::to_string(port);
          declare_buffer(name, spec,
                         actor.type() == "Constant" ? &actor : nullptr,
                         /*arena_eligible=*/reusable);
          buffer_name_[{id, port}] = name;
        }
      }
    }
  }

  /// Declares a static buffer in the translation unit.
  void declare_buffer(const std::string& name, const PortSpec& spec,
                      const Actor* constant_source, bool arena_eligible) {
    cgir::BufferDecl decl;
    decl.name = name;
    decl.ctype = std::string(c_name(spec.type));
    decl.components =
        is_complex(spec.type) ? spec.shape.elements() * 2 : spec.shape.elements();
    decl.elem_bytes = byte_width(component_type(spec.type));
    decl.arena_eligible = arena_eligible;
    if (constant_source != nullptr) {
      decl.is_const = true;
      Tensor value = constant_tensor(*constant_source);
      std::vector<std::string> literals;
      literals.reserve(static_cast<std::size_t>(decl.components));
      for (int i = 0; i < decl.components; ++i) {
        literals.push_back(component_literal(value, i));
      }
      decl.init_values = join(literals, ", ");
    }
    tu_.buffers.push_back(std::move(decl));
  }

  static std::string component_literal(const Tensor& value, int i) {
    const DataType comp = component_type(value.type());
    if (comp == DataType::kFloat32) {
      if (is_complex(value.type())) {
        return std::to_string(value.as<float>()[i]) + "f";
      }
      return std::to_string(value.as<float>()[i]) + "f";
    }
    if (comp == DataType::kFloat64) {
      if (is_complex(value.type())) return std::to_string(value.as<double>()[i]);
      return std::to_string(value.as<double>()[i]);
    }
    return std::to_string(value.get_int(i));
  }

  // ------------------------------------------------------------------
  // Expressions
  // ------------------------------------------------------------------

  /// C expression for one element of a signal: buffer[index] or, for folded
  /// producers, the inlined expression.  Buffer reads are recorded into the
  /// active access sink (when one is installed) so the statement being built
  /// carries its dependence information for the passes.
  std::string element_expr(const SignalId& signal, const std::string& index) {
    const Actor& producer = model_.actor(signal.first);
    if (is_folded(signal.first)) return folded_expr(producer);
    const std::string& buffer = buffer_name_.at(signal);
    if (access_sink_ != nullptr) {
      access_sink_->push_back({buffer, false, index == "i"});
    }
    return buffer + "[" + index + "]";
  }

  std::string folded_expr(const Actor& actor) {
    if (actor.type() == "Constant") {
      Tensor value = constant_tensor(actor);
      return "(" + std::string(c_name(actor.output(0).type)) + ")" +
             component_literal(value, 0);
    }
    // The cast re-narrows the intermediate to the signal's declared type.
    // C integer promotion would otherwise leak un-wrapped sub-int values
    // (e.g. u16 Shl) into the consumer, where a store into a typed buffer
    // no longer truncates them.
    return "((" + std::string(c_name(actor.output(0).type)) + ")(" +
           elementwise_expr(actor, "0") + "))";
  }

  /// The scalar expression computing one element of an elementwise actor.
  std::string elementwise_expr(const Actor& actor, const std::string& index) {
    const BatchOp op = batch_op_for_actor_type(actor.type());
    const SignalId src0 = source_of(actor.id(), 0);
    const std::string a = element_expr(src0, index);
    std::string b, c;
    if (arity(op) >= 3) {
      c = element_expr(source_of(actor.id(), 2), index);
    }
    if (arity(op) >= 2) {
      b = element_expr(source_of(actor.id(), 1), index);
    } else if (has_immediate(op)) {
      b = std::to_string(actor.int_param("amount"));
    } else if (op == BatchOp::kMulC) {
      b = isa::scalar_literal(actor.output(0).type,
                              parse_double(actor.param("gain")));
    } else if (op == BatchOp::kAddC) {
      b = isa::scalar_literal(actor.output(0).type,
                              parse_double(actor.param("bias")));
    }
    return scalar_c_expr(op, actor.output(0).type, a, b, c);
  }

  SignalId source_of(ActorId id, int port) const {
    const Connection conn = *model_.incoming(id, port);
    return {conn.src, conn.src_port};
  }

  // ------------------------------------------------------------------
  // Lowering
  // ------------------------------------------------------------------

  /// Appends a statement to the step body.
  void push(cgir::Stmt stmt) { tu_.step.body.push_back(std::move(stmt)); }

  void emit_header() {
    tu_.header_lines.push_back("/* Generated by " + config_.tool_name +
                               " for model '" + model_.name() + "'.");
    tu_.header_lines.push_back(" * ABI: void " + out_.init_symbol + "(void);");
    tu_.header_lines.push_back(" *      void " + out_.step_symbol +
                               "(const void* const* inputs, void* const* "
                               "outputs); */");
    tu_.header_lines.push_back("#include <stdint.h>");
    tu_.header_lines.push_back("#include <string.h>");
    tu_.header_lines.push_back("#include <math.h>");
    const bool may_use_simd =
        config_.isa != nullptr &&
        (config_.batch_mode == BatchMode::kScattered ||
         config_.batch_mode == BatchMode::kRegions) &&
        !regions_.empty();
    if (may_use_simd) {
      if (config_.isa->simulated) {
        tu_.header_lines.push_back("#include \"" + config_.isa->header + "\"");
      } else {
        tu_.header_lines.push_back("#include <" + config_.isa->header + ">");
      }
      out_.compile_flags = config_.isa->compile_flags;
      out_.needs_neon_sim = config_.isa->simulated;
    }
    tu_.header_lines.push_back("");
  }

  void emit_kernel_sources() {
    if (kernel_sources_.empty()) return;
    const kernels::CodeLibrary& library = kernels::CodeLibrary::instance();
    for (const std::string& key : kernel_sources_) {
      tu_.kernel_sources.push_back(std::string(library.source(key)));
    }
  }

  void emit_init() {
    tu_.init.opener = "void " + out_.init_symbol + "(void) {";
    for (const Actor& actor : model_.actors()) {
      if (actor.type() != "UnitDelay") continue;
      const std::string& name = buffer_name_.at({actor.id(), 0});
      cgir::Stmt stmt = cgir::Stmt::text_line("memset(" + name +
                                              ", 0, sizeof(" + name + "));");
      stmt.accesses.push_back({name, true, false});
      tu_.init.body.push_back(std::move(stmt));
    }
  }

  void emit_step() {
    tu_.step.opener = "void " + out_.step_symbol +
                      "(const void* const* inputs, void* const* outputs) {";

    const std::vector<ActorId> ins = model_.inports();
    for (size_t i = 0; i < ins.size(); ++i) {
      const Actor& port = model_.actor(ins[i]);
      const std::string ctype(c_name(port.output(0).type));
      const std::string& name = buffer_name_.at({ins[i], 0});
      cgir::Stmt stmt = cgir::Stmt::text_line(
          "const " + ctype + "* " + name + " = (const " + ctype + "*)inputs[" +
          std::to_string(i) + "];");
      // The pointer local is a definition the verifier tracks: later accesses
      // to `name` resolve against this line, not a buffer declaration.
      stmt.defines = name;
      push(std::move(stmt));
    }
    const std::vector<ActorId> outs = model_.outports();
    for (size_t i = 0; i < outs.size(); ++i) {
      const Actor& port = model_.actor(outs[i]);
      const std::string ctype(c_name(port.input(0).type));
      const std::string name = "out_" + sanitize_identifier(port.name());
      cgir::Stmt stmt = cgir::Stmt::text_line(ctype + "* " + name + " = (" +
                                              ctype + "*)outputs[" +
                                              std::to_string(i) + "];");
      stmt.defines = name;
      push(std::move(stmt));
    }
    push(cgir::Stmt::text_line(""));

    for (const EmissionItem& item : order_) {
      if (item.region >= 0) {
        emit_region(static_cast<size_t>(item.region));
      } else {
        emit_actor(model_.actor(item.actor));
      }
    }

    flush_delay_updates();
  }

  /// Emits the end-of-step delay register copies.  A delay's register is
  /// also its output buffer, so when one delay feeds another the reader's
  /// copy must land before the producer's register is overwritten — i.e.
  /// updates run in reverse dependency order (a chain d0 -> d1 updates d1
  /// first).  A direct delay-to-delay cycle has no valid order; it is
  /// broken by snapshotting one register into a step-local temporary.
  void flush_delay_updates() {
    if (delay_updates_.empty()) return;
    push(cgir::Stmt::text_line("/* delay state updates */"));
    std::vector<DelayUpdate> pending = std::move(delay_updates_);
    delay_updates_.clear();
    int snapshots = 0;
    while (!pending.empty()) {
      // Pick an update whose register no other pending update still reads.
      size_t pick = pending.size();
      for (size_t i = 0; i < pending.size() && pick == pending.size(); ++i) {
        bool read_later = false;
        for (size_t j = 0; j < pending.size(); ++j) {
          if (j != i && pending[j].src == pending[i].state) read_later = true;
        }
        if (!read_later) pick = i;
      }
      if (pick == pending.size()) {
        // Every register is still read by some other update: a cycle.
        // Snapshot the first register and retarget its readers.
        const DelayUpdate& blocked = pending.front();
        const std::string snap =
            "dly_snap" + std::to_string(snapshots++);
        cgir::Stmt decl = cgir::Stmt::text_line(
            blocked.c_type + " " + snap + "[" +
            std::to_string(blocked.components) + "];");
        decl.defines = snap;
        push(std::move(decl));
        push(delay_copy_stmt(snap, blocked.state, blocked.components,
                             blocked.c_type));
        for (DelayUpdate& u : pending) {
          if (u.src == blocked.state) u.src = snap;
        }
        continue;
      }
      const DelayUpdate& u = pending[pick];
      push(delay_copy_stmt(u.state, u.src, u.components, u.c_type));
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }

  static cgir::Stmt delay_copy_stmt(const std::string& dst,
                                    const std::string& src, int components,
                                    const std::string& c_type) {
    cgir::Stmt stmt = cgir::Stmt::text_line(
        "memcpy(" + dst + ", " + src + ", " + std::to_string(components) +
        " * sizeof(" + c_type + "));");
    stmt.accesses.push_back({dst, true, false});
    stmt.accesses.push_back({src, false, false});
    return stmt;
  }

  void emit_region(size_t region_index) {
    const BatchRegion& region = regions_[region_index];
    // Algorithm 2 already ran (concurrently) in synthesize_regions; this
    // merge step is serial and follows the deterministic emission order.
    synth::BatchSynthResult& result = region_synth_[region_index];

    obs::ReportRegion entry;
    for (ActorId id : region.actors) {
      entry.actors.push_back(model_.actor(id).name());
    }
    entry.nodes = region.graph.node_count();
    entry.used_simd = result.used_simd;
    entry.batch_size = result.batch_size;
    entry.batch_count = result.batch_count;
    entry.scalar_remainder = result.offset;
    entry.predicated = result.predicated;
    entry.instructions = result.instructions_used;
    out_.report.regions.push_back(std::move(entry));

    if (result.used_simd) {
      for (std::string& name : result.instructions_used) {
        out_.simd_instructions.push_back(std::move(name));
      }
      if (region.actors.size() > 1) ++out_.fused_regions;
      simd_emitted_ = true;

      // The batch-region banner attaches to the first loop of the region
      // (the scalar remainder when one exists — Algorithm 2 line 26 puts it
      // "at the front" — otherwise the vector loop).
      bool banner_pending = true;
      if (result.offset != 0) {
        cgir::Stmt remainder;
        remainder.kind = cgir::Stmt::Kind::kLoop;
        remainder.begin = 0;
        remainder.end = result.offset;
        remainder.step = 1;
        remainder.fusible = true;
        remainder.banner_actors = static_cast<int>(region.actors.size());
        remainder.banner_isa = config_.isa->name;
        remainder.body = std::move(result.remainder_body);
        banner_pending = false;
        push(std::move(remainder));
      }
      cgir::Stmt main;
      main.kind = cgir::Stmt::Kind::kLoop;
      if (result.predicated) {
        // One vector-length-agnostic loop over [0, n): the runtime-stride
        // expression replaces the constant step, the predicate handles the
        // tail, and no pass may reshape the iteration domain (not a
        // vector_loop, not fusible).
        main.predicated = true;
        main.step_expr = result.step_expr;
        main.begin = 0;
        main.end = region.graph.length();
        main.step = result.batch_size;  // granule lanes, for trip estimates
        static obs::Counter& predicated_metric =
            obs::Registry::instance().counter("codegen.loops.predicated");
        predicated_metric.add();
        ++out_.report.loops_predicated;
      } else {
        main.vector_loop = true;
        main.fusible = true;
        main.begin = result.offset;
        main.step = result.batch_size;
        if (result.batch_count >= 2) {
          main.end = region.graph.length();
        } else {
          main.single_iteration = true;
          main.end = result.offset + result.batch_size;
        }
      }
      if (banner_pending) {
        main.banner_actors = static_cast<int>(region.actors.size());
        main.banner_isa = config_.isa->name;
      }
      main.body = std::move(result.vector_body);
      push(std::move(main));
      return;
    }
    // Algorithm 2 lines 3-4: conventionalTranslate.
    for (ActorId id : region.actors) emit_actor(model_.actor(id));
  }

  void emit_actor(const Actor& actor) {
    const std::string& type = actor.type();
    if (type == "Inport" || type == "Constant") return;
    if (is_folded(actor.id())) return;

    if (type == "Outport") {
      if (direct_outports_.count(actor.id())) {
        return;  // the producer already wrote into the output buffer
      }
      const SignalId src = source_of(actor.id(), 0);
      const std::string out_name = "out_" + sanitize_identifier(actor.name());
      if (is_folded(src.first)) {
        cgir::Stmt stmt;
        access_sink_ = &stmt.accesses;
        stmt.text =
            out_name + "[0] = " + folded_expr(model_.actor(src.first)) + ";";
        access_sink_ = nullptr;
        stmt.accesses.push_back({out_name, true, false});
        push(std::move(stmt));
      } else {
        const PortSpec& spec = actor.input(0);
        const int components = is_complex(spec.type)
                                   ? spec.shape.elements() * 2
                                   : spec.shape.elements();
        cgir::Stmt stmt = cgir::Stmt::text_line(
            "memcpy(" + out_name + ", " + buffer_name_.at(src) + ", " +
            std::to_string(components) + " * sizeof(" +
            std::string(c_name(spec.type)) + "));");
        stmt.accesses.push_back({out_name, true, false});
        stmt.accesses.push_back({buffer_name_.at(src), false, false});
        push(std::move(stmt));
      }
      return;
    }

    if (type == "UnitDelay") {
      // Output buffer *is* the state; schedule the update for end-of-step
      // (flush_delay_updates orders the copies so chained delays keep their
      // full latency).
      const SignalId src = source_of(actor.id(), 0);
      const PortSpec& spec = actor.output(0);
      const int components = is_complex(spec.type) ? spec.shape.elements() * 2
                                                   : spec.shape.elements();
      delay_updates_.push_back({buffer_name_.at({actor.id(), 0}),
                                buffer_name_.at(src), components,
                                std::string(c_name(spec.type))});
      return;
    }

    const ActorTypeInfo& info = actor_type_info(type);
    if (info.elementwise) {
      emit_elementwise(actor);
      return;
    }
    if (info.intensive) {
      emit_intensive(actor);
      return;
    }
    throw CodegenError("no conventional translation for actor type '" + type +
                       "'");
  }

  void emit_elementwise(const Actor& actor) {
    const int n = actor.output(0).shape.elements();
    const std::string dst = buffer_name_.at({actor.id(), 0});
    const bool unroll = config_.batch_mode == BatchMode::kUnrollThenLoops &&
                        n <= config_.unroll_threshold;
    if (n == 1) {
      cgir::Stmt stmt;
      access_sink_ = &stmt.accesses;
      stmt.text = dst + "[0] = " + elementwise_expr(actor, "0") + ";";
      access_sink_ = nullptr;
      stmt.accesses.push_back({dst, true, false});
      push(std::move(stmt));
    } else if (unroll) {
      // Paper Figure 2: one statement per element.
      for (int i = 0; i < n; ++i) {
        const std::string idx = std::to_string(i);
        cgir::Stmt stmt;
        access_sink_ = &stmt.accesses;
        stmt.text = dst + "[" + idx + "] = " + elementwise_expr(actor, idx) + ";";
        access_sink_ = nullptr;
        stmt.accesses.push_back({dst, true, false});
        push(std::move(stmt));
      }
    } else {
      cgir::Stmt loop;
      loop.kind = cgir::Stmt::Kind::kLoop;
      loop.begin = 0;
      loop.end = n;
      loop.step = 1;
      // At -O2 conventional scalar loops join the fusion candidate set: the
      // same-shape fuser merges equal-length chains, and cross-scale fusion
      // strip-mines the survivors into adjacent vector loops.  These are
      // exactly the loops the HCG4xx SIMD-blocker remarks (no-simd-op,
      // scale-mismatch, ...) excluded from batch regions.  Kept off below
      // -O2 so -O0/-O1 output stays pinned.
      loop.fusible = config_.opt_level >= 2;
      cgir::Stmt body_line;
      access_sink_ = &body_line.accesses;
      body_line.text = dst + "[i] = " + elementwise_expr(actor, "i") + ";";
      access_sink_ = nullptr;
      body_line.accesses.push_back({dst, true, true});
      loop.body.push_back(std::move(body_line));
      push(std::move(loop));
    }
  }

  void emit_intensive(const Actor& actor) {
    const kernels::KernelImpl& impl = *intensive_impl_.at(actor.id());
    const std::string out = buffer_name_.at({actor.id(), 0});
    const std::string in0 = buffer_name_.at(source_of(actor.id(), 0));
    const bool inverse =
        actor.type() == "IFFT" || actor.type() == "IFFT2D";
    const Shape& shape0 = actor.input(0).shape;

    std::string call;
    std::string in1;
    switch (impl.sig) {
      case kernels::KernelSig::kFft1D:
        call = impl.c_function + "(" + in0 + ", " + out + ", " +
               std::to_string(shape0.elements()) + ", " +
               (inverse ? "1" : "0") + ");";
        break;
      case kernels::KernelSig::kFft2D:
        call = impl.c_function + "(" + in0 + ", " + out + ", " +
               std::to_string(shape0.dims[0]) + ", " +
               std::to_string(shape0.dims[1]) + ", " + (inverse ? "1" : "0") +
               ");";
        break;
      case kernels::KernelSig::kXform1D:
        call = impl.c_function + "(" + in0 + ", " + out + ", " +
               std::to_string(shape0.elements()) + ");";
        break;
      case kernels::KernelSig::kXform2D:
        call = impl.c_function + "(" + in0 + ", " + out + ", " +
               std::to_string(shape0.dims[0]) + ", " +
               std::to_string(shape0.dims[1]) + ");";
        break;
      case kernels::KernelSig::kConv1D: {
        in1 = buffer_name_.at(source_of(actor.id(), 1));
        const Shape& shape1 = actor.input(1).shape;
        call = impl.c_function + "(" + in0 + ", " +
               std::to_string(shape0.elements()) + ", " + in1 + ", " +
               std::to_string(shape1.elements()) + ", " + out + ");";
        break;
      }
      case kernels::KernelSig::kConv2D: {
        in1 = buffer_name_.at(source_of(actor.id(), 1));
        const Shape& shape1 = actor.input(1).shape;
        call = impl.c_function + "(" + in0 + ", " +
               std::to_string(shape0.dims[0]) + ", " +
               std::to_string(shape0.dims[1]) + ", " + in1 + ", " +
               std::to_string(shape1.dims[0]) + ", " +
               std::to_string(shape1.dims[1]) + ", " + out + ");";
        break;
      }
      case kernels::KernelSig::kMatMul: {
        in1 = buffer_name_.at(source_of(actor.id(), 1));
        call = impl.c_function + "(" + in0 + ", " + in1 + ", " + out + ", " +
               std::to_string(shape0.dims[0]) + ");";
        break;
      }
      case kernels::KernelSig::kMatInv:
      case kernels::KernelSig::kMatDet:
        call = impl.c_function + "(" + in0 + ", " + out + ", " +
               std::to_string(shape0.dims[0]) + ");";
        break;
    }
    if (call.empty()) {
      throw CodegenError("emit_intensive: bad kernel signature");
    }
    cgir::Stmt stmt = cgir::Stmt::text_line(std::move(call));
    stmt.accesses.push_back({out, true, false});
    stmt.accesses.push_back({in0, false, false});
    if (!in1.empty()) stmt.accesses.push_back({in1, false, false});
    if (config_.profile_gen) {
      stmt.prof_tag = "intensive:" + actor.name() + ":" + impl.id;
    }
    push(std::move(stmt));
  }

  // ------------------------------------------------------------------
  // Passes + printing
  // ------------------------------------------------------------------

  static bool verify_env_enabled() {
    const char* env = std::getenv("HCG_VERIFY");
    return env != nullptr && *env != '\0' && std::string_view(env) != "0";
  }

  /// Static tile width for the -O2 tiling pass when EmitConfig does not pin
  /// one: four vector strides of the widest planned region loop (so one tile
  /// is a handful of full SIMD iterations), 16 when nothing vectorized.
  /// Never derived from timings — output must be byte-identical across runs
  /// and job counts.
  int derive_tile_elems() const {
    int lanes = 0;
    for (const cgir::Stmt& stmt : tu_.step.body) {
      if (stmt.kind == cgir::Stmt::Kind::kLoop &&
          (stmt.vector_loop || stmt.single_iteration)) {
        lanes = std::max(lanes, stmt.step);
      }
    }
    return lanes > 0 ? 4 * lanes : 16;
  }

  void run_pass_pipeline() {
    const bool verify = config_.verify_cgir || verify_env_enabled();
    if (verify) {
      // Checkpoint "lower": the freshly lowered unit, before any pass.
      analysis::require_valid_unit(tu_, cgir::PassStats{}, "lower");
      out_.report.verified_passes.emplace_back("lower");
    }
    if (config_.dump_cgir_after == "lower") {
      out_.cgir_dump_after = cgir::dump(tu_);
    }
    // Buffer reuse runs at every level; fusion and forwarding are -O1+ only,
    // so the -O0 baselines keep the composition the paper compares against.
    cgir::PassOptions options;
    options.fuse_loops = config_.opt_level >= 1;
    options.reuse_arena = config_.reuse_buffers;
    if (config_.opt_level >= 2) {
      options.fuse_cross_scale = true;
      options.tile_scalar_loops = true;
      options.coalesce_layout = true;
      options.localize_strips = true;
      options.tile_elems = config_.tile_elems > 0 ? config_.tile_elems
                                                  : derive_tile_elems();
    }
    if (verify || !config_.dump_cgir_after.empty()) {
      options.after_pass = [this, verify](std::string_view pass,
                                          const cgir::TranslationUnit& tu,
                                          const cgir::PassStats& pass_stats) {
        if (verify) {
          analysis::require_valid_unit(tu, pass_stats, pass);
          out_.report.verified_passes.emplace_back(pass);
        }
        if (pass == config_.dump_cgir_after) {
          out_.cgir_dump_after = cgir::dump(tu);
        }
      };
    }
    const cgir::PassStats stats = cgir::run_passes(tu_, options);
    if (config_.profile_gen) {
      // After the passes (the instrumented loops are the final ones) and
      // after the last verifier checkpoint (the injected HCG_PROF_* text
      // statements are not part of the verified dataflow).
      cgir::ProfileOptions profile_options;
      profile_options.model_name = model_.name();
      out_.profile_sites = cgir::instrument_profiling(tu_, profile_options);
    }
    source_ = cgir::print(tu_);
    out_.cgir_dump = cgir::dump(tu_);

    out_.static_buffer_bytes = 0;
    for (const cgir::BufferDecl& decl : tu_.buffers) {
      out_.static_buffer_bytes += decl.bytes();
    }

    out_.report.opt_level = config_.opt_level;
    out_.report.loops_fused = stats.loops_fused;
    out_.report.copies_elided = stats.copies_elided;
    out_.report.arena_bytes_saved = stats.arena_bytes_saved;
    out_.report.cross_scale_fused = stats.cross_scale_fused;
    out_.report.loops_tiled = stats.loops_tiled;
    out_.report.buffers_relocated = stats.buffers_relocated;
    out_.report.stride1_accesses = stats.stride1_accesses;
    out_.report.strips_localized = stats.strips_localized;
    static obs::Counter& fusion_metric =
        obs::Registry::instance().counter("codegen.fusion.loops_fused");
    static obs::Counter& arena_metric =
        obs::Registry::instance().counter("codegen.arena.bytes_saved");
    static obs::Counter& cross_scale_metric = obs::Registry::instance().counter(
        "codegen.fusion.cross_scale_fused");
    static obs::Counter& tile_metric =
        obs::Registry::instance().counter("codegen.tile.loops_tiled");
    static obs::Counter& stride1_metric = obs::Registry::instance().counter(
        "codegen.layout.stride1_accesses");
    fusion_metric.add(static_cast<std::uint64_t>(stats.loops_fused));
    arena_metric.add(stats.arena_bytes_saved);
    cross_scale_metric.add(static_cast<std::uint64_t>(stats.cross_scale_fused));
    tile_metric.add(static_cast<std::uint64_t>(stats.loops_tiled));
    stride1_metric.add(static_cast<std::uint64_t>(stats.stride1_accesses));

    // -O2 pass remarks, mirrored into the report like lint findings so a
    // --report consumer sees where the new passes fired.
    auto remark = [this](std::string code, std::string message) {
      obs::ReportDiagnostic diag;
      diag.code = std::move(code);
      diag.severity = "remark";
      diag.location = model_.name() + ": step";
      diag.message = std::move(message);
      out_.report.diagnostics.push_back(std::move(diag));
    };
    if (stats.cross_scale_fused > 0) {
      remark("HCG408", std::to_string(stats.cross_scale_fused) +
                           " scalar loop(s) strip-mined and fused across a "
                           "scale boundary");
    }
    if (stats.loops_tiled > 0) {
      remark("HCG409", std::to_string(stats.loops_tiled) +
                           " scalar loop(s) tiled into constant-trip chunks");
    }
    if (stats.buffers_relocated > 0) {
      remark("HCG410", std::to_string(stats.buffers_relocated) +
                           " buffer declaration(s) re-ordered for coalesced "
                           "stride-1 access");
    }
  }

  // ------------------------------------------------------------------

  Model model_;
  EmitConfig config_;
  GeneratedCode out_;
  std::string source_;
  cgir::TranslationUnit tu_;
  /// When non-null, element_expr records buffer reads here (the statement
  /// currently being built).
  std::vector<cgir::BufferAccess>* access_sink_ = nullptr;
  std::vector<BatchRegion> regions_;
  std::map<ActorId, int> region_of_;
  /// Per-region Algorithm 2 results, index-aligned with regions_.
  std::vector<synth::BatchSynthResult> region_synth_;
  std::vector<EmissionItem> order_;
  /// In-run single-flight cache + fallback history for Algorithm 1 (used
  /// when the caller provides no persistent history).
  synth::SingleFlightSelector selector_;
  synth::SelectionHistory local_history_;
  std::map<ActorId, const kernels::KernelImpl*> intensive_impl_;
  std::set<std::string> kernel_sources_;
  std::set<ActorId> folded_;
  std::set<ActorId> register_only_;
  std::set<ActorId> direct_outports_;
  std::map<SignalId, std::string> buffer_name_;
  /// One pending end-of-step register copy (see flush_delay_updates()).
  struct DelayUpdate {
    std::string state;   // the delay's register/output buffer (written)
    std::string src;     // the buffer feeding the delay's input (read)
    int components = 0;  // scalar components to copy
    std::string c_type;  // element C type for sizeof
  };
  std::vector<DelayUpdate> delay_updates_;
  bool simd_emitted_ = false;
  double resolve_ms_ = 0.0;
};

}  // namespace

GeneratedCode emit_model(const Model& model, const EmitConfig& config) {
  return Emitter(model, config).run();
}

}  // namespace hcg::codegen
