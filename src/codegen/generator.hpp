// Code generation: the common emitter all three tools share, plus the
// configuration knobs that differentiate them.
//
// Every generator produces a self-contained C translation unit with the ABI
//   void <model>_init(void);
//   void <model>_step(const void* const* inputs, void* const* outputs);
// where inputs/outputs carry one pointer per Inport/Outport in declaration
// order.  Complex (c64) signals are interleaved float arrays.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cgir/passes.hpp"
#include "isa/instruction.hpp"
#include "model/model.hpp"
#include "obs/report.hpp"
#include "synth/batch.hpp"
#include "synth/history.hpp"
#include "synth/intensive.hpp"

namespace hcg::codegen {

/// How element-wise (batch) actors are translated.
enum class BatchMode : std::uint8_t {
  kScalarLoops,      // one scalar loop per actor (DFSynth style)
  kUnrollThenLoops,  // unrolled statements below a threshold, else loops
                     // (Simulink Coder style, paper Figure 2)
  kScattered,        // one *vectorized* loop per actor, load/store each pass
                     // (Simulink Coder on Intel, paper §4.2 / Figure 5(b))
  kRegions,          // Algorithm 2: fused SIMD over whole regions (HCG)
};

struct EmitConfig {
  std::string tool_name = "hcg";
  BatchMode batch_mode = BatchMode::kRegions;
  /// Worker threads for the parallel synthesis engine (intensive actor
  /// pre-calculation and Algorithm 2 region matching).  0 = the process
  /// default (`hcgc --jobs`, HCG_JOBS, else hardware concurrency); 1 runs
  /// everything inline on the calling thread.
  int jobs = 0;
  /// Instruction table for kScattered / kRegions; may be null otherwise.
  const isa::VectorIsa* isa = nullptr;
  /// kUnrollThenLoops: arrays up to this length are fully unrolled.
  int unroll_threshold = 32;
  /// Fold single-consumer scalar expressions into their consumer
  /// (Simulink Coder's "expression folding").
  bool fold_scalar_expressions = false;
  /// Reuse signal buffers whose live ranges do not overlap
  /// (Simulink Coder's "output variable reuse"; HCG inherits it): the cgir
  /// reuse_arena pass rebinds intermediate buffers onto shared slots, at
  /// every opt level.
  bool reuse_buffers = false;
  /// Optimization level for the cgir pass pipeline run over the lowered
  /// translation unit.  0 = no loop passes (buffer reuse only, when
  /// reuse_buffers is set); 1 = region loop fusion + copy forwarding;
  /// 2 = additionally cross-scale producer-consumer fusion (strip-mining),
  /// scalar-loop tiling, and coalescing-aware buffer layout.
  int opt_level = 0;
  /// Tile width (elements) for the -O2 scalar-loop tiling pass; 0 derives a
  /// static width from the region plan's vector lane count (4 lanes).  Pin
  /// it when external measured-cost data (hcgc profile, the kernel-sweep
  /// benches) identifies a better width for the target.
  int tile_elems = 0;
  /// When non-empty, capture a "cgir-v1" dump of the unit as it stood
  /// right after the named pass ("lower", "fuse_loops", "fuse_cross_scale",
  /// "forward_copies", "eliminate_dead_buffers", "tile_loops",
  /// "reuse_arena", "coalesce_layout") into GeneratedCode::cgir_dump_after
  /// (the `hcgc --dump-cgir-after=<pass>` surface).
  std::string dump_cgir_after;
  /// Run the cgir verifier (analysis/verifier.hpp) over the lowered unit and
  /// again after every -O1 pass; an invariant violation throws CodegenError
  /// naming the pass that broke it.  Also enabled process-wide by the
  /// HCG_VERIFY environment variable (any value except "" / "0"), which is
  /// how the test suite keeps it always-on.
  bool verify_cgir = false;
  /// Instrument the final unit with per-region profiling counters (the
  /// `hcgc --profile-gen` surface; see docs/PROFILING.md).  The counters are
  /// guarded by the HCG_PROF preprocessor macro, so without -DHCG_PROF the
  /// compiled behavior is unchanged — but the emitted *text* differs, which
  /// is why this is off by default (byte-identity with the historical
  /// emitter).  Instrumentation runs after the -O1 passes and after the last
  /// verifier checkpoint.
  bool profile_gen = false;
  /// Algorithm 1 implementation selection; false = generic implementations.
  bool select_intensive = false;
  synth::SelectionHistory* history = nullptr;  // used when select_intensive
  synth::IntensiveOptions intensive_options;
  synth::BatchOptions batch_options;
};

struct GeneratedCode {
  std::string source;
  std::string model_name;
  std::string init_symbol;
  std::string step_symbol;
  std::string tool_name;
  /// Compiler flags the ISA needs (e.g. "-mavx2 -mfma"); space separated.
  std::string compile_flags;
  /// True when the source includes hcg_neon_sim.h (needs -I<data dir>).
  bool needs_neon_sim = false;

  // ---- reproducibility metadata (white-box test & bench surface) ----------
  /// SIMD instruction names emitted, in order.
  std::vector<std::string> simd_instructions;
  /// Intensive actor name -> selected implementation id.
  std::map<std::string, std::string> intensive_choices;
  /// Total bytes of static signal/state buffers (memory-parity experiment).
  std::size_t static_buffer_bytes = 0;
  /// Number of batch regions fused by Algorithm 2.
  int fused_regions = 0;
  /// "cgir-v1" serialization of the translation unit after passes (the
  /// `hcgc --dump-cgir` surface; cgir::parse_dump() round-trips it).
  std::string cgir_dump;
  /// "cgir-v1" snapshot captured right after the pass named by
  /// EmitConfig::dump_cgir_after; empty when that option is unset or the
  /// named pass never ran at the chosen opt level.
  std::string cgir_dump_after;
  /// Profiling sites instrumented into the unit (empty unless
  /// EmitConfig::profile_gen); index order matches the HCG_PROF counters
  /// and the `hcg-profile-v1` dump.
  std::vector<cgir::ProfileSite> profile_sites;

  /// Structured account of this generation run: per-phase timings, every
  /// Algorithm 1 choice with its measured candidate times, and every
  /// Algorithm 2 region with its matched instructions.  Serialized by
  /// `hcgc --report`; see docs/OBSERVABILITY.md for the schema.
  obs::Report report;
};

/// Emits C code for a model (resolved internally) under a configuration.
GeneratedCode emit_model(const Model& model, const EmitConfig& config);

/// Per-run emitter tuning shared by the three tool factories: knobs that do
/// not differentiate the tools but parameterize one invocation (the hcgc
/// surface).  Both fields default to "off" so existing callers are
/// unaffected.
struct EmitTuning {
  /// EmitConfig::tile_elems — -O2 tile width override (0 = derive).
  int tile_elems = 0;
  /// EmitConfig::dump_cgir_after — pass name to snapshot, or empty.
  std::string dump_cgir_after;
};

/// Abstract tool interface.
class Generator {
 public:
  virtual ~Generator() = default;
  virtual std::string name() const = 0;
  virtual GeneratedCode generate(const Model& model) = 0;
};

/// The HCG generator (this paper): Algorithm 1 + Algorithm 2 against the
/// given instruction table.  The history is shared across calls.
/// `opt_level` selects the cgir pass pipeline (default -O1).
std::unique_ptr<Generator> make_hcg_generator(const isa::VectorIsa& isa,
                                              synth::SelectionHistory* history = nullptr,
                                              synth::BatchOptions batch_options = {},
                                              int opt_level = 1,
                                              bool profile_gen = false,
                                              EmitTuning tuning = {});

/// Simulink-Coder-like baseline: expression folding, variable reuse,
/// unrolled scalar statements (Figure 2), generic intensive functions.
/// `scattered_isa` enables the per-actor scattered-SIMD mode of §4.2.
std::unique_ptr<Generator> make_simulink_generator(
    const isa::VectorIsa* scattered_isa = nullptr, int opt_level = 0,
    EmitTuning tuning = {});

/// DFSynth-like baseline: per-actor loop code, generic intensive functions.
std::unique_ptr<Generator> make_dfsynth_generator(int opt_level = 0,
                                                  EmitTuning tuning = {});

}  // namespace hcg::codegen
