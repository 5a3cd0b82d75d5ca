// hcgc — the HCG command-line code generator.
//
//   hcgc generate <model.xml> [--tool hcg|simulink|dfsynth] [--isa NAME|FILE]
//                 [--out FILE] [--history FILE] [--threshold N] [--scattered]
//                 [--report FILE] [--trace FILE] [--jobs N] [-O0|-O1|-O2]
//                 [--dump-cgir] [--dump-cgir-after=PASS]
//   hcgc inspect  <model.xml> [--isa NAME|FILE]
//   hcgc lint     <model.xml> [--isa NAME|FILE] [--threshold N]
//                 [--Werror] [--no-remarks] [--sarif FILE] [--report FILE]
//   hcgc verify   <model.xml> [--tool ...] [--isa ...] [--seed N]
//                 [--cc-timeout SEC] [--cc-retries N]
//   hcgc bench    <model.xml> [--isa NAME|FILE] [--seed N]
//   hcgc profile  <model.xml> [--isa NAME|FILE] [--reps N]
//                 [--err-threshold PCT] [--report FILE] [--history FILE]
//                 [--cc-timeout SEC] [--cc-retries N]
//   hcgc isa      [NAME]
//
// generate: emit deployable C for a model (default: HCG against neon).
//           The subcommand may be omitted: `hcgc model.xml [flags]` and
//           `hcgc --flag ... model.xml` run generate.
// inspect : print actors, classification, batch regions and their graphs.
// lint    : static analysis (docs/ANALYSIS.md) — structural checks, type
//           resolution, and vectorization-blocker remarks explaining per
//           region why Algorithm 2 did or did not vectorize it.  Findings
//           print to stdout; --sarif exports SARIF 2.1.0 for code scanning.
//           Exit 0 when only warnings/remarks, 8 when errors were found
//           (--Werror promotes warnings to errors first).
// verify  : generate, compile with the host cc, run one step on random
//           input, and compare against the built-in simulator.
// bench   : compile all three tools' output and time steps side by side.
// profile : generate with --profile-gen instrumentation, compile + run a
//           standalone harness for N reps, and join each region's measured
//           runtime against Algorithm 1's selection-time cost
//           (docs/PROFILING.md).  When the harness cannot run the command
//           degrades to a profile-less report with an HCG502 warning
//           instead of failing.
// isa     : list the built-in instruction tables, or dump one as text.
//
// Observability (docs/OBSERVABILITY.md):
//   --report FILE   write a machine-readable JSON codegen report.
//   --trace FILE    write a Chrome trace-event JSON file of pipeline spans.
//   HCG_TRACE       like --trace; the value "summary" (or "1") prints a
//                   human-readable span tree to stderr instead.
//   HCG_LOG         log threshold: debug|info|warn|error|off.
//
// Parallelism (docs/PARALLELISM.md):
//   --jobs N        synthesis worker threads (1 = fully serial).  Defaults
//                   to HCG_JOBS, else the hardware concurrency.
//
// Optimization (docs/CODEGEN_IR.md):
//   -O0 | -O1 | -O2 cgir pass pipeline level.  -O1 (the hcg default) fuses
//                   batch-region loops, forwards loads into stores, and
//                   rebinds intermediate buffers into a shared arena; -O2
//                   additionally strip-mines scalar loops into adjacent
//                   vector loops (cross-scale fusion), tiles the remaining
//                   scalar loops, and re-orders buffer declarations for
//                   coalesced stride-1 access; -O0 (the baseline tools'
//                   default) prints the plain lowering.
//   --dump-cgir     print the "cgir-v1" serialization of the optimized IR
//                   instead of C source.
//   --tile-elems N  -O2 tile width (elements); default derives a static
//                   width from the region plan, and measured-cost data
//                   (hcgc profile, the kernel-sweep benches) is the intended
//                   source of an override.
//   --dump-cgir-after=PASS
//                   print the "cgir-v1" snapshot taken right after PASS ran
//                   (lower, fuse_loops, fuse_cross_scale, forward_copies,
//                   eliminate_dead_buffers, tile_loops, reuse_arena,
//                   coalesce_layout, localize_strips) instead of C source.
//                   Errors when the
//                   pass never ran at the chosen -O level.
//
// Profiling (docs/PROFILING.md):
//   --profile-gen   instrument the emitted unit with HCG_PROF counters
//                   (generate, hcg tool only; off keeps output byte-identical).
//   --reps N        step() repetitions the profile harness performs.
//   --err-threshold PCT  prediction error (percent) above which profile
//                   emits an HCG501 costmodel-mispredict remark.
//
// Robustness (docs/ROBUSTNESS.md):
//   --cc-timeout S  wall-clock limit per compiler invocation (verify/bench);
//                   a hung cc is killed, whole process group.
//   --cc-retries N  spawn retries when the compiler process cannot start.
//   HCG_FAULTS      deterministic fault injection spec (testing only).
//
// Static analysis (docs/ANALYSIS.md):
//   --verify-cgir   run the cgir verifier after lowering and after every
//                   -O1 pass (generate/verify/bench); equivalent to
//                   HCG_VERIFY=1.
//
// Exit codes: 0 ok, 1 verify mismatch/other error, 2 usage, 3 parse error,
// 4 invalid model, 5 synthesis failure, 6 codegen failure, 7 toolchain
// failure, 8 lint errors, 10 fuzz counterexample found, 70 internal error.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "actors/catalog.hpp"
#include "actors/resolve.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/linter.hpp"
#include "analysis/sarif.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "fuzz/campaign.hpp"
#include "graph/regions.hpp"
#include "isa/builtin.hpp"
#include "isa/isa_parse.hpp"
#include "model/loader.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/faults.hpp"
#include "support/fileio.hpp"
#include "support/strings.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"
#include "toolchain/compiled_model.hpp"
#include "toolchain/profile_runner.hpp"
#include "vm/interpreter.hpp"

namespace {

using namespace hcg;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hcgc generate <model.xml> [--tool hcg|simulink|dfsynth]\n"
               "                [--isa NAME|FILE] [--out FILE]\n"
               "                [--history FILE] [--threshold N] [--scattered]\n"
               "                [--report FILE] [--trace FILE] [--jobs N]\n"
               "                [-O0|-O1|-O2] [--tile-elems N] [--dump-cgir]\n"
               "                [--dump-cgir-after=PASS]\n"
               "  hcgc inspect  <model.xml> [--isa NAME|FILE]\n"
               "  hcgc lint     <model.xml> [--isa NAME|FILE] [--threshold N]\n"
               "                [--Werror] [--no-remarks] [--sarif FILE]\n"
               "                [--report FILE]\n"
               "  hcgc verify   <model.xml> [--tool ...] [--isa ...] [--seed N]\n"
               "                [--cc-timeout SEC] [--cc-retries N]\n"
               "  hcgc bench    <model.xml> [--isa NAME|FILE] [--seed N]\n"
               "  hcgc profile  <model.xml> [--isa NAME|FILE] [--reps N]\n"
               "                [--err-threshold PCT] [--report FILE]\n"
               "                [--history FILE] [--cc-timeout SEC]\n"
               "                [--cc-retries N]\n"
               "  hcgc fuzz     [--seeds N] [--seed FIRST] [--isa A,B]\n"
               "                [-O0|-O1|-O2] [--corpus DIR] [--report FILE]\n"
               "                [--sweep-faults] [--max-actors N]\n"
               "                [--no-minimize] [--no-baselines]\n"
               "  hcgc faults\n"
               "  hcgc isa      [NAME]\n"
               "(the generate subcommand may be omitted)\n"
               "env: HCG_LOG=debug|info|warn|error|off   HCG_TRACE=FILE|summary\n"
               "     HCG_JOBS=N synthesis worker threads (--jobs overrides)\n"
               "     HCG_VERIFY=1 cgir verifier on (--verify-cgir equivalent)\n"
               "exit codes: 0 ok, 1 error/mismatch, 2 usage, 3 parse,\n"
               "            4 model, 5 synthesis, 6 codegen, 7 toolchain,\n"
               "            8 lint errors, 10 fuzz counterexample,\n"
               "            70 internal\n");
  return 2;
}

struct Options {
  std::string command;
  std::string model_path;
  std::string tool = "hcg";
  std::string isa_name = "neon";
  std::string out_path;
  std::string history_path;
  std::string report_path;
  std::string trace_path;        // file path, or "summary" for stderr
  bool trace_from_env = false;
  int threshold = 0;
  int jobs = 0;  // 0 = HCG_JOBS env, else hardware concurrency
  int opt_level = -1;  // -1 = the tool's default (hcg: 1, baselines: 0)
  int tile_elems = 0;  // -O2 tile width override; 0 = derive statically
  bool dump_cgir = false;
  std::string dump_cgir_after;  // pass name to snapshot; empty = off
  bool scattered = false;
  bool verify_cgir = false;
  bool werror = false;       // lint: promote warnings to errors
  bool no_remarks = false;   // lint: suppress HCG4xx remarks
  std::string sarif_path;    // lint: SARIF 2.1.0 output file
  std::uint64_t seed = 42;
  double cc_timeout = -1.0;  // < 0 = CompileOptions default
  int cc_retries = -1;       // < 0 = CompileOptions default
  bool profile_gen = false;     // generate: instrument with HCG_PROF counters
  int reps = 200;               // profile: harness step() repetitions
  double err_threshold = 50.0;  // profile: HCG501 remark above this error %
  bool isa_set = false;         // --isa given explicitly (fuzz default keys off this)
  int seeds = 200;              // fuzz: campaign seed count
  int max_actors = 20;          // fuzz: generator actor budget
  std::string corpus_dir;       // fuzz: reproducer output directory
  bool sweep_faults = false;    // fuzz: degraded-mode sweep per seed
  bool no_minimize = false;     // fuzz: skip counterexample shrinking
  bool no_baselines = false;    // fuzz: drop simulink/dfsynth partners
};

bool known_command(const std::string& name) {
  return name == "generate" || name == "inspect" || name == "lint" ||
         name == "verify" || name == "bench" || name == "profile" ||
         name == "isa" || name == "fuzz" || name == "faults";
}

/// Reads the value of a numeric flag strictly: the whole text must be one
/// finite number of type T, at least `lo`.  An empty value, trailing
/// characters, or a value out of range is a usage error naming `expected`.
template <typename T>
T flag_number(const std::string& flag, std::string_view text, T lo,
              const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && ec == std::errc() && stop == end && value >= lo;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw Error(flag + " needs " + expected + ", got '" + std::string(text) +
                "'");
  }
  return value;
}

bool parse_args(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  int start = 2;
  if (!known_command(opt.command)) {
    // Allow omitting the subcommand: `hcgc --isa neon model.xml` and
    // `hcgc model.xml` default to generate.  A bare unknown word (neither a
    // flag nor an existing file) still falls through to usage.
    if (opt.command.rfind("-", 0) == 0 ||
        std::filesystem::exists(opt.command)) {
      opt.command = "generate";
      start = 1;
    } else {
      return true;  // main() rejects the unknown command with usage()
    }
  }
  int position = 0;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw Error("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--tool") {
      opt.tool = value();
    } else if (arg == "--isa") {
      opt.isa_name = value();
      opt.isa_set = true;
    } else if (arg == "--out") {
      opt.out_path = value();
    } else if (arg == "--history") {
      opt.history_path = value();
    } else if (arg == "--threshold") {
      opt.threshold = flag_number<int>(arg, value(), 0, "a node count >= 0");
    } else if (arg == "--jobs") {
      opt.jobs = flag_number<int>(arg, value(), 1, "a positive thread count");
    } else if (arg == "--seed") {
      opt.seed = flag_number<std::uint64_t>(arg, value(), 0, "a seed >= 0");
    } else if (arg == "--cc-timeout") {
      opt.cc_timeout = flag_number<double>(arg, value(), 0.0, "seconds >= 0");
    } else if (arg == "--cc-retries") {
      opt.cc_retries = flag_number<int>(arg, value(), 0, "a count >= 0");
    } else if (arg == "--report") {
      opt.report_path = value();
    } else if (arg == "--trace") {
      opt.trace_path = value();
      opt.trace_from_env = false;
    } else if (arg == "--scattered") {
      opt.scattered = true;
    } else if (arg == "-O0") {
      opt.opt_level = 0;
    } else if (arg == "-O1") {
      opt.opt_level = 1;
    } else if (arg == "-O2") {
      opt.opt_level = 2;
    } else if (arg == "--tile-elems") {
      opt.tile_elems = flag_number<int>(arg, value(), 2, "a width >= 2");
    } else if (arg == "--dump-cgir") {
      opt.dump_cgir = true;
    } else if (arg.rfind("--dump-cgir-after=", 0) == 0) {
      opt.dump_cgir_after = arg.substr(std::strlen("--dump-cgir-after="));
      static const char* const kPasses[] = {
          "lower",      "fuse_loops",  "fuse_cross_scale",
          "forward_copies", "eliminate_dead_buffers", "tile_loops",
          "reuse_arena", "coalesce_layout", "localize_strips"};
      bool known = false;
      for (const char* pass : kPasses) known |= opt.dump_cgir_after == pass;
      if (!known) {
        throw Error("unknown pass '" + opt.dump_cgir_after +
                    "' for --dump-cgir-after");
      }
    } else if (arg == "--profile-gen") {
      opt.profile_gen = true;
    } else if (arg == "--reps") {
      opt.reps = flag_number<int>(arg, value(), 1, "a positive count");
    } else if (arg == "--err-threshold") {
      opt.err_threshold =
          flag_number<double>(arg, value(), 0.0, "a percentage >= 0");
    } else if (arg == "--seeds") {
      opt.seeds = flag_number<int>(arg, value(), 1, "a positive count");
    } else if (arg == "--max-actors") {
      opt.max_actors = flag_number<int>(arg, value(), 1, "a count >= 1");
    } else if (arg == "--corpus") {
      opt.corpus_dir = value();
    } else if (arg == "--sweep-faults") {
      opt.sweep_faults = true;
    } else if (arg == "--no-minimize") {
      opt.no_minimize = true;
    } else if (arg == "--no-baselines") {
      opt.no_baselines = true;
    } else if (arg == "--verify-cgir") {
      opt.verify_cgir = true;
    } else if (arg == "--Werror") {
      opt.werror = true;
    } else if (arg == "--no-remarks") {
      opt.no_remarks = true;
    } else if (arg == "--sarif") {
      opt.sarif_path = value();
    } else if (!arg.empty() && arg[0] == '-') {
      throw Error("unknown option " + arg);
    } else if (position++ == 0) {
      opt.model_path = arg;
    } else {
      throw Error("unexpected argument " + arg);
    }
  }
  return true;
}

/// Resolves --isa as a built-in name first, else as a .isa file path.
const isa::VectorIsa& resolve_isa(const std::string& name,
                                  isa::VectorIsa& file_storage) {
  for (const std::string& builtin_name : isa::builtin_names()) {
    if (builtin_name == name) return isa::builtin(name);
  }
  file_storage = isa::load_isa_file(name);
  return file_storage;
}

std::unique_ptr<codegen::Generator> make_tool(const Options& opt,
                                              const isa::VectorIsa& table,
                                              synth::SelectionHistory* history) {
  codegen::EmitTuning tuning;
  tuning.tile_elems = opt.tile_elems;
  tuning.dump_cgir_after = opt.dump_cgir_after;
  if (opt.tool == "hcg") {
    synth::BatchOptions batch;
    batch.min_nodes_for_simd = opt.threshold;
    return codegen::make_hcg_generator(table, history, batch,
                                       opt.opt_level < 0 ? 1 : opt.opt_level,
                                       opt.profile_gen, tuning);
  }
  if (opt.profile_gen) {
    throw Error("--profile-gen is only supported with --tool hcg");
  }
  const int level = opt.opt_level < 0 ? 0 : opt.opt_level;
  if (opt.tool == "simulink") {
    return codegen::make_simulink_generator(opt.scattered ? &table : nullptr,
                                            level, tuning);
  }
  if (opt.tool == "dfsynth") {
    return codegen::make_dfsynth_generator(level, tuning);
  }
  throw Error("unknown tool '" + opt.tool + "' (hcg|simulink|dfsynth)");
}

toolchain::CompileOptions compile_options(const Options& opt) {
  toolchain::CompileOptions cc;
  if (opt.cc_timeout >= 0) cc.timeout_seconds = opt.cc_timeout;
  if (opt.cc_retries >= 0) cc.spawn_retries = opt.cc_retries;
  return cc;
}

/// One stderr line per degraded Algorithm 1 decision, so a terminal user
/// sees lossy runs without opening the report JSON.
void warn_degraded(const codegen::GeneratedCode& code) {
  for (const auto& fallback : code.report.degraded) {
    std::fprintf(stderr, "degraded: %s lost %zu candidate(s)%s -> %s\n",
                 fallback.actor.c_str(), fallback.failures.size(),
                 fallback.reference_fallback ? ", using reference" : "",
                 fallback.impl.c_str());
  }
}

/// Fills the CLI-level report fields (load phase, history stats) and writes
/// the report JSON when requested.
void finish_report(const Options& opt, codegen::GeneratedCode& code,
                   double load_ms, const synth::SelectionHistory& history) {
  code.report.phases.insert(code.report.phases.begin(),
                            {"model.load", load_ms});
  code.report.history_hits = history.hits();
  code.report.history_misses = history.misses();
  code.report.history_entries = history.size();
  if (!opt.report_path.empty()) {
    write_file(opt.report_path, code.report.to_json());
    std::fprintf(stderr, "wrote report %s\n", opt.report_path.c_str());
  }
}

int cmd_generate(const Options& opt) {
  Stopwatch load_timer;
  // Unresolved: the emitter resolves its own copy (an invalid model still
  // fails there with a ModelError).
  const Model model = load_model_file(opt.model_path);
  const double load_ms = load_timer.elapsed_seconds() * 1e3;
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  synth::SelectionHistory history;
  if (!opt.history_path.empty() &&
      std::filesystem::exists(opt.history_path)) {
    synth::SelectionHistory::LoadStats stats;
    history = synth::SelectionHistory::load(opt.history_path, &stats);
    if (stats.dropped > 0) {
      std::fprintf(stderr, "history: dropped %zu corrupt line(s) from %s\n",
                   stats.dropped, opt.history_path.c_str());
    }
  }

  auto tool = make_tool(opt, table, &history);
  codegen::GeneratedCode code = tool->generate(model);
  warn_degraded(code);

  if (!opt.history_path.empty()) history.save(opt.history_path);

  if (!opt.dump_cgir_after.empty() && code.cgir_dump_after.empty()) {
    throw Error("pass '" + opt.dump_cgir_after +
                "' did not run at the chosen -O level");
  }
  const std::string& payload = opt.dump_cgir ? code.cgir_dump
                               : !opt.dump_cgir_after.empty()
                                   ? code.cgir_dump_after
                                   : code.source;
  if (opt.out_path.empty()) {
    std::fputs(payload.c_str(), stdout);
  } else {
    write_file(opt.out_path, payload);
    std::fprintf(stderr, "wrote %s (%zu bytes)\n", opt.out_path.c_str(),
                 payload.size());
  }
  if (!code.simd_instructions.empty()) {
    std::fprintf(stderr, "SIMD instructions:");
    for (const auto& name : code.simd_instructions) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
  }
  for (const auto& [actor, impl] : code.intensive_choices) {
    std::fprintf(stderr, "intensive %s -> %s\n", actor.c_str(), impl.c_str());
  }
  if (opt.tool == "hcg") {
    std::fprintf(stderr, "history: %llu hits, %llu misses (%zu entries)\n",
                 static_cast<unsigned long long>(history.hits()),
                 static_cast<unsigned long long>(history.misses()),
                 history.size());
  }
  if (!code.compile_flags.empty()) {
    std::fprintf(stderr, "compile with: %s\n", code.compile_flags.c_str());
  }
  finish_report(opt, code, load_ms, history);
  return 0;
}

int cmd_inspect(const Options& opt) {
  Model model = resolved(load_model_file(opt.model_path));
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  std::printf("model '%s': %d actors, %zu connections\n",
              model.name().c_str(), model.actor_count(),
              model.connections().size());
  for (const Actor& actor : model.actors()) {
    std::printf("  %-12s %-10s", actor.name().c_str(), actor.type().c_str());
    if (actor.output_count() > 0) {
      std::printf(" -> %-12s", actor.output(0).to_string().c_str());
    } else {
      std::printf("    %-12s", "");
    }
    std::printf(" [%s]\n",
                std::string(kind_name(classify(model, actor.id()))).c_str());
  }

  const auto regions = find_batch_regions(model, table);
  std::printf("\nbatch regions against isa '%s': %zu\n", table.name.c_str(),
              regions.size());
  for (size_t r = 0; r < regions.size(); ++r) {
    std::printf("region %zu (%zu actors):\n%s", r, regions[r].actors.size(),
                regions[r].graph.to_string().c_str());
  }
  return 0;
}

int cmd_lint(const Options& opt) {
  Model model = load_model_file(opt.model_path);
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  analysis::LintOptions lint;
  lint.isa = &table;
  lint.min_nodes_for_simd = opt.threshold;
  lint.remarks = !opt.no_remarks;
  analysis::DiagnosticEngine diags(opt.werror);
  const analysis::RangeAnalysis ranges =
      analysis::lint_model(model, lint, diags);

  std::fputs(diags.render(opt.model_path).c_str(), stdout);
  if (!opt.sarif_path.empty()) {
    write_file(opt.sarif_path,
               analysis::to_sarif(diags.diagnostics(),
                                  analysis::sarif_artifact_uri(
                                      opt.model_path)));
    std::fprintf(stderr, "wrote sarif %s\n", opt.sarif_path.c_str());
  }
  if (!opt.report_path.empty()) {
    obs::Report report;
    report.model = model.name();
    report.tool = "lint";
    report.isa = table.name;
    report.actor_count = model.actor_count();
    for (const analysis::Diagnostic& diag : diags.diagnostics()) {
      report.diagnostics.push_back(
          {diag.code, std::string(analysis::severity_name(diag.severity)),
           diag.location, diag.message});
    }
    if (ranges.actors_analyzed > 0) {
      report.range_ran = true;
      report.range_actors_analyzed = ranges.actors_analyzed;
      report.range_bounded_outputs = ranges.bounded_outputs;
      report.range_widened_delays = ranges.widened_delays;
    }
    write_file(opt.report_path, report.to_json());
    std::fprintf(stderr, "wrote report %s\n", opt.report_path.c_str());
  }
  // Contract (docs/ANALYSIS.md): warnings and remarks exit 0, errors — or
  // warnings under --Werror, which the engine already promoted — exit 8.
  return diags.has_errors() ? 8 : 0;
}

int cmd_verify(const Options& opt) {
  Stopwatch load_timer;
  Model model = resolved(load_model_file(opt.model_path));
  const double load_ms = load_timer.elapsed_seconds() * 1e3;
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  synth::SelectionHistory history;
  auto tool = make_tool(opt, table, &history);
  codegen::GeneratedCode code = tool->generate(model);
  warn_degraded(code);

  toolchain::CompiledModel compiled(code, compile_options(opt));
  code.report.compile_ms = compiled.compile_seconds() * 1e3;
  code.report.compile_command = compiled.compile_command();
  finish_report(opt, code, load_ms, history);
  compiled.init();

  std::vector<Tensor> inputs = benchmodels::workload(model, opt.seed);
  Interpreter oracle(model);
  oracle.init();
  std::vector<Tensor> expected = oracle.step(inputs);
  std::vector<Tensor> got = compiled.step_tensors(model, inputs);

  double worst = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, got[i].max_abs_difference(expected[i]));
  }
  std::printf("%s [%s/%s]: max |generated - simulated| = %g over %zu "
              "output(s)\n",
              model.name().c_str(), opt.tool.c_str(), table.name.c_str(),
              worst, got.size());
  const bool ok = worst <= 1e-2;
  std::printf("%s\n", ok ? "VERIFY OK" : "VERIFY FAILED");
  return ok ? 0 : 1;
}

int cmd_bench(const Options& opt) {
  Model model = resolved(load_model_file(opt.model_path));
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  std::vector<Tensor> inputs = benchmodels::workload(model, opt.seed);
  std::vector<const void*> in_ptrs;
  for (const Tensor& t : inputs) in_ptrs.push_back(t.data());
  std::vector<Tensor> outputs;
  for (ActorId id : model.outports()) {
    outputs.push_back(make_tensor(model.actor(id).input(0)));
  }
  std::vector<void*> out_ptrs;
  for (Tensor& t : outputs) out_ptrs.push_back(t.data());

  struct Row {
    const char* label;
    std::unique_ptr<codegen::Generator> tool;
  };
  Row rows[3] = {
      {"simulink", codegen::make_simulink_generator()},
      {"dfsynth", codegen::make_dfsynth_generator()},
      {"hcg", nullptr},
  };
  synth::SelectionHistory history;
  synth::BatchOptions batch;
  batch.min_nodes_for_simd = opt.threshold;
  rows[2].tool = codegen::make_hcg_generator(table, &history, batch);

  double baseline = 0;
  for (Row& row : rows) {
    codegen::GeneratedCode code = row.tool->generate(model);
    toolchain::CompiledModel compiled(code, compile_options(opt));
    compiled.init();
    compiled.step(in_ptrs, out_ptrs);  // warm-up
    Stopwatch probe;
    compiled.step(in_ptrs, out_ptrs);
    const double once = std::max(probe.elapsed_seconds(), 1e-9);
    const int reps = static_cast<int>(std::max(3.0, 0.2 / once));
    Stopwatch timer;
    for (int i = 0; i < reps; ++i) compiled.step(in_ptrs, out_ptrs);
    const double per_step = timer.elapsed_seconds() / reps;
    if (row.label == rows[0].label) baseline = per_step;
    std::printf("%-10s %12.2f us/step  (%d reps)", row.label, per_step * 1e6,
                reps);
    if (baseline > 0 && row.label != rows[0].label) {
      std::printf("  %+.1f%% vs simulink",
                  (per_step / baseline - 1.0) * 100.0);
    }
    if (!code.simd_instructions.empty()) {
      std::printf("  [SIMD:");
      for (const auto& name : code.simd_instructions) {
        std::printf(" %s", name.c_str());
      }
      std::printf("]");
    }
    std::printf("\n");
  }
  return 0;
}

/// Joins the measured profile against Algorithm 1's selection-time costs:
/// an intensive site whose implementation was selected by measurement this
/// run gets the chosen candidate's pre-calculation time as its prediction.
/// Loops, history hits, and generic implementations have no prediction.
void join_predictions(const codegen::GeneratedCode& code,
                      obs::Report& report, double err_threshold,
                      analysis::DiagnosticEngine& diags) {
  static obs::Histogram& err_metric =
      obs::Registry::instance().histogram("synth.costmodel.abs_err_pct");
  for (obs::ReportProfileSite& site : report.runtime_profile) {
    if (site.calls > 0) {
      site.mean_ns_per_call =
          static_cast<double>(site.ns) / static_cast<double>(site.calls);
    }
    if (site.kind != "intensive") continue;
    const std::string actor = site.label.substr(0, site.label.find(':'));
    for (const obs::ReportIntensive& choice : code.report.intensive) {
      if (choice.actor != actor || !choice.selected || choice.from_history) {
        continue;
      }
      for (const obs::ReportCandidate& candidate : choice.candidates) {
        if (candidate.impl != choice.impl) continue;
        site.predicted_ns = candidate.ms * 1e6;
        if (site.predicted_ns > 0 && site.mean_ns_per_call > 0) {
          site.abs_err_pct =
              std::abs(site.mean_ns_per_call - site.predicted_ns) /
              site.predicted_ns * 100.0;
          err_metric.observe(site.abs_err_pct);
          if (site.abs_err_pct > err_threshold) {
            char detail[160];
            std::snprintf(detail, sizeof(detail),
                          "measured %.0f ns/call vs predicted %.0f ns "
                          "(%.1f%% error, threshold %.1f%%)",
                          site.mean_ns_per_call, site.predicted_ns,
                          site.abs_err_pct, err_threshold);
            diags.remark("HCG501", "actor '" + actor + "'", detail);
          }
        }
      }
    }
  }
}

int cmd_profile(Options opt) {
  if (opt.tool != "hcg") {
    throw Error("profile only supports --tool hcg");
  }
  opt.profile_gen = true;
  Stopwatch load_timer;
  Model model = resolved(load_model_file(opt.model_path));
  const double load_ms = load_timer.elapsed_seconds() * 1e3;
  isa::VectorIsa file_isa;
  const isa::VectorIsa& table = resolve_isa(opt.isa_name, file_isa);

  synth::SelectionHistory history;
  if (!opt.history_path.empty() &&
      std::filesystem::exists(opt.history_path)) {
    history = synth::SelectionHistory::load(opt.history_path, nullptr);
  }

  auto tool = make_tool(opt, table, &history);
  codegen::GeneratedCode code = tool->generate(model);
  warn_degraded(code);
  if (!opt.history_path.empty()) history.save(opt.history_path);

  toolchain::ProfileRunOptions run;
  run.reps = opt.reps;
  if (opt.cc_timeout >= 0) run.timeout_seconds = opt.cc_timeout;
  if (opt.cc_retries >= 0) run.spawn_retries = opt.cc_retries;
  const toolchain::ProfileResult prof = toolchain::run_profile(code, model, run);

  analysis::DiagnosticEngine diags;
  if (!prof.ok) {
    // Degraded: the report simply has no runtime_profile section.
    diags.warning("HCG502", "", prof.error);
  } else {
    code.report.profile_reps = prof.reps;
    code.report.profile_clock = prof.clock;
    for (const toolchain::ProfileSiteSample& sample : prof.sites) {
      obs::ReportProfileSite site;
      site.id = sample.id;
      site.kind = sample.kind;
      site.label = sample.label;
      site.ns = sample.ns;
      site.calls = sample.calls;
      site.iters = sample.iters;
      code.report.runtime_profile.push_back(std::move(site));
    }
    join_predictions(code, code.report, opt.err_threshold, diags);

    std::printf("%-4s %-10s %-34s %14s %12s %13s %8s\n", "site", "kind",
                "label", "ns/call", "iters", "predicted_ns", "err%");
    for (const obs::ReportProfileSite& site : code.report.runtime_profile) {
      std::printf("%-4s %-10s %-34s %14.1f %12llu", site.id.c_str(),
                  site.kind.c_str(), site.label.c_str(),
                  site.mean_ns_per_call,
                  static_cast<unsigned long long>(site.iters));
      if (site.predicted_ns >= 0) {
        std::printf(" %13.1f %7.1f%%", site.predicted_ns, site.abs_err_pct);
      }
      std::printf("\n");
    }
    std::printf("%d reps, clock %s\n", prof.reps, prof.clock.c_str());
  }
  for (const analysis::Diagnostic& diag : diags.diagnostics()) {
    code.report.diagnostics.push_back(
        {diag.code, std::string(analysis::severity_name(diag.severity)),
         diag.location, diag.message});
  }
  std::fputs(diags.render(opt.model_path).c_str(), stderr);
  finish_report(opt, code, load_ms, history);
  // Degraded profiling still exits 0: the report (minus runtime_profile)
  // is valid and the HCG502 warning carries the reason.
  return 0;
}

/// Per-dtype op-kind coverage of one table: how many of the batch op kinds
/// defined for the element type have a single-instruction implementation.
/// A dtype with few covered kinds is exactly where models fall back to
/// scalar code (the linter's HCG407 remarks name the missing op).
std::string isa_coverage_line(const isa::VectorIsa& table) {
  static constexpr BatchOp kOps[] = {
      BatchOp::kAdd,  BatchOp::kSub,  BatchOp::kMul,  BatchOp::kDiv,
      BatchOp::kMin,  BatchOp::kMax,  BatchOp::kAbd,  BatchOp::kAnd,
      BatchOp::kOr,   BatchOp::kXor,  BatchOp::kNot,  BatchOp::kAbs,
      BatchOp::kRecp, BatchOp::kSqrt, BatchOp::kShl,  BatchOp::kShr,
      BatchOp::kMulC, BatchOp::kAddC, BatchOp::kSel};
  std::string out;
  for (const isa::VType& v : table.vtypes) {
    int defined = 0;
    int covered = 0;
    for (BatchOp op : kOps) {
      if (!op_supports_type(op, v.type)) continue;
      ++defined;
      if (table.supports(op, v.type, v.type)) ++covered;
    }
    if (!out.empty()) out += "  ";
    out += std::string(short_name(v.type)) + " " + std::to_string(covered) +
           "/" + std::to_string(defined);
  }
  return out;
}

int cmd_isa(const Options& opt) {
  if (opt.model_path.empty()) {
    for (const std::string& name : isa::builtin_names()) {
      const isa::VectorIsa& table = isa::builtin(name);
      std::string traits;
      if (table.scalable) traits += "  (scalable)";
      if (table.simulated) traits += "  (simulated)";
      std::printf("%-10s %4d-bit  %3zu instructions  header <%s>%s\n",
                  name.c_str(), table.width_bits, table.instructions.size(),
                  table.header.c_str(), traits.c_str());
      std::printf("%-10s   op coverage: %s\n", "",
                  isa_coverage_line(table).c_str());
    }
    return 0;
  }
  std::fputs(isa::builtin_text(opt.model_path).c_str(), stdout);
  return 0;
}

/// Prints the fault-injection site catalog (same text as HCG_FAULTS=list).
int cmd_faults() {
  std::fputs(faults::render_site_catalog().c_str(), stdout);
  return 0;
}

int cmd_fuzz(const Options& opt) {
  // The campaign wants the cgir verifier as an extra oracle; an explicit
  // HCG_VERIFY=0 in the environment still turns it off.
  setenv("HCG_VERIFY", "1", /*overwrite=*/0);
  fuzz::CampaignConfig config;
  config.seed_start = opt.seed;
  config.seeds = opt.seeds;
  config.minimize = !opt.no_minimize;
  config.corpus_dir = opt.corpus_dir;
  config.report_path = opt.report_path;
  config.harness.sweep_faults = opt.sweep_faults;
  config.harness.baselines = !opt.no_baselines;
  config.harness.generator.max_actors = opt.max_actors;
  if (opt.opt_level >= 0) config.harness.opt_levels = {opt.opt_level};
  if (opt.isa_set) {
    config.harness.isas = split(opt.isa_name, ',');
    for (const std::string& name : config.harness.isas) {
      bool builtin = false;
      for (const std::string& b : isa::builtin_names()) builtin |= b == name;
      if (!builtin) {
        throw Error("fuzz needs built-in isa names, got '" + name + "'");
      }
    }
  }
  config.progress = [](const std::string& line) {
    std::fprintf(stderr, "fuzz: %s\n", line.c_str());
  };
  const fuzz::CampaignResult result = fuzz::run_campaign(config);
  std::fprintf(stderr, "fuzz: %d seed(s), %d variant run(s), %zu distinct finding(s)\n",
               result.seeds_run, result.variants_run, result.findings.size());
  for (const fuzz::CampaignFinding& f : result.findings) {
    std::fprintf(stderr, "fuzz: %s  x%d  (seed %llu)%s%s\n",
                 f.first.signature.c_str(), f.count,
                 static_cast<unsigned long long>(f.first.seed),
                 f.reproducer.empty() ? "" : "  -> ", f.reproducer.c_str());
  }
  if (opt.report_path.empty()) {
    std::fputs(result.report_json.c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return result.ok() ? 0 : 10;
}

/// Applies HCG_TRACE when --trace was not given.  Returns true if tracing
/// (to a file or as a stderr summary) is active.
bool setup_tracing(Options& opt) {
  if (opt.trace_path.empty()) {
    if (const char* env = std::getenv("HCG_TRACE");
        env != nullptr && *env != '\0') {
      opt.trace_path = env;
      opt.trace_from_env = true;
    }
  }
  if (opt.trace_path.empty()) return false;
  obs::Tracer::instance().set_enabled(true);
  return true;
}

/// "summary" / "1" mean a human-readable tree on stderr; anything else is a
/// Chrome trace-event JSON output path.
void write_trace(const Options& opt) {
  obs::Tracer& tracer = obs::Tracer::instance();
  if (opt.trace_path == "summary" || opt.trace_path == "1") {
    std::fputs(tracer.summary().c_str(), stderr);
    return;
  }
  write_file(opt.trace_path, tracer.trace_json());
  std::fprintf(stderr, "wrote trace %s\n", opt.trace_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  apply_log_env();
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) return usage();
  } catch (const Error& e) {
    // Bad flags and missing values are usage errors, not pipeline failures.
    std::fprintf(stderr, "hcgc: %s\n", e.what());
    return usage();
  }
  try {
    if (opt.jobs > 0) ThreadPool::set_default_parallelism(opt.jobs);
    // The generator factories read HCG_VERIFY; the flag is its CLI spelling.
    if (opt.verify_cgir) setenv("HCG_VERIFY", "1", /*overwrite=*/1);
    const bool tracing = setup_tracing(opt);
    int rc = 2;
    if (opt.command == "isa") {
      rc = cmd_isa(opt);
    } else if (opt.command == "faults") {
      rc = cmd_faults();
    } else if (opt.command == "fuzz") {
      rc = cmd_fuzz(opt);
    } else if (opt.model_path.empty()) {
      return usage();
    } else if (opt.command == "generate") {
      rc = cmd_generate(opt);
    } else if (opt.command == "inspect") {
      rc = cmd_inspect(opt);
    } else if (opt.command == "lint") {
      rc = cmd_lint(opt);
    } else if (opt.command == "verify") {
      rc = cmd_verify(opt);
    } else if (opt.command == "bench") {
      rc = cmd_bench(opt);
    } else if (opt.command == "profile") {
      rc = cmd_profile(opt);
    } else {
      return usage();
    }
    if (tracing) write_trace(opt);
    return rc;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "hcgc: parse error: %s\n", e.what());
    return 3;
  } catch (const ModelError& e) {
    std::fprintf(stderr, "hcgc: invalid model: %s\n", e.what());
    return 4;
  } catch (const SynthesisError& e) {
    std::fprintf(stderr, "hcgc: synthesis failed: %s\n", e.what());
    return 5;
  } catch (const CodegenError& e) {
    std::fprintf(stderr, "hcgc: codegen failed: %s\n", e.what());
    return 6;
  } catch (const ToolchainError& e) {
    std::fprintf(stderr, "hcgc: toolchain failed: %s\n", e.what());
    return 7;
  } catch (const InternalError& e) {
    std::fprintf(stderr, "hcgc: internal error: %s\n", e.what());
    return 70;
  } catch (const Error& e) {
    std::fprintf(stderr, "hcgc: %s\n", e.what());
    return 1;
  } catch (const std::bad_alloc&) {
    // Keep the message static: formatting could allocate again.
    std::fputs("hcgc: internal error: out of memory\n", stderr);
    return 70;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcgc: internal error: %s\n", e.what());
    return 70;
  } catch (...) {
    std::fputs("hcgc: internal error: unknown exception\n", stderr);
    return 70;
  }
}
