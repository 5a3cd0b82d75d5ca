// Fault-tolerance tests (docs/ROBUSTNESS.md): the fault-injection registry,
// the hardened subprocess runner, degraded-mode Algorithm 1, crash-safe
// selection-history persistence, and the hcgc exit-code contract.
//
// Every fixture arms the fault registry explicitly (overriding whatever
// HCG_FAULTS the environment carries) except the EnvFaults tests, which
// deliberately run under the ambient spec — CI sweeps a small HCG_FAULTS
// matrix over this binary and the pipeline must survive every cell.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <thread>

#include "benchmodels/benchmodels.hpp"
#include "actors/resolve.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/faults.hpp"
#include "support/fileio.hpp"
#include "support/subprocess.hpp"
#include "support/thread_pool.hpp"
#include "synth/history.hpp"
#include "synth/intensive.hpp"
#include "toolchain/compiled_model.hpp"
#include "vm/interpreter.hpp"

namespace hcg {
namespace {

// With -DHCG_DISABLE_FAULTS=ON the probes compile to constants, so every
// test that depends on a fault actually firing must skip (the registry
// itself — parsing, clear() — still works and stays tested).
#ifdef HCG_DISABLE_FAULTS
#define HCG_SKIP_IF_FAULTS_DISABLED() \
  GTEST_SKIP() << "fault probes compiled to no-ops (HCG_DISABLE_FAULTS)"
#else
#define HCG_SKIP_IF_FAULTS_DISABLED() (void)0
#endif

/// Arms a spec for the test body and guarantees a disarmed registry after,
/// whatever the test throws.
class ArmedFaults {
 public:
  explicit ArmedFaults(std::string_view spec) {
    faults::Registry::instance().configure(spec);
  }
  ~ArmedFaults() { faults::Registry::instance().clear(); }
};

std::uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// ---------------------------------------------------------------------------
// Fault-spec grammar and matching
// ---------------------------------------------------------------------------

TEST(FaultSpec, SiteMatchFiresConfiguredAction) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("a.b=fail");
  EXPECT_EQ(faults::probe("a.b"), faults::Action::kFail);
  EXPECT_EQ(faults::probe("a.c"), faults::Action::kNone);
  EXPECT_EQ(faults::Registry::instance().injected(), 1u);
}

TEST(FaultSpec, AllActionsParse) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("a=fail,b=throw,c=torn,d=timeout");
  EXPECT_EQ(faults::probe("a"), faults::Action::kFail);
  EXPECT_EQ(faults::probe("b"), faults::Action::kThrow);
  EXPECT_EQ(faults::probe("c"), faults::Action::kTorn);
  EXPECT_EQ(faults::probe("d"), faults::Action::kTimeout);
}

TEST(FaultSpec, NthOccurrenceFiresExactlyOnce) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("x=throw@2");
  EXPECT_EQ(faults::probe("x"), faults::Action::kNone);
  EXPECT_EQ(faults::probe("x"), faults::Action::kThrow);
  EXPECT_EQ(faults::probe("x"), faults::Action::kNone);
  EXPECT_EQ(faults::Registry::instance().injected(), 1u);
}

TEST(FaultSpec, StickyOccurrenceFiresFromNOnward) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("x=fail@2+");
  EXPECT_EQ(faults::probe("x"), faults::Action::kNone);
  EXPECT_EQ(faults::probe("x"), faults::Action::kFail);
  EXPECT_EQ(faults::probe("x"), faults::Action::kFail);
}

TEST(FaultSpec, KeyGlobSelectsMatchingKeysOnly) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("precalc.measure:fft_radix*=throw");
  EXPECT_EQ(faults::probe("precalc.measure", "fft_radix4"),
            faults::Action::kThrow);
  EXPECT_EQ(faults::probe("precalc.measure", "fft_dft"),
            faults::Action::kNone);
  EXPECT_EQ(faults::probe("other.site", "fft_radix4"), faults::Action::kNone);
}

TEST(FaultSpec, SiteGlobMatchesFamilies) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("toolchain.*=fail");
  EXPECT_EQ(faults::probe("toolchain.compile"), faults::Action::kFail);
  EXPECT_EQ(faults::probe("toolchain.link"), faults::Action::kFail);
  EXPECT_EQ(faults::probe("fileio.write"), faults::Action::kNone);
}

TEST(FaultSpec, BadSpecsThrowParseError) {
  faults::Registry& registry = faults::Registry::instance();
  EXPECT_THROW(registry.configure("nonsense"), ParseError);
  EXPECT_THROW(registry.configure("a=explode"), ParseError);
  EXPECT_THROW(registry.configure("a=fail@zero"), ParseError);
  EXPECT_THROW(registry.configure("a=fail@0"), ParseError);
  EXPECT_THROW(registry.configure("=fail"), ParseError);
  registry.clear();
}

TEST(FaultSpec, EmptySpecDisarms) {
  faults::Registry& registry = faults::Registry::instance();
  registry.configure("a=fail");
  registry.configure("");
  EXPECT_FALSE(registry.active());
  EXPECT_EQ(faults::probe("a"), faults::Action::kNone);
}

TEST(FaultSpec, GlobMatcher) {
  EXPECT_TRUE(faults::glob_match("*", "anything"));
  EXPECT_TRUE(faults::glob_match("a*c", "abc"));
  EXPECT_TRUE(faults::glob_match("a*c", "ac"));
  EXPECT_TRUE(faults::glob_match("a?c", "abc"));
  EXPECT_FALSE(faults::glob_match("a?c", "ac"));
  EXPECT_FALSE(faults::glob_match("a*d", "abc"));
  EXPECT_TRUE(faults::glob_match("*fail*", "x-fail-y"));
}

#ifdef HCG_DISABLE_FAULTS
TEST(FaultSpec, DisabledProbesAreNoops) {
  ArmedFaults armed("a=fail");
  EXPECT_EQ(faults::probe("a"), faults::Action::kNone);
}
#endif

// ---------------------------------------------------------------------------
// Hardened subprocess runner
// ---------------------------------------------------------------------------

TEST(Subprocess, DecodesExitCodeAndCapturesOutput) {
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "echo out; echo err >&2; exit 3"});
  EXPECT_EQ(r.kind, ExitKind::kExited);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.output.find("out"), std::string::npos);
  EXPECT_NE(r.output.find("err"), std::string::npos);
  EXPECT_NE(r.describe().find("exited with code 3"), std::string::npos);
}

TEST(Subprocess, DecodesTerminationSignal) {
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "kill -SEGV $$"});
  EXPECT_EQ(r.kind, ExitKind::kSignaled);
  EXPECT_EQ(r.term_signal, SIGSEGV);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.describe().find("killed by signal"), std::string::npos);
}

TEST(Subprocess, TimeoutKillsHungChild) {
  SubprocessOptions options;
  options.timeout_seconds = 0.3;
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "sleep 30"}, options);
  EXPECT_EQ(r.kind, ExitKind::kTimedOut);
  EXPECT_LT(r.wall_seconds, 10.0);  // killed, not waited out
  EXPECT_NE(r.describe().find("timed out"), std::string::npos);
}

TEST(Subprocess, MissingBinaryFailsWithoutRetry) {
  SubprocessOptions options;
  options.spawn_retries = 3;
  options.retry_backoff_seconds = 0.01;
  const SubprocessResult r =
      run_subprocess({"/nonexistent/hcg-test-binary"}, options);
  EXPECT_EQ(r.kind, ExitKind::kSpawnFailed);
  EXPECT_EQ(r.attempts, 1);  // ENOENT is permanent, never retried
  EXPECT_NE(r.error.find("exec"), std::string::npos);
}

TEST(Subprocess, InjectedTransientSpawnFailureIsRetried) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("subprocess.spawn=fail@1");
  SubprocessOptions options;
  options.spawn_retries = 2;
  options.retry_backoff_seconds = 0.01;
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "exit 0"}, options);
  EXPECT_TRUE(r.ok()) << r.describe();
  EXPECT_EQ(r.attempts, 2);
}

TEST(Subprocess, InjectedSpawnFailureExhaustsRetries) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("subprocess.spawn=fail");
  SubprocessOptions options;
  options.spawn_retries = 1;
  options.retry_backoff_seconds = 0.01;
  const SubprocessResult r =
      run_subprocess({"/bin/sh", "-c", "exit 0"}, options);
  EXPECT_EQ(r.kind, ExitKind::kSpawnFailed);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_NE(r.describe().find("spawn failed"), std::string::npos);
}

TEST(Subprocess, OutputIsTruncatedNotUnbounded) {
  SubprocessOptions options;
  options.max_capture_bytes = 1024;
  const SubprocessResult r = run_subprocess(
      {"/bin/sh", "-c", "yes x | head -c 100000"}, options);
  EXPECT_EQ(r.kind, ExitKind::kExited);
  EXPECT_LT(r.output.size(), 2048u);
  EXPECT_NE(r.output.find("[output truncated]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Toolchain harness on top of the runner
// ---------------------------------------------------------------------------

codegen::GeneratedCode tiny_code(std::string source) {
  codegen::GeneratedCode code;
  code.source = std::move(source);
  code.model_name = "robust";
  code.tool_name = "test";
  code.init_symbol = "robust_init";
  code.step_symbol = "robust_step";
  return code;
}

constexpr const char* kGoodSource =
    "void robust_init(void) {}\n"
    "void robust_step(const void* const* in, void* const* out) {\n"
    "  (void)in; (void)out;\n"
    "}\n";

TEST(ToolchainRobust, CompilerAvailableDecodesMissingBinary) {
  EXPECT_FALSE(toolchain::compiler_available("/nonexistent/hcg-test-cc"));
}

TEST(ToolchainRobust, CompileErrorCarriesDecodedStatusAndLogTail) {
  if (!toolchain::compiler_available()) GTEST_SKIP() << "no host cc";
  try {
    toolchain::CompiledModel compiled(
        tiny_code("int broken(void) { return }\n"));
    FAIL() << "expected ToolchainError";
  } catch (const ToolchainError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exited with code"), std::string::npos) << what;
    EXPECT_NE(what.find("error"), std::string::npos) << what;
    EXPECT_NE(what.find("source kept at"), std::string::npos) << what;
  }
}

TEST(ToolchainRobust, InjectedCompileFailureIsAToolchainError) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  if (!toolchain::compiler_available()) GTEST_SKIP() << "no host cc";
  ArmedFaults armed("toolchain.compile=fail");
  EXPECT_THROW(toolchain::CompiledModel compiled(tiny_code(kGoodSource)),
               ToolchainError);
}

TEST(ToolchainRobust, InjectedCompileTimeoutReportsTimeout) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("toolchain.compile=timeout");
  const std::uint64_t timeouts_before =
      counter_value("toolchain.compile_timeouts");
  try {
    toolchain::CompiledModel compiled(tiny_code(kGoodSource));
    FAIL() << "expected ToolchainError";
  } catch (const ToolchainError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
#ifndef HCG_DISABLE_TRACING
  EXPECT_EQ(counter_value("toolchain.compile_timeouts"), timeouts_before + 1);
#else
  (void)timeouts_before;  // counters are no-ops without tracing
#endif
}

TEST(ToolchainRobust, SecondCompileSucceedsAfterNthOccurrenceFault) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  if (!toolchain::compiler_available()) GTEST_SKIP() << "no host cc";
  ArmedFaults armed("toolchain.compile=fail@1");
  EXPECT_THROW(toolchain::CompiledModel first(tiny_code(kGoodSource)),
               ToolchainError);
  toolchain::CompiledModel second(tiny_code(kGoodSource));
  second.init();  // loaded and callable
}

// ---------------------------------------------------------------------------
// Crash-safe selection history
// ---------------------------------------------------------------------------

TEST(HistoryDurability, SaveWritesVersionHeaderAndRoundTrips) {
  TempDir dir;
  const auto path = dir.path() / "history.txt";
  synth::SelectionHistory h;
  h.store("FFT", DataType::kComplex64, {Shape({1024})}, "fft_radix4");
  h.save(path);
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("# hcg-history-v1\n", 0), 0u) << text;
  synth::SelectionHistory::LoadStats stats;
  synth::SelectionHistory loaded = synth::SelectionHistory::load(path, &stats);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(*loaded.lookup("FFT", DataType::kComplex64, {Shape({1024})}),
            "fft_radix4");
}

TEST(HistoryDurability, LoadSkipsAndCountsCorruptLines) {
  TempDir dir;
  const auto path = dir.path() / "history.txt";
  write_file(path,
             "# hcg-history-v1\n"
             "FFT c64 1024 -> fft_radix4\n"
             "\x01\x02 binary garbage\n"
             "Conv f32 100 17 -> conv_direct\n"
             "FFT c64 51");  // torn final line, no newline
  const std::uint64_t dropped_before =
      counter_value("synth.history.dropped_lines");
  synth::SelectionHistory::LoadStats stats;
  synth::SelectionHistory loaded = synth::SelectionHistory::load(path, &stats);
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.lookup("Conv", DataType::kFloat32,
                            {Shape({100}), Shape({17})}));
#ifndef HCG_DISABLE_TRACING
  EXPECT_EQ(counter_value("synth.history.dropped_lines"), dropped_before + 2);
#else
  (void)dropped_before;
#endif
}

TEST(HistoryDurability, LoadAcceptsEmptyAndCrlfFiles) {
  TempDir dir;
  const auto empty_path = dir.path() / "empty.txt";
  write_file(empty_path, "");
  synth::SelectionHistory::LoadStats stats;
  EXPECT_EQ(synth::SelectionHistory::load(empty_path, &stats).size(), 0u);
  EXPECT_EQ(stats.dropped, 0u);

  const auto crlf_path = dir.path() / "crlf.txt";
  write_file(crlf_path,
             "# hcg-history-v1\r\n"
             "FFT c64 1024 -> fft_radix4\r\n");
  synth::SelectionHistory loaded =
      synth::SelectionHistory::load(crlf_path, &stats);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(*loaded.lookup("FFT", DataType::kComplex64, {Shape({1024})}),
            "fft_radix4");  // no trailing \r on the value
}

TEST(HistoryDurability, TornWriteNeverExposesAPartialFile) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  TempDir dir;
  const auto path = dir.path() / "history.txt";
  synth::SelectionHistory h;
  h.store("FFT", DataType::kComplex64, {Shape({1024})}, "fft_radix4");
  h.save(path);
  const std::string before = read_file(path);

  h.store("Conv", DataType::kFloat32, {Shape({100}), Shape({17})},
          "conv_direct");
  {
    ArmedFaults armed("fileio.write=torn");
    EXPECT_THROW(h.save(path), Error);
  }
  // The interrupted save must leave the previous complete file...
  EXPECT_EQ(read_file(path), before);
  synth::SelectionHistory::LoadStats stats;
  synth::SelectionHistory loaded = synth::SelectionHistory::load(path, &stats);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(loaded.size(), 1u);
  // ...and no temp-file debris next to it.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  h.save(path);  // healthy again after the fault clears
  EXPECT_EQ(synth::SelectionHistory::load(path).size(), 2u);
}

TEST(HistoryDurability, ConcurrentSavesLeaveOneWellFormedFile) {
  TempDir dir;
  const auto path = dir.path() / "history.txt";
  synth::SelectionHistory a;
  a.store("FFT", DataType::kComplex64, {Shape({1024})}, "fft_radix4");
  synth::SelectionHistory b;
  b.store("Conv", DataType::kFloat32, {Shape({100}), Shape({17})},
          "conv_direct");
  b.store("DCT", DataType::kFloat32, {Shape({256})}, "dct_lee");

  constexpr int kRounds = 50;
  std::thread t1([&] {
    for (int i = 0; i < kRounds; ++i) a.save(path);
  });
  std::thread t2([&] {
    for (int i = 0; i < kRounds; ++i) b.save(path);
  });
  t1.join();
  t2.join();

  synth::SelectionHistory::LoadStats stats;
  synth::SelectionHistory loaded = synth::SelectionHistory::load(path, &stats);
  EXPECT_EQ(stats.dropped, 0u);
  // rename() is atomic: the file is exactly one saver's complete output.
  EXPECT_TRUE(loaded.size() == 1 || loaded.size() == 2) << loaded.size();
}

// ---------------------------------------------------------------------------
// Degraded-mode Algorithm 1
// ---------------------------------------------------------------------------

const Actor& fft_actor(Model& model) { return model.actor_by_name("fft"); }

TEST(DegradedPrecalc, AllCandidatesFailFallsBackToReference) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("precalc.measure=throw");
  Model model = resolved(benchmodels::fft_model(1024));
  synth::SelectionHistory history;
  const std::uint64_t fallbacks_before =
      counter_value("synth.precalc.fallbacks");
  synth::IntensiveSelection selection =
      synth::select_implementation(fft_actor(model), history, {});
  ASSERT_NE(selection.impl, nullptr);
  EXPECT_TRUE(selection.impl->general);  // the guaranteed reference fallback
  EXPECT_TRUE(selection.degraded);
  EXPECT_TRUE(selection.measured_costs.empty());
  EXPECT_GE(selection.failures.size(), 3u);
  for (const synth::CandidateFailure& failure : selection.failures) {
    EXPECT_EQ(failure.reason, "crash");
  }
  // A degraded fallback must not poison the warm cache.
  EXPECT_EQ(history.size(), 0u);
#ifndef HCG_DISABLE_TRACING
  EXPECT_EQ(counter_value("synth.precalc.fallbacks"), fallbacks_before + 1);
#else
  (void)fallbacks_before;
#endif
}

TEST(DegradedPrecalc, PartialFailureSelectsAmongSurvivors) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("precalc.measure:fft_radix*=fail");
  Model model = resolved(benchmodels::fft_model(1024));
  synth::SelectionHistory history;
  synth::IntensiveSelection selection =
      synth::select_implementation(fft_actor(model), history, {});
  ASSERT_NE(selection.impl, nullptr);
  EXPECT_FALSE(selection.degraded);
  EXPECT_FALSE(selection.measured_costs.empty());
  EXPECT_EQ(selection.measured_costs.count("fft_radix2"), 0u);
  EXPECT_EQ(selection.measured_costs.count("fft_radix4"), 0u);
  ASSERT_FALSE(selection.failures.empty());
  for (const synth::CandidateFailure& failure : selection.failures) {
    EXPECT_EQ(failure.reason, "compile");
    EXPECT_EQ(failure.impl.rfind("fft_radix", 0), 0u) << failure.impl;
  }
  // A surviving selection is still worth memoizing.
  EXPECT_EQ(history.size(), 1u);
}

TEST(DegradedPrecalc, TimeoutReasonIsDistinct) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("precalc.measure:fft_dft=timeout");
  Model model = resolved(benchmodels::fft_model(1024));
  synth::SelectionHistory history;
  synth::IntensiveSelection selection =
      synth::select_implementation(fft_actor(model), history, {});
  ASSERT_EQ(selection.failures.size(), 1u);
  EXPECT_EQ(selection.failures[0].impl, "fft_dft");
  EXPECT_EQ(selection.failures[0].reason, "timeout");
}

TEST(DegradedPrecalc, SingleFlightSharesTheDegradedResult) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("precalc.measure=throw");
  Model model = resolved(benchmodels::fft_model(1024));
  synth::SelectionHistory history;
  synth::SingleFlightSelector selector;
  synth::IntensiveSelection first =
      selector.select(fft_actor(model), history, {});
  EXPECT_TRUE(first.degraded);
  const std::uint64_t injected_after_first =
      faults::Registry::instance().injected();
  synth::IntensiveSelection second =
      selector.select(fft_actor(model), history, {});
  EXPECT_TRUE(second.deduped);
  EXPECT_TRUE(second.degraded);
  EXPECT_EQ(second.impl, first.impl);
  // The follower shared the failure: no candidate was re-measured, so no
  // further probes fired.
  EXPECT_EQ(faults::Registry::instance().injected(), injected_after_first);
}

TEST(DegradedPrecalc, EmitModelReportsEveryFallback) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("precalc.measure=throw");
  Model model = resolved(benchmodels::fft_model(1024));
  synth::SelectionHistory history;
  auto tool = codegen::make_hcg_generator(isa::builtin("neon_sim"), &history);
  codegen::GeneratedCode code = tool->generate(model);
  ASSERT_EQ(code.report.degraded.size(), 1u);
  const obs::ReportFallback& fallback = code.report.degraded[0];
  EXPECT_EQ(fallback.actor, "fft");
  EXPECT_EQ(fallback.stage, "precalc");
  EXPECT_TRUE(fallback.reference_fallback);
  EXPECT_GE(fallback.failures.size(), 3u);

  const obs::JsonValue doc =
      obs::json_parse(code.report.to_json(/*include_metrics=*/false));
  const obs::JsonValue& degraded = doc.at("degraded");
  ASSERT_TRUE(degraded.is_array());
  ASSERT_EQ(degraded.array.size(), 1u);
  EXPECT_EQ(degraded.array[0].at("actor").string, "fft");
  EXPECT_TRUE(degraded.array[0].at("reference_fallback").boolean);
  EXPECT_FALSE(degraded.array[0].at("failures").array.empty());
}

TEST(DegradedPrecalc, CleanRunHasEmptyDegradedSection) {
  Model model = resolved(benchmodels::fft_model(64));
  synth::SelectionHistory history;
  auto tool = codegen::make_hcg_generator(isa::builtin("neon_sim"), &history);
  codegen::GeneratedCode code = tool->generate(model);
  EXPECT_TRUE(code.report.degraded.empty());
  const obs::JsonValue doc =
      obs::json_parse(code.report.to_json(/*include_metrics=*/false));
  EXPECT_TRUE(doc.at("degraded").array.empty());
}

TEST(DegradedPrecalc, DegradedCodeStillMatchesTheOracle) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  if (!toolchain::compiler_available()) GTEST_SKIP() << "no host cc";
  ArmedFaults armed("precalc.measure=throw");
  Model model = resolved(benchmodels::fft_model(256));
  synth::SelectionHistory history;
  auto tool = codegen::make_hcg_generator(isa::builtin("neon_sim"), &history);
  codegen::GeneratedCode code = tool->generate(model);
  ASSERT_FALSE(code.report.degraded.empty());

  toolchain::CompiledModel compiled(code);
  compiled.init();
  std::vector<Tensor> inputs = benchmodels::workload(model, 7);
  Interpreter oracle(model);
  oracle.init();
  std::vector<Tensor> expected = oracle.step(inputs);
  std::vector<Tensor> got = compiled.step_tensors(model, inputs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(got[i].max_abs_difference(expected[i]), 1e-2);
  }
}

// ---------------------------------------------------------------------------
// Thread-pool fault propagation
// ---------------------------------------------------------------------------

TEST(PoolFaults, InjectedTaskFaultPropagatesThroughTheFuture) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("pool.task=throw");
  ThreadPool pool(1);
  auto future = pool.submit([] { return 42; });
  EXPECT_THROW(future.get(), faults::FaultInjected);
}

TEST(PoolFaults, NthTaskFaultLeavesOtherTasksAlone) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  ArmedFaults armed("pool.task=throw@2");
  ThreadPool pool(1);  // inline execution: deterministic probe order
  auto first = pool.submit([] { return 1; });
  auto second = pool.submit([] { return 2; });
  auto third = pool.submit([] { return 3; });
  EXPECT_EQ(first.get(), 1);
  EXPECT_THROW(second.get(), faults::FaultInjected);
  EXPECT_EQ(third.get(), 3);
}

// ---------------------------------------------------------------------------
// hcgc exit codes and end-to-end degraded generation
// ---------------------------------------------------------------------------

struct CliResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

/// Runs hcgc with an optional `env` prefix ("HCG_FAULTS=... HCG_LOG=off").
CliResult run_hcgc(const std::string& env, const std::string& args) {
  TempDir dir;
  const auto out_path = dir.path() / "out.txt";
  const std::string cmd = (env.empty() ? "" : "env " + env + " ") +
                          std::string(HCG_HCGC_PATH) + " " + args + " > " +
                          out_path.string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  std::string output;
  try {
    output = read_file(out_path);
  } catch (const Error&) {
  }
  return CliResult{rc == -1 ? -1 : WEXITSTATUS(rc), output};
}

class RobustCli : public ::testing::Test {
 protected:
  void SetUp() override {
    model_path_ = (dir_.path() / "model.xml").string();
    // An FFT branch so generation exercises Algorithm 1, plus a batch chain
    // so the emitted step has SIMD work too.
    write_file(model_path_, R"(
<model name="robust_fft">
  <actor name="x" type="Inport" dtype="c64" shape="256"/>
  <actor name="F" type="FFT"/>
  <actor name="X" type="Outport"/>
  <actor name="a" type="Inport" dtype="i32" shape="64"/>
  <actor name="b" type="Inport" dtype="i32" shape="64"/>
  <actor name="s" type="Add"/>
  <actor name="Y" type="Outport"/>
  <connect from="x" to="F"/>
  <connect from="F" to="X"/>
  <connect from="a" to="s:0"/>
  <connect from="b" to="s:1"/>
  <connect from="s" to="Y"/>
</model>)");
  }

  TempDir dir_;
  std::string model_path_;
};

TEST_F(RobustCli, ParseErrorExitsThree) {
  const std::string bad = (dir_.path() / "bad.xml").string();
  write_file(bad, "this is not xml <");
  CliResult r = run_hcgc("", "generate " + bad);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("parse error"), std::string::npos);
}

TEST_F(RobustCli, ModelErrorExitsFour) {
  const std::string bad = (dir_.path() / "badmodel.xml").string();
  write_file(bad, R"(
<model name="m">
  <actor name="x" type="Inport" dtype="i32" shape="4"/>
  <actor name="z" type="Frobnicator"/>
  <actor name="y" type="Outport"/>
  <connect from="x" to="z"/>
  <connect from="z" to="y"/>
</model>)");
  CliResult r = run_hcgc("", "generate " + bad);
  EXPECT_EQ(r.exit_code, 4) << r.output;
  EXPECT_NE(r.output.find("invalid model"), std::string::npos);
}

TEST_F(RobustCli, ToolchainFaultExitsSeven) {
  HCG_SKIP_IF_FAULTS_DISABLED();
  if (!toolchain::compiler_available()) GTEST_SKIP() << "no host cc";
  CliResult r = run_hcgc("HCG_FAULTS=toolchain.compile=fail",
                         "verify " + model_path_ + " --isa neon_sim");
  EXPECT_EQ(r.exit_code, 7) << r.output;
  EXPECT_NE(r.output.find("toolchain failed"), std::string::npos);
}

TEST_F(RobustCli, BadFaultSpecExitsThree) {
  CliResult r = run_hcgc("HCG_FAULTS=bogus",
                         "generate " + model_path_ + " --isa neon_sim");
#ifdef HCG_DISABLE_FAULTS
  EXPECT_EQ(r.exit_code, 0) << r.output;  // probes compiled out: env ignored
#else
  EXPECT_EQ(r.exit_code, 3) << r.output;
#endif
}

TEST_F(RobustCli, DegradedGenerationSurvivesAndReports) {
  const std::string report_path = (dir_.path() / "report.json").string();
  CliResult r = run_hcgc("HCG_FAULTS=precalc.measure=throw",
                         "generate " + model_path_ +
                             " --tool hcg --isa neon_sim --report " +
                             report_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("robust_fft_step"), std::string::npos);
  const obs::JsonValue doc = obs::json_parse(read_file(report_path));
  const obs::JsonValue& degraded = doc.at("degraded");
  ASSERT_TRUE(degraded.is_array());
#ifdef HCG_DISABLE_FAULTS
  EXPECT_TRUE(degraded.array.empty());
#else
  ASSERT_EQ(degraded.array.size(), 1u);
  EXPECT_EQ(degraded.array[0].at("actor").string, "F");
  EXPECT_TRUE(degraded.array[0].at("reference_fallback").boolean);
  EXPECT_NE(r.output.find("degraded: F"), std::string::npos) << r.output;
#endif
}

TEST_F(RobustCli, DegradedVerifyStillPassesTheOracle) {
  if (!toolchain::compiler_available()) GTEST_SKIP() << "no host cc";
  CliResult r = run_hcgc("HCG_FAULTS=precalc.measure=throw",
                         "verify " + model_path_ +
                             " --tool hcg --isa neon_sim");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("VERIFY OK"), std::string::npos);
}

// Every numeric flag goes through one checked parser: an empty value,
// trailing characters, an out-of-range value or a negative timeout is a
// usage error (exit 2), not a silent zero.  The model is a plain batch chain
// so the accepted rows stay cheap, and each run clears HCG_FAULTS so the
// accepted rows exit 0 under any ambient fault spec.
TEST_F(RobustCli, BadNumericFlagsExitTwo) {
  const std::string model = (dir_.path() / "chain.xml").string();
  write_file(model, R"(
<model name="robust_chain">
  <actor name="a" type="Inport" dtype="i32" shape="64"/>
  <actor name="b" type="Inport" dtype="i32" shape="64"/>
  <actor name="s" type="Add"/>
  <actor name="y" type="Outport"/>
  <connect from="a" to="s:0"/>
  <connect from="b" to="s:1"/>
  <connect from="s" to="y"/>
</model>)");
  struct Case {
    const char* flags;
    int exit_code;
  };
  const Case cases[] = {
      {"--threshold abc", 2},
      {"--threshold ''", 2},
      {"--threshold -1", 2},
      {"--threshold 3", 0},
      {"--jobs 0", 2},
      {"--jobs 2x", 2},
      {"--jobs 99999999999", 2},
      {"--jobs 2", 0},
      {"--seed zz", 2},
      {"--seed -1", 2},
      {"--seed 18446744073709551616", 2},
      {"--seed 18446744073709551615", 0},
      {"--cc-timeout -3", 2},
      {"--cc-timeout 1s", 2},
      {"--cc-timeout nan", 2},
      {"--cc-timeout 2.5", 0},
      {"--cc-retries 1.5", 2},
      {"--cc-retries 1", 0},
      {"-O2 --tile-elems 7x", 2},
      {"-O2 --tile-elems ' 8'", 2},
      {"-O2 --tile-elems 8", 0},
      {"--reps 5x", 2},
      {"--reps 5", 0},
      {"--err-threshold inf", 2},
      {"--err-threshold -0.5", 2},
      {"--err-threshold 12.5", 0},
      {"--seeds 1e3", 2},
      {"--seeds 3", 0},
      {"--max-actors ''", 2},
      {"--max-actors 0", 2},
      {"--max-actors 8", 0},
  };
  for (const Case& c : cases) {
    CliResult r = run_hcgc("HCG_FAULTS=", "generate " + model +
                                              " --isa neon_sim " + c.flags +
                                              " --out " +
                                              (dir_.path() / "n.c").string());
    EXPECT_EQ(r.exit_code, c.exit_code) << c.flags << "\n" << r.output;
    if (c.exit_code == 2) {
      EXPECT_NE(r.output.find("needs"), std::string::npos) << r.output;
    }
  }
}

// Runs under whatever HCG_FAULTS the environment carries (CI sweeps a small
// matrix over this binary): generation must complete or fail loudly with a
// mapped error — never crash — and with no ambient faults it must be clean.
TEST(EnvFaults, GenerationSurvivesAmbientFaultSpec) {
  faults::Registry::instance().configure_from_env();
  const char* env = std::getenv("HCG_FAULTS");
  const bool armed = env != nullptr && *env != '\0';
  Model model = resolved(benchmodels::fft_model(256));
  synth::SelectionHistory history;
  auto tool = codegen::make_hcg_generator(isa::builtin("neon_sim"), &history);
  try {
    codegen::GeneratedCode code = tool->generate(model);
    EXPECT_FALSE(code.source.empty());
    if (!armed) {
      EXPECT_TRUE(code.report.degraded.empty());
    }
  } catch (const Error& e) {
    // Acceptable only when a fault spec is armed: a mapped, described error.
    EXPECT_TRUE(armed) << e.what();
  }
  faults::Registry::instance().clear();
}

}  // namespace
}  // namespace hcg
