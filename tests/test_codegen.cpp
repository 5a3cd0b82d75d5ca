// Unit tests for the code generators: emitted source structure, tool
// differentiation (unrolling / loops / scattered SIMD / fused regions),
// expression folding, buffer reuse, and metadata.
#include <gtest/gtest.h>

#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "model/builder.hpp"

namespace hcg::codegen {
namespace {

int count_occurrences(const std::string& text, const std::string& needle) {
  int count = 0;
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

// ---------------------------------------------------------------------------
// ABI & structure
// ---------------------------------------------------------------------------

TEST(Codegen, EmitsTheFixedAbi) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(16));
  EXPECT_EQ(code.init_symbol, "fir_bench_init");
  EXPECT_EQ(code.step_symbol, "fir_bench_step");
  EXPECT_NE(code.source.find("void fir_bench_init(void)"), std::string::npos);
  EXPECT_NE(code.source.find(
                "void fir_bench_step(const void* const* inputs, "
                "void* const* outputs)"),
            std::string::npos);
}

TEST(Codegen, BindsPortsInDeclarationOrder) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(16));
  EXPECT_NE(code.source.find("inputs[0]"), std::string::npos);
  EXPECT_NE(code.source.find("inputs[1]"), std::string::npos);
  EXPECT_NE(code.source.find("outputs[0]"), std::string::npos);
}

TEST(Codegen, ConstantsBecomeStaticConstArrays) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(16));
  EXPECT_NE(code.source.find("static const int32_t sig_taps[16] = {"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Tool differentiation on batch actors
// ---------------------------------------------------------------------------

TEST(Codegen, DfsynthEmitsOneLoopPerBatchActor) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(64));
  // Two batch actors -> two scalar loops; no SIMD anywhere.
  EXPECT_EQ(count_occurrences(code.source, "for (int i = 0; i < 64; ++i)"), 2);
  EXPECT_TRUE(code.simd_instructions.empty());
  EXPECT_EQ(code.source.find("vmlaq"), std::string::npos);
  EXPECT_EQ(code.compile_flags, "");
}

TEST(Codegen, SimulinkUnrollsSmallArrays) {
  auto gen = make_simulink_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(8));
  // Figure 2 style: one statement per element, no loop.  (The Mul output
  // lands in a reused buffer, hence the buf-name-agnostic check.)
  EXPECT_EQ(code.source.find("for (int i"), std::string::npos);
  EXPECT_NE(code.source.find("[7] = "), std::string::npos);
}

TEST(Codegen, SimulinkFallsBackToLoopsAboveThreshold) {
  auto gen = make_simulink_generator();
  GeneratedCode code = gen->generate(benchmodels::fir_model(256));
  EXPECT_NE(code.source.find("for (int i = 0; i < 256; ++i)"),
            std::string::npos);
  EXPECT_TRUE(code.simd_instructions.empty());
}

TEST(Codegen, SimulinkScatteredModeVectorizesPerActor) {
  const isa::VectorIsa& sse = isa::builtin("sse");
  auto gen = make_simulink_generator(&sse);
  GeneratedCode code = gen->generate(benchmodels::fir_model(64));
  // Two separate vector loops (one per actor), not a fused one: the Mul
  // result goes through memory.
  EXPECT_EQ(count_occurrences(code.source, "for (int i = 0; i < 64; i += 4)"),
            2);
  EXPECT_EQ(code.simd_instructions,
            (std::vector<std::string>{"mulld", "addd"}));
  EXPECT_EQ(code.fused_regions, 0);
  EXPECT_NE(code.compile_flags.find("-msse4.2"), std::string::npos);
}

TEST(Codegen, HcgFusesTheRegionIntoOneLoop) {
  auto gen = make_hcg_generator(isa::builtin("neon_sim"));
  GeneratedCode code = gen->generate(benchmodels::fir_model(64));
  EXPECT_EQ(count_occurrences(code.source, "for (int i = 0; i < 64; i += 4)"),
            1);
  EXPECT_EQ(code.simd_instructions, std::vector<std::string>{"vmlaq_s32"});
  EXPECT_EQ(code.fused_regions, 1);
  EXPECT_TRUE(code.needs_neon_sim);
  EXPECT_NE(code.source.find("#include \"hcg_neon_sim.h\""),
            std::string::npos);
}

TEST(Codegen, HcgOnRealNeonIncludesArmHeader) {
  auto gen = make_hcg_generator(isa::builtin("neon"));
  GeneratedCode code = gen->generate(benchmodels::fir_model(64));
  EXPECT_FALSE(code.needs_neon_sim);
  EXPECT_NE(code.source.find("#include <arm_neon.h>"), std::string::npos);
}

TEST(Codegen, RegionInteriorSignalsGetNoBuffers) {
  auto hcg = make_hcg_generator(isa::builtin("neon_sim"));
  GeneratedCode fused = hcg->generate(benchmodels::highpass_model(64));
  // d, m, s live in registers; only the region output and constants remain.
  EXPECT_EQ(fused.source.find("sig_d["), std::string::npos);
  EXPECT_EQ(fused.source.find("sig_m["), std::string::npos);
  auto df = make_dfsynth_generator();
  GeneratedCode loops = df->generate(benchmodels::highpass_model(64));
  EXPECT_LT(fused.static_buffer_bytes, loops.static_buffer_bytes);
}

TEST(Codegen, HcgFallsBackToConventionalBelowVectorWidth) {
  auto gen = make_hcg_generator(isa::builtin("neon_sim"));
  GeneratedCode code = gen->generate(benchmodels::fir_model(3));  // < 4 lanes
  EXPECT_TRUE(code.simd_instructions.empty());
  EXPECT_NE(code.source.find("for (int i = 0; i < 3; ++i)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Intensive actors
// ---------------------------------------------------------------------------

TEST(Codegen, BaselinesCallGeneralKernelHcgCallsSelected) {
  Model model = benchmodels::fft_model(1024);
  auto sc = make_simulink_generator();
  GeneratedCode sc_code = sc->generate(model);
  EXPECT_EQ(sc_code.intensive_choices.at("fft"), "fft_mixed");
  EXPECT_NE(sc_code.source.find("hcg_fft_mixed(in_x"), std::string::npos);

  synth::SelectionHistory history;
  auto hcg = make_hcg_generator(isa::builtin("neon_sim"), &history);
  GeneratedCode hcg_code = hcg->generate(model);
  const std::string& chosen = hcg_code.intensive_choices.at("fft");
  EXPECT_TRUE(chosen == "fft_radix2" || chosen == "fft_radix2_tab" ||
              chosen == "fft_radix4" || chosen == "fft_mixed")
      << chosen;
  // The selection was recorded in the shared history.
  EXPECT_TRUE(history.lookup("FFT", DataType::kComplex64, {Shape({1024})}));
}

TEST(Codegen, KernelSourceIsEmbeddedExactlyOnce) {
  // Two FFT actors share one embedded copy of hcg_fft.c.
  ModelBuilder b("twofft");
  PortRef x = b.inport("x", DataType::kComplex64, Shape({64}));
  PortRef f1 = b.actor("f1", "FFT", {x});
  PortRef f2 = b.actor("f2", "IFFT", {f1});
  b.outport("y", f2);
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(b.take());
  EXPECT_EQ(count_occurrences(code.source, "void hcg_fft_dft("), 1);
  // One definition plus two call sites.
  EXPECT_EQ(count_occurrences(code.source, "hcg_fft_mixed("), 3);
}

TEST(Codegen, ConvPassesBothOperandLengths) {
  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(benchmodels::conv_model(100, 17));
  EXPECT_NE(code.source.find("hcg_conv_direct_f32(in_x, 100, sig_taps, 17,"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Expression folding & buffer reuse
// ---------------------------------------------------------------------------

TEST(Codegen, ScalarChainIsFoldedBySimulinkNotByDfsynth) {
  ModelBuilder b("fold");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({}));
  PortRef g = b.actor("g", "Gain", {x}, {{"gain", "2"}});
  PortRef h = b.actor("h", "Bias", {g}, {{"bias", "1"}});
  b.outport("y", h);
  Model model = b.take();

  auto sc = make_simulink_generator();
  GeneratedCode folded = sc->generate(model);
  // No intermediate buffers: g and h are folded into the output statement.
  EXPECT_EQ(folded.source.find("sig_g"), std::string::npos);
  EXPECT_EQ(folded.source.find("sig_h"), std::string::npos);

  auto df = make_dfsynth_generator();
  GeneratedCode unfolded = df->generate(model);
  EXPECT_NE(unfolded.source.find("sig_g"), std::string::npos);
}

TEST(Codegen, FoldingStopsAtFanout) {
  ModelBuilder b("fanout");
  PortRef x = b.inport("x", DataType::kFloat32, Shape({}));
  PortRef g = b.actor("g", "Gain", {x}, {{"gain", "2"}});
  PortRef a = b.actor("a", "Bias", {g}, {{"bias", "1"}});
  PortRef c = b.actor("c", "Bias", {g}, {{"bias", "3"}});
  b.outport("ya", a);
  b.outport("yc", c);
  auto sc = make_simulink_generator();
  GeneratedCode code = sc->generate(b.take());
  // g has two consumers -> materialized once (into a reused buffer), not
  // folded into both consumers: the gain multiply appears exactly once.
  EXPECT_EQ(count_occurrences(code.source, "* (float)2"), 1);
}

TEST(Codegen, BufferReuseShrinksSimulinkStaticFootprint) {
  // A long chain of batch actors: with reuse, buffers ping-pong.
  Model model = benchmodels::batch_chain_model(6, 256);
  auto sc = make_simulink_generator();
  auto df = make_dfsynth_generator();
  GeneratedCode with_reuse = sc->generate(model);
  GeneratedCode without = df->generate(model);
  EXPECT_LT(with_reuse.static_buffer_bytes, without.static_buffer_bytes);
  // The sharing is the arena pass, which runs at -O0 without fusion.
  EXPECT_EQ(with_reuse.report.loops_fused, 0);
  EXPECT_GT(with_reuse.report.arena_bytes_saved, 0u);
  EXPECT_NE(with_reuse.source.find("static float buf0[256];"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Delays
// ---------------------------------------------------------------------------

TEST(Codegen, DelayStateDeclaredInitializedAndUpdatedLast) {
  Model m("delayed");
  ActorId x = m.add_actor("x", "Inport");
  m.actor(x).set_param("dtype", "i32");
  m.actor(x).set_param("shape", "8");
  ActorId d = m.add_actor("d", "UnitDelay");
  m.actor(d).set_param("dtype", "i32");
  m.actor(d).set_param("shape", "8");
  ActorId a = m.add_actor("a", "BitNot");
  ActorId y = m.add_actor("y", "Outport");
  m.connect(x, 0, d, 0);
  m.connect(d, 0, a, 0);
  m.connect(a, 0, y, 0);

  auto gen = make_dfsynth_generator();
  GeneratedCode code = gen->generate(m);
  EXPECT_NE(code.source.find("static int32_t dly_d[8];"), std::string::npos);
  EXPECT_NE(code.source.find("memset(dly_d, 0, sizeof(dly_d));"),
            std::string::npos);
  // The state update is the last thing in step(), after the consumer read.
  const size_t use_pos = code.source.find("~dly_d[i]");
  const size_t update_pos = code.source.find("memcpy(dly_d, in_x");
  ASSERT_NE(use_pos, std::string::npos);
  ASSERT_NE(update_pos, std::string::npos);
  EXPECT_LT(use_pos, update_pos);
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

TEST(Codegen, MemoryFootprintsAreComparableAcrossTools) {
  for (Model& model : benchmodels::paper_models()) {
    auto sc = make_simulink_generator();
    auto df = make_dfsynth_generator();
    GeneratedCode a = sc->generate(model);
    GeneratedCode b = df->generate(model);
    // Buffer reuse and output aliasing can only shrink the footprint.
    EXPECT_LE(a.static_buffer_bytes, b.static_buffer_bytes) << model.name();
  }
  // A model whose only signal feeds the Outport directly needs no static
  // buffers at all.
  auto hcg = make_hcg_generator(isa::builtin("neon_sim"));
  GeneratedCode fig4 = hcg->generate(benchmodels::paper_fig4_model(1024));
  EXPECT_EQ(fig4.static_buffer_bytes, 0u);
  EXPECT_EQ(fig4.source.find("memcpy(out_"), std::string::npos);
}

TEST(Codegen, GeneratorNames) {
  EXPECT_EQ(make_hcg_generator(isa::builtin("neon"))->name(), "hcg");
  EXPECT_EQ(make_simulink_generator()->name(), "simulink");
  EXPECT_EQ(make_dfsynth_generator()->name(), "dfsynth");
}

}  // namespace
}  // namespace hcg::codegen
