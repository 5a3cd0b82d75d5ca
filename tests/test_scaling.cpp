// Generation-time scaling guard: HCG generation must stay linear in model
// size.  Quadrupling a batch chain may at most multiply the generation time
// by 8 (linear generation measures 4-5 on an x86-64 Xeon; per-node rescans
// of the model or the dataflow graph measured 13-16).  Best of 3 runs per
// size keeps the ratio robust against scheduling noise.
#include <gtest/gtest.h>

#include <algorithm>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "support/stopwatch.hpp"

namespace hcg {
namespace {

double best_generate_seconds(int actors) {
  const Model model = resolved(benchmodels::batch_chain_model(actors, 1024));
  auto gen = codegen::make_hcg_generator(isa::builtin("neon_sim"), nullptr, {},
                                         /*opt_level=*/1);
  double best = 1e30;
  for (int run = 0; run < 3; ++run) {
    Stopwatch timer;
    const codegen::GeneratedCode code = gen->generate(model);
    best = std::min(best, timer.elapsed_seconds());
    EXPECT_FALSE(code.simd_instructions.empty());
  }
  return best;
}

TEST(Scaling, ChainGenerationTimeGrowsLinearly) {
  const double t800 = best_generate_seconds(800);
  const double t3200 = best_generate_seconds(3200);
  EXPECT_LE(t3200 / t800, 8.0)
      << "t(800) = " << t800 * 1e3 << " ms, t(3200) = " << t3200 * 1e3
      << " ms";
}

}  // namespace
}  // namespace hcg
