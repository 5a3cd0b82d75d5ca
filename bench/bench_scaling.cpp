// Generator scalability: code-generation wall time as the model grows
// (batch chains of 25..1600 actors, doubling per row).  Complements E4 — the
// paper reports whole-suite generation times; this shows how Algorithm 2's
// subgraph enumeration scales with region size.  The HCG t(2n)/t(n) column
// is about 2 when generation is linear in model size.
#include "bench_util.hpp"
#include "isa/builtin.hpp"

using namespace hcg;

int main() {
  const isa::VectorIsa& neon = isa::builtin("neon_sim");

  std::printf("== Generation-time scaling over batch-chain length ==\n\n");
  std::vector<std::vector<std::string>> table;
  table.push_back(
      {"Actors", "Simulink", "DFSynth", "HCG", "HCG t(2n)/t(n)", "HCG instrs"});

  double previous_hcg = 0;
  for (int actors : {25, 50, 100, 200, 400, 800, 1600}) {
    Model model = resolved(benchmodels::batch_chain_model(actors, 256));

    auto time_tool = [&](codegen::Generator& tool) {
      // Best of 3 to de-noise.
      double best = 1e30;
      codegen::GeneratedCode last;
      for (int i = 0; i < 3; ++i) {
        Stopwatch timer;
        last = tool.generate(model);
        best = std::min(best, timer.elapsed_seconds());
      }
      return std::pair{best, last};
    };

    auto sc = codegen::make_simulink_generator();
    auto df = codegen::make_dfsynth_generator();
    auto hcg = codegen::make_hcg_generator(neon);
    auto [t_sc, c_sc] = time_tool(*sc);
    auto [t_df, c_df] = time_tool(*df);
    auto [t_hcg, c_hcg] = time_tool(*hcg);

    char growth[32] = "-";
    if (previous_hcg > 0) {
      std::snprintf(growth, sizeof growth, "%.2f", t_hcg / previous_hcg);
    }
    previous_hcg = t_hcg;

    table.push_back({std::to_string(actors), bench::format_seconds(t_sc),
                     bench::format_seconds(t_df),
                     bench::format_seconds(t_hcg), growth,
                     std::to_string(c_hcg.simd_instructions.size())});
  }
  bench::print_table(table);
  return 0;
}
