#include "workloads.hpp"

#include "benchmodels/benchmodels.hpp"
#include "isa/builtin.hpp"
#include "support/error.hpp"

namespace hcgbench {

using hcg::Model;
namespace benchmodels = hcg::benchmodels;
namespace codegen = hcg::codegen;

std::string CellSpec::label() const {
  std::string tool;
  switch (role) {
    case Role::kHcg:
    case Role::kHcgO1:
      tool = "hcg_O" + std::to_string(opt_level);
      break;
    case Role::kSimulink:
      tool = "simulink";
      break;
    case Role::kDfsynth:
      tool = "dfsynth";
      break;
  }
  return isa.empty() ? tool : tool + "_" + isa;
}

std::unique_ptr<codegen::Generator> CellSpec::generator(
    hcg::synth::SelectionHistory* history,
    const std::string& dump_after) const {
  codegen::EmitTuning tuning;
  tuning.dump_cgir_after = dump_after;
  const hcg::isa::VectorIsa* table =
      isa.empty() ? nullptr : &hcg::isa::builtin(isa);
  switch (role) {
    case Role::kHcg:
    case Role::kHcgO1:
      return codegen::make_hcg_generator(*table, history, {}, opt_level,
                                         /*profile_gen=*/false, tuning);
    case Role::kSimulink:
      return codegen::make_simulink_generator(table, 0, tuning);
    case Role::kDfsynth:
      break;
  }
  return codegen::make_dfsynth_generator(0, tuning);
}

namespace {

/// The paper's six models at paper sizes (benchmodels::paper_models(), in
/// Table 2 order) plus the Figure 4 sample, each timed as `cells`.
Workload grid(const std::string& name, const std::vector<CellSpec>& cells) {
  Workload w;
  w.name = name;
  for (Model (*build)() : {+[] { return benchmodels::fft_model(); },
                           +[] { return benchmodels::dct_model(); },
                           +[] { return benchmodels::conv_model(); },
                           +[] { return benchmodels::highpass_model(); },
                           +[] { return benchmodels::lowpass_model(); },
                           +[] { return benchmodels::fir_model(); },
                           +[] { return benchmodels::paper_fig4_model(); }}) {
    w.models.push_back({build, cells});
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name) {
  if (name == "table2") {
    return grid(name, {{Role::kHcg, "neon_sim", 1},
                       {Role::kSimulink, "", 0},
                       {Role::kDfsynth, "", 0}});
  }
  if (name == "fig5_avx2") {
    // Simulink Coder on Intel emits scattered per-actor SIMD (paper §4.2).
    return grid(name, {{Role::kHcg, "avx2", 1},
                       {Role::kSimulink, "avx2", 0},
                       {Role::kDfsynth, "", 0}});
  }
  if (name == "chain") {
    // Baselines are left out: gcc takes seconds on their unrolled C here.
    Workload w;
    w.name = name;
    w.generate_share = 0.8;
    w.scaling = true;
    w.normalize_steps = false;
    const std::vector<CellSpec> cells = {{Role::kHcg, "neon_sim", 1}};
    w.models.push_back({[] { return benchmodels::batch_chain_model(800); }, cells});
    w.models.push_back({[] { return benchmodels::batch_chain_model(1600); }, cells});
    return w;
  }
  if (name == "o2_pipelines") {
    Workload w;
    w.name = name;
    const std::vector<CellSpec> cells = {{Role::kHcg, "neon_sim", 2},
                                         {Role::kHcgO1, "neon_sim", 1},
                                         {Role::kSimulink, "", 0}};
    w.models.push_back({[] { return benchmodels::mixed_pipeline_model(4096); }, cells});
    w.models.push_back({[] { return benchmodels::rangepipe_model(4096, true); }, cells});
    w.models.push_back({[] { return benchmodels::matmul_pipeline_model(96); }, cells});
    return w;
  }
  throw hcg::Error("unknown workload '" + name + "'");
}

}  // namespace hcgbench
