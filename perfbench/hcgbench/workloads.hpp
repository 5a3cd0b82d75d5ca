// The benchmark's workloads: which models run, and which cells (generator x
// ISA x -O level, always compiled with gcc -O2) each model is timed as.
// perfbench/README.md records why each workload exists.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "codegen/generator.hpp"
#include "model/model.hpp"
#include "synth/history.hpp"

namespace hcgbench {

/// What a cell is compared as.  Every model has exactly one kHcg cell (the
/// headline cell the end-to-end metrics describe); the others are the
/// comparators of the speedup metrics.
enum class Role { kHcg, kSimulink, kDfsynth, kHcgO1 };

struct CellSpec {
  Role role = Role::kHcg;
  std::string isa;    // builtin table name; empty for the scalar baselines
  int opt_level = 1;  // the generator's cgir -O level
  /// Stable row label, e.g. "hcg_O1_neon_sim" or "simulink_avx2".
  std::string label() const;
  bool is_hcg() const { return role == Role::kHcg || role == Role::kHcgO1; }
  /// A generator for this cell.  HCG cells use `history` for Algorithm 1
  /// (nullptr: a private, cold history, as `hcgc generate` has by default);
  /// `dump_after` is EmitConfig::dump_cgir_after.
  std::unique_ptr<hcg::codegen::Generator> generator(
      hcg::synth::SelectionHistory* history = nullptr,
      const std::string& dump_after = "") const;
};

struct ModelSpec {
  std::function<hcg::Model()> build;
  std::vector<CellSpec> cells;  // cells[0] is the kHcg cell
};

struct Workload {
  std::string name;
  std::vector<ModelSpec> models;
  /// Share of the measuring time spent on cold generation samples (the
  /// rest times model_step).
  double generate_share = 0.5;
  /// `chain`: generate_scaling_x = t(models[1]) / t(models[0]).
  bool scaling = false;
  /// Report step times at the host reference speed (reference.hpp).  Off
  /// for `chain`, whose steps stream megabytes and follow memory bandwidth,
  /// which the contention that moves the reference kernels leaves alone.
  bool normalize_steps = true;
};

/// The named workload; throws hcg::Error for an unknown name.
Workload make_workload(const std::string& name);

}  // namespace hcgbench
