// Set-up and sampling of the benchmark's timed cells.
//
// Set-up takes a workload from nothing to ready-to-time cells: build the
// models, serialize them to XML, generate every cell from that text, compile
// it with gcc -O2, dlopen it and check it against the VM oracle.  A cell that
// fails any step is kept out of timing and counted as failed.  Sampling then
// times model_step calls (rotating the cells of one model each round) and
// cold generations from the XML text.  Every reading goes through
// bench::measured, so HCG_FAULTS=bench.measure=fail inflates it; the probe
// keys ("setup", "step/hcg/<row>", "step/ref/<row>", "generate/<row>") let a
// rule inflate one side of a ratio.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace hcgbench {

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Cell {
  CellSpec spec;
  std::string row;  // "<model>.<label>", the per-cell row name
  /// bench.measure key of its step samples: "step/hcg/<row>" for the HCG
  /// cell, "step/ref/<row>" for comparators.
  std::string probe_key;
  hcg::codegen::GeneratedCode code;
  std::unique_ptr<hcg::toolchain::CompiledModel> bin;
  std::size_t text_bytes = 0;  // .text of the compiled object (binutils size)
  long steps_per_sample = 1;
  bool warmed = false;         // the first (discarded) sample was taken
  /// Kept samples in ns per model_step call: as measured, and divided by
  /// the host slowdown of the round they were taken in (reference.hpp).
  std::vector<double> raw_step_ns;
  std::vector<double> step_ns;
  std::string failure;          // non-empty: failed, never timed

  bool ok() const { return failure.empty(); }
};

struct PreparedModel {
  std::string name;
  std::string xml;  // the model as XML text, the generator's input
  hcg::Model model;  // resolved
  hcg::bench::IoBinding io;
  std::vector<Cell> cells;  // cells[0] is the workload's HCG cell
  /// Cold XML -> C samples of cells[0] in ms: as measured, and at the host
  /// reference speed.
  std::vector<double> raw_generate_ms;
  std::vector<double> generate_ms;
};

/// Per-layer set-up costs the traced run reports (HCG cells only).
struct SetupLayers {
  double cc_ms = 0.0;      // CompiledModel constructor
  double oracle_ms = 0.0;  // Interpreter::step
};

/// Sets the workload up once.  Input tensors come from
/// benchmodels::workload(model, seed).  HCG cells are generated a second
/// time with the selection history the first generation filled; the source
/// and every count must repeat exactly.
std::vector<PreparedModel> set_up(const Workload& workload, std::uint64_t seed,
                                  SpanLog& spans, SetupLayers* layers);

/// Cells attempted and failed in one set-up.
int cells_attempted(const std::vector<PreparedModel>& models);
int cells_failed(const std::vector<PreparedModel>& models);

/// One step round: every live cell of every model takes one sample, the
/// cells of a model in an order rotated by `round`.  `slowdown` is the
/// host's for this round (1 to keep samples as measured).
void step_round(std::vector<PreparedModel>& models, std::uint64_t round,
                double slowdown);

/// Milliseconds of one cold generation of the model's HCG cell, from XML
/// text to C source (load_model -> Generator::generate), with a fresh
/// selection history.  An enabled `spans` log records the two calls.
double generate_once(const PreparedModel& model, SpanLog& spans);

}  // namespace hcgbench
