#include "harness.hpp"

#include <filesystem>
#include <optional>
#include <sstream>

#include "fuzz/differential.hpp"
#include "model/loader.hpp"
#include "stats.hpp"

namespace hcgbench {

namespace {

using hcg::Stopwatch;
using hcg::codegen::GeneratedCode;

/// Target wall time of one step sample; short enough for >100 samples per
/// cell in a run, long enough that clock reads do not matter.
constexpr double kSampleSeconds = 1e-3;

/// Empty when two generations of one cell agree on the C source and on
/// every count the generator reports; otherwise the first difference.
std::string generation_mismatch(const GeneratedCode& a, const GeneratedCode& b) {
  if (a.source != b.source) return "C source differs between two generations";
  if (a.simd_instructions != b.simd_instructions) return "SIMD instructions differ";
  if (a.intensive_choices != b.intensive_choices) return "intensive choices differ";
  if (a.static_buffer_bytes != b.static_buffer_bytes) return "static buffer bytes differ";
  if (a.fused_regions != b.fused_regions) return "fused region count differs";
  const hcg::obs::Report& x = a.report;
  const hcg::obs::Report& y = b.report;
  if (x.loops_fused != y.loops_fused || x.copies_elided != y.copies_elided ||
      x.arena_bytes_saved != y.arena_bytes_saved ||
      x.cross_scale_fused != y.cross_scale_fused ||
      x.loops_tiled != y.loops_tiled ||
      x.buffers_relocated != y.buffers_relocated ||
      x.strips_localized != y.strips_localized ||
      x.stride1_accesses != y.stride1_accesses ||
      x.regions_narrowed != y.regions_narrowed) {
    return "cgir pass counts differ";
  }
  return "";
}

/// .text bytes of the compiled shared object, read with binutils `size`.
std::size_t text_bytes(const hcg::toolchain::CompiledModel& bin) {
  std::filesystem::path so = bin.source_path();
  so.replace_extension(".so");
  hcg::SubprocessOptions options;
  options.timeout_seconds = 30.0;
  const hcg::SubprocessResult size =
      hcg::run_subprocess({"size", "-A", so.string()}, options);
  if (!size.ok()) throw hcg::Error("size failed: " + size.describe());
  std::istringstream lines(size.output);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string section;
    std::size_t bytes = 0;
    if (fields >> section >> bytes && section == ".text") return bytes;
  }
  throw hcg::Error("size printed no .text section for " + so.string());
}

/// Runs the generated code and the VM oracle for two steps from init and
/// compares every output; returns the first disagreement or "".
std::string oracle_mismatch(hcg::toolchain::CompiledModel& bin,
                            const std::vector<std::vector<hcg::Tensor>>& expected,
                            const PreparedModel& m) {
  bin.init();
  for (std::size_t step = 0; step < expected.size(); ++step) {
    const std::vector<hcg::Tensor> got = bin.step_tensors(m.model, m.io.inputs);
    for (std::size_t i = 0; i < got.size(); ++i) {
      std::string why;
      if (!hcg::fuzz::tensors_close(expected[step][i], got[i], &why)) {
        return "oracle mismatch at step " + std::to_string(step) + ", output " +
               std::to_string(i) + ": " + why;
      }
    }
  }
  return "";
}

void set_up_cell(Cell& cell, PreparedModel& m,
                 const std::vector<std::vector<hcg::Tensor>>& expected,
                 SpanLog& spans, SetupLayers* layers) {
  const bool counted = layers != nullptr && cell.spec.role == Role::kHcg;
  {
    Span span(spans, "generate", cell.row);
    hcg::synth::SelectionHistory history;
    cell.code = cell.spec.generator(&history)->generate(hcg::load_model(m.xml));
    if (cell.spec.is_hcg()) {
      // Run it twice: with the history the first run filled, Algorithm 1
      // makes the same choices, so nothing may differ.
      const GeneratedCode again =
          cell.spec.generator(&history)->generate(hcg::load_model(m.xml));
      cell.failure = generation_mismatch(cell.code, again);
      if (!cell.ok()) return;
    }
  }
  {
    Span span(spans, "toolchain.compile", cell.row);
    hcg::toolchain::CompileOptions options;
    options.opt_flags = "-O2";
    Stopwatch timer;
    cell.bin = std::make_unique<hcg::toolchain::CompiledModel>(cell.code, options);
    if (counted) layers->cc_ms += timer.elapsed_seconds() * 1e3;
  }
  cell.text_bytes = text_bytes(*cell.bin);
  {
    Span span(spans, "oracle_check", cell.row);
    cell.failure = oracle_mismatch(*cell.bin, expected, m);
    if (!cell.ok()) return;
  }
  cell.steps_per_sample = calls_per_sample(
      kSampleSeconds, [&] { cell.bin->step(m.io.in_ptrs, m.io.out_ptrs); });
  cell.bin->init();
}

}  // namespace

std::vector<PreparedModel> set_up(const Workload& workload, std::uint64_t seed,
                                  SpanLog& spans, SetupLayers* layers) {
  std::vector<PreparedModel> models;
  models.reserve(workload.models.size());
  for (const ModelSpec& spec : workload.models) {
    std::string xml = hcg::model_to_xml(spec.build());
    hcg::Model model = hcg::resolved(hcg::load_model(xml));
    hcg::bench::IoBinding io = hcg::bench::bind_io(model, seed);
    PreparedModel& m = models.emplace_back(PreparedModel{
        model.name(), std::move(xml), std::move(model), std::move(io), {}, {}, {}});

    std::vector<std::vector<hcg::Tensor>> expected;
    {
      Span span(spans, "vm.oracle", m.name);
      Stopwatch timer;
      hcg::Interpreter oracle(m.model);
      oracle.init();
      for (int step = 0; step < 2; ++step) expected.push_back(oracle.step(m.io.inputs));
      if (layers != nullptr) layers->oracle_ms += timer.elapsed_seconds() * 1e3;
    }

    for (const CellSpec& cell_spec : spec.cells) {
      Cell& cell = m.cells.emplace_back();
      cell.spec = cell_spec;
      cell.row = m.name + "." + cell_spec.label();
      cell.probe_key = (cell_spec.role == Role::kHcg ? "step/hcg/" : "step/ref/") +
                       cell.row;
      try {
        set_up_cell(cell, m, expected, spans, layers);
      } catch (const std::exception& e) {
        cell.failure = e.what();
      }
      if (!cell.ok()) {
        std::fprintf(stderr, "cell %s failed: %s\n", cell.row.c_str(),
                     cell.failure.c_str());
        cell.bin.reset();
      }
    }
  }
  return models;
}

int cells_attempted(const std::vector<PreparedModel>& models) {
  int n = 0;
  for (const PreparedModel& m : models) n += static_cast<int>(m.cells.size());
  return n;
}

int cells_failed(const std::vector<PreparedModel>& models) {
  int n = 0;
  for (const PreparedModel& m : models) {
    for (const Cell& c : m.cells) n += c.ok() ? 0 : 1;
  }
  return n;
}

void step_round(std::vector<PreparedModel>& models, std::uint64_t round,
                double slowdown) {
  for (PreparedModel& m : models) {
    const std::size_t n = m.cells.size();
    for (std::size_t k = 0; k < n; ++k) {
      Cell& cell = m.cells[(k + round) % n];
      if (!cell.ok()) continue;
      Stopwatch timer;
      for (long s = 0; s < cell.steps_per_sample; ++s) {
        cell.bin->step(m.io.in_ptrs, m.io.out_ptrs);
      }
      const double elapsed = timer.elapsed_seconds();
      const double seconds = hcg::bench::measured(cell.probe_key, elapsed);
      if (!cell.warmed) {
        cell.warmed = true;  // the first sample of each cell is discarded
        continue;
      }
      const double ns = seconds * 1e9 / static_cast<double>(cell.steps_per_sample);
      cell.raw_step_ns.push_back(ns);
      cell.step_ns.push_back(ns / slowdown);
    }
  }
}

double generate_once(const PreparedModel& m, SpanLog& spans) {
  const Cell& cell = m.cells[0];
  const std::unique_ptr<hcg::codegen::Generator> generator = cell.spec.generator();
  Stopwatch timer;
  {
    Span whole(spans, "xml_to_c", cell.row);
    std::optional<hcg::Model> model;
    {
      Span load(spans, "load_model", cell.row);
      model.emplace(hcg::load_model(m.xml));
    }
    Span generate(spans, "Generator::generate", cell.row);
    const GeneratedCode code = generator->generate(*model);
  }
  const double elapsed = timer.elapsed_seconds();
  return hcg::bench::measured("generate/" + cell.row, elapsed) * 1e3;
}

}  // namespace hcgbench
