#include "layers.hpp"

#include <optional>

#include "actors/catalog.hpp"
#include "actors/resolve.hpp"
#include "analysis/range.hpp"
#include "cgir/cgir.hpp"
#include "cgir/passes.hpp"
#include "graph/regions.hpp"
#include "isa/builtin.hpp"
#include "model/loader.hpp"
#include "model/schedule.hpp"
#include "stats.hpp"
#include "synth/batch.hpp"
#include "synth/intensive.hpp"

namespace hcgbench {

namespace {

using hcg::Stopwatch;

// Output order of the per-layer metrics.
const char* const kTimeLayers[] = {
    "model.load_ms",     "actors.resolve_ms",  "model.schedule_ms",
    "analysis.range_ms", "graph.regions_ms",   "synth.batch_ms",
    "synth.intensive_ms", "codegen.emit_ms",   "cgir.passes_ms",
    "cgir.print_ms",
};

struct CountName {
  const char* name;
  const char* unit;
};
const CountName kCounts[] = {
    {"analysis.regions_narrowed", "count"},
    {"graph.regions", "count"},
    {"synth.batch.instructions", "count"},
    {"synth.batch.remainder_elems", "count"},
    {"synth.intensive.candidates", "count"},
    {"cgir.loops_fused", "count"},
    {"cgir.copies_elided", "count"},
    {"cgir.cross_scale_fused", "count"},
    {"cgir.loops_tiled", "count"},
    {"cgir.strips_localized", "count"},
    {"cgir.buffers_relocated", "count"},
    {"cgir.arena_bytes_saved", "B"},
};

/// The pass options the HCG generator runs at `opt_level` (it keeps buffer
/// reuse on, so the arena pass runs), with the -O2 tile width derived from
/// the lowered unit the same way: four strides of the widest vector loop,
/// 16 when nothing vectorized.
hcg::cgir::PassOptions hcg_pass_options(int opt_level,
                                        const hcg::cgir::TranslationUnit& tu) {
  hcg::cgir::PassOptions options;
  options.fuse_loops = true;
  options.reuse_arena = true;
  if (opt_level >= 2) {
    options.fuse_cross_scale = true;
    options.tile_scalar_loops = true;
    options.coalesce_layout = true;
    options.localize_strips = true;
    int lanes = 0;
    for (const hcg::cgir::Stmt& stmt : tu.step.body) {
      if (stmt.kind == hcg::cgir::Stmt::Kind::kLoop &&
          (stmt.vector_loop || stmt.single_iteration)) {
        lanes = std::max(lanes, stmt.step);
      }
    }
    options.tile_elems = lanes > 0 ? 4 * lanes : 16;
  }
  return options;
}

}  // namespace

void LayerProbe::round(PreparedModel& m, SpanLog& spans) {
  Cell& cell = m.cells[0];
  if (!cell.ok()) return;
  const std::string& trace = cell.row;
  std::map<std::string, std::vector<double>>& times = times_[cell.row];
  std::map<std::string, double> counts;
  Span top(spans, "layers", trace);
  auto timed = [&](const char* layer, auto&& call) {
    Span span(spans, layer, trace);
    Stopwatch timer;
    call();
    times[layer].push_back(timer.elapsed_seconds() * 1e3);
  };

  std::optional<hcg::Model> model;
  timed("model.load_ms", [&] { model.emplace(hcg::load_model(m.xml)); });
  timed("actors.resolve_ms", [&] { model.emplace(hcg::resolved(std::move(*model))); });
  timed("model.schedule_ms", [&] { (void)hcg::schedule(*model); });
  timed("analysis.range_ms",
        [&] { (void)hcg::analysis::analyze_ranges(*model, nullptr); });

  const hcg::isa::VectorIsa& isa = hcg::isa::builtin(cell.spec.isa);
  std::vector<hcg::BatchRegion> regions;
  timed("graph.regions_ms", [&] {
    regions = hcg::find_batch_regions(*model, isa);
    (void)hcg::emission_order(*model, regions);
  });
  counts["graph.regions"] = static_cast<double>(regions.size());
  timed("synth.batch_ms", [&] {
    const auto buffer_name = [](hcg::ActorId id, int port) {
      std::string name = "b";
      name += std::to_string(id);
      name += '_';
      name += std::to_string(port);
      return name;
    };
    for (const hcg::BatchRegion& region : regions) {
      const hcg::synth::BatchSynthResult r =
          hcg::synth::synthesize_batch(*model, region, isa, buffer_name);
      counts["synth.batch.instructions"] +=
          static_cast<double>(r.instructions_used.size());
      if (r.used_simd) counts["synth.batch.remainder_elems"] += r.offset;
    }
  });
  timed("synth.intensive_ms", [&] {
    hcg::synth::SelectionHistory history;
    for (const hcg::Actor& actor : model->actors()) {
      if (hcg::classify(*model, actor.id()) != hcg::ActorKind::kIntensive) continue;
      const hcg::synth::IntensiveSelection selection =
          hcg::synth::select_implementation(actor, history);
      counts["synth.intensive.candidates"] +=
          static_cast<double>(selection.measured_costs.size());
    }
  });

  hcg::codegen::GeneratedCode code;
  timed("codegen.emit_ms",
        [&] { code = cell.spec.generator(nullptr, "lower")->generate(*model); });
  counts["analysis.regions_narrowed"] = code.report.regions_narrowed;

  hcg::cgir::TranslationUnit tu = hcg::cgir::parse_dump(code.cgir_dump_after);
  const hcg::cgir::PassOptions options = hcg_pass_options(cell.spec.opt_level, tu);
  hcg::cgir::PassStats stats;
  timed("cgir.passes_ms", [&] { stats = hcg::cgir::run_passes(tu, options); });
  std::string text;
  timed("cgir.print_ms", [&] { text = hcg::cgir::print(tu); });
  counts["cgir.loops_fused"] = stats.loops_fused;
  counts["cgir.copies_elided"] = stats.copies_elided;
  counts["cgir.cross_scale_fused"] = stats.cross_scale_fused;
  counts["cgir.loops_tiled"] = stats.loops_tiled;
  counts["cgir.strips_localized"] = stats.strips_localized;
  counts["cgir.buffers_relocated"] = stats.buffers_relocated;
  counts["cgir.arena_bytes_saved"] = static_cast<double>(stats.arena_bytes_saved);

  auto [seen, first] = counts_.try_emplace(cell.row, counts);
  if (!first && seen->second != counts) {
    cell.failure = "per-layer counts differ between two rounds";
  }
  ++rounds_;
}

std::vector<Metric> LayerProbe::metrics() const {
  std::vector<Metric> out;
  for (const char* layer : kTimeLayers) {
    double total = 0.0;
    for (const auto& [row, times] : times_) {
      if (auto it = times.find(layer); it != times.end()) total += median(it->second);
    }
    out.push_back({layer, total, "ms"});
  }
  for (const CountName& count : kCounts) {
    double total = 0.0;
    for (const auto& [row, counts] : counts_) {
      if (auto it = counts.find(count.name); it != counts.end()) total += it->second;
    }
    out.push_back({count.name, total, count.unit});
  }
  return out;
}

}  // namespace hcgbench
