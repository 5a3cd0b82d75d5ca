// hcgbench: the repository benchmark program (perfbench/README.md).
//
//   hcgbench --workload table2 --seed 1 --seconds 10 --trace 0 [--spans FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and, with --spans, writes the run's spans to FILE when it ends.
// Every metric goes on its own "metric <name> <value> <unit>" line, per-cell
// rows on "row ..." lines, and the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>

#include "harness.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace hcgbench;
using hcg::Stopwatch;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Step rounds before a run may end: the first sample of a cell is
/// discarded and p90 needs at least ten samples beyond it.
constexpr int kMinStepRounds = 111;
constexpr int kMinTracedStepRounds = 11;
constexpr int kMinGenerateSamples = 5;
constexpr int kMinLayerRounds = 3;
/// A run stops this long after --seconds even if the minimums are not met.
constexpr double kOverrunSeconds = 60.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hcgbench: %s\nusage: hcgbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0 || !have_trace) {
    usage("--workload, --seconds and --trace are required");
  }
  return args;
}

/// Generation runs on one synthesis job (`hcgc --jobs 1`).  On a shared
/// four-cpu host, four jobs made cold generation both slower (chain: 127-155
/// ms against 108-117 ms) and much less repeatable (generate_ms spread 0.38
/// over ten runs), tracking the host's steal time rather than the generator.
int pin_jobs() {
  hcg::ThreadPool::set_default_parallelism(1);
  return hcg::ThreadPool::default_parallelism();
}

struct Output {
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

void print_row(const std::string& name, double value, const char* unit) {
  std::printf("row %s %.6g %s\n", name.c_str(), value, unit);
}

/// Runs activities in proportion to their shares (by time spent) until the
/// budget is used and every minimum is met.
struct Activity {
  double share;
  std::function<void()> run;
  double spent = 0.0;
};

void run_for(double seconds, std::vector<Activity>& activities,
             const std::function<bool()>& minimums_met) {
  Stopwatch clock;
  while (true) {
    const double elapsed = clock.elapsed_seconds();
    if (elapsed >= seconds + kOverrunSeconds) break;
    if (elapsed >= seconds && minimums_met()) break;
    Activity* next = &activities.front();
    for (Activity& a : activities) {
      if (a.spent / a.share < next->spent / next->share) next = &a;
    }
    Stopwatch timer;
    next->run();
    next->spent += timer.elapsed_seconds();
  }
}

/// Geomean over models of comparator-median / HCG-median for the models
/// where both cells are live; 1 when the workload has no such comparator.
double speedup(const std::vector<PreparedModel>& models, Role comparator) {
  std::vector<double> ratios;
  for (const PreparedModel& m : models) {
    const Cell& hcg_cell = m.cells[0];
    for (const Cell& c : m.cells) {
      if (c.spec.role != comparator || !c.ok() || !hcg_cell.ok() ||
          c.step_ns.empty() || hcg_cell.step_ns.empty()) {
        continue;
      }
      ratios.push_back(median(c.step_ns) / median(hcg_cell.step_ns));
    }
  }
  return ratios.empty() ? 1.0 : geomean(ratios);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_env(const Workload& workload, int jobs) {
  hcg::bench::BenchEnv env = hcg::bench::bench_env();
  env.jobs = static_cast<unsigned>(jobs);
  std::set<std::string> isas;
  for (const ModelSpec& m : workload.models) {
    for (const CellSpec& c : m.cells) {
      if (!c.isa.empty()) isas.insert(c.isa);
    }
  }
  for (const std::string& isa : isas) env.isa += (env.isa.empty() ? "" : ",") + isa;
  std::printf("env %s\n", hcg::bench::bench_json(workload.name, env, {}).c_str());
}

/// Per-cell and per-model rows: the numbers the geomeans hide.
void print_rows(const std::vector<PreparedModel>& models) {
  for (const PreparedModel& m : models) {
    for (const Cell& c : m.cells) {
      if (!c.ok()) continue;
      print_row("toolchain.step_ns." + c.row, median(c.step_ns), "ns");
      print_row("toolchain.step_ns_p90." + c.row, percentile(c.step_ns, 0.9), "ns");
    }
    if (!m.generate_ms.empty()) {
      print_row("codegen.generate_ms." + m.name, median(m.generate_ms), "ms");
    }
    if (m.cells[0].ok()) {
      print_row("codegen.static_buffer_bytes." + m.name,
                static_cast<double>(m.cells[0].code.static_buffer_bytes), "B");
      // Algorithm 1 measures its candidates on this host, so the choice of
      // a timed cell can differ between runs; print it beside the times.
      for (const auto& [actor, impl] : m.cells[0].code.intensive_choices) {
        std::printf("choice %s %s %s\n", m.cells[0].row.c_str(), actor.c_str(),
                    impl.c_str());
      }
    }
  }
}

/// Marks failed every cell that failed in any earlier set-up.
void carry_failures(std::vector<PreparedModel>& models,
                    const std::map<std::string, std::string>& failures) {
  for (PreparedModel& m : models) {
    for (Cell& c : m.cells) {
      if (auto it = failures.find(c.row); it != failures.end() && c.ok()) {
        c.failure = it->second;
        c.bin.reset();
      }
    }
  }
}

void end_to_end(const Args& args, const Workload& w, Output& out, int& attempted,
                int& failed) {
  SpanLog no_spans(false);
  std::vector<double> setup_s;
  std::vector<PreparedModel> models;
  std::map<std::string, std::string> failures;
  for (int i = 0; i < kSetups; ++i) {
    models.clear();  // release the previous set-up's compiled objects first
    Stopwatch timer;
    models = set_up(w, args.seed, no_spans, nullptr);
    const double elapsed = timer.elapsed_seconds();
    setup_s.push_back(hcg::bench::measured("setup", elapsed));
    for (const PreparedModel& m : models) {
      for (const Cell& c : m.cells) {
        if (!c.ok()) failures.emplace(c.row, c.failure);
      }
    }
  }
  carry_failures(models, failures);

  HostReference host;
  std::uint64_t round = args.seed;
  int step_rounds = 0;
  std::vector<Activity> activities = {
      {1.0 - w.generate_share,
       [&] {
         const double slowdown = host.sample_compute();
         step_round(models, round++, w.normalize_steps ? slowdown : 1.0);
         ++step_rounds;
       }},
      {w.generate_share, [&] {
         const double slowdown = host.sample_alloc();
         for (PreparedModel& m : models) {
           if (!m.cells[0].ok()) continue;
           m.raw_generate_ms.push_back(generate_once(m, no_spans));
           m.generate_ms.push_back(m.raw_generate_ms.back() / slowdown);
         }
       }}};
  run_for(args.seconds, activities, [&] {
    if (step_rounds < kMinStepRounds) return false;
    for (const PreparedModel& m : models) {
      if (m.cells[0].ok() && m.generate_ms.size() < kMinGenerateSamples) return false;
    }
    return true;
  });
  print_rows(models);

  std::vector<double> step_med, step_p90, gen_med, raw_step, raw_gen;
  double source = 0, text = 0, memory = 0;
  for (const PreparedModel& m : models) {
    const Cell& c = m.cells[0];
    if (!c.ok()) continue;
    step_med.push_back(median(c.step_ns));
    step_p90.push_back(percentile(c.step_ns, 0.9));
    gen_med.push_back(median(m.generate_ms));
    raw_step.push_back(median(c.raw_step_ns));
    raw_gen.push_back(median(m.raw_generate_ms));
    source += static_cast<double>(c.code.source.size());
    text += static_cast<double>(c.text_bytes);
    memory += static_cast<double>(c.code.static_buffer_bytes);
    for (const hcg::Tensor& t : m.io.inputs) memory += static_cast<double>(t.byte_size());
    for (const hcg::Tensor& t : m.io.outputs) memory += static_cast<double>(t.byte_size());
  }
  double scaling = 1.0;
  if (w.scaling && models.size() == 2 && models[0].cells[0].ok() &&
      models[1].cells[0].ok()) {
    scaling = median(models[1].generate_ms) / median(models[0].generate_ms);
  }
  attempted = cells_attempted(models);
  failed = cells_failed(models);

  for (int k = 0; k < HostReference::kKernels; ++k) {
    print_row("host.kernel_ns." + std::to_string(k), host.kernel_ns(k), "ns");
  }
  print_row("host.alloc_ns", host.alloc_ns(), "ns");
  print_row("host.compute_slowdown", host.compute_slowdown(), "x");
  print_row("host.alloc_slowdown", host.alloc_slowdown(), "x");
  print_row("raw.step_ns", geomean(raw_step), "ns");
  print_row("raw.generate_ms", geomean(raw_gen), "ms");
  print_row("raw.setup_s", median(setup_s), "s");

  out.add("step_ns", geomean(step_med), "ns");
  out.add("step_ns_p90", geomean(step_p90), "ns");
  out.add("speedup_vs_simulink", speedup(models, Role::kSimulink), "x");
  out.add("speedup_vs_dfsynth", speedup(models, Role::kDfsynth), "x");
  out.add("speedup_vs_o1", speedup(models, Role::kHcgO1), "x");
  out.add("generate_ms", geomean(gen_med), "ms");
  out.add("generate_scaling_x", scaling, "x");
  out.add("source_bytes", source, "B");
  out.add("text_bytes", text, "B");
  out.add("static_memory_bytes", memory, "B");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("pass_frac", 1.0 - static_cast<double>(failed) / attempted, "ratio");
  out.add("setup_s", median(setup_s) / host.alloc_slowdown(), "s");
}

void per_layer(const Args& args, const Workload& w, Output& out, int& attempted,
               int& failed) {
  SpanLog spans(true);
  SpanLog no_spans(false);
  SetupLayers setup_layers;
  std::vector<PreparedModel> models = set_up(w, args.seed, spans, &setup_layers);

  // Generation is timed both bare and inside the benchmark's spans; the
  // difference is the tracing overhead.
  std::map<std::string, std::vector<double>> traced_ms;
  LayerProbe layers;
  std::uint64_t round = args.seed;
  int step_rounds = 0;
  int generate_rounds = 0;
  std::vector<Activity> activities = {
      {0.2,
       [&] {
         Span span(spans, "step_round", w.name);
         step_round(models, round++, 1.0);
         ++step_rounds;
       }},
      {0.4,
       [&] {
         for (PreparedModel& m : models) {
           if (!m.cells[0].ok()) continue;
           if (generate_rounds % 2 == 0) {
             m.generate_ms.push_back(generate_once(m, no_spans));
           } else {
             traced_ms[m.name].push_back(generate_once(m, spans));
           }
         }
         ++generate_rounds;
       }},
      {0.4, [&] {
         for (PreparedModel& m : models) layers.round(m, spans);
       }}};
  run_for(args.seconds, activities, [&] {
    return step_rounds >= kMinTracedStepRounds &&
           generate_rounds >= 2 * kMinGenerateSamples &&
           layers.rounds() >= kMinLayerRounds * static_cast<int>(models.size());
  });
  print_rows(models);

  std::vector<double> bare, traced;
  for (const PreparedModel& m : models) {
    if (!m.cells[0].ok() || traced_ms[m.name].empty()) continue;
    bare.push_back(median(m.generate_ms));
    traced.push_back(median(traced_ms[m.name]));
  }
  attempted = cells_attempted(models);
  failed = cells_failed(models);

  out.metrics = layers.metrics();
  out.add("toolchain.cc_ms", setup_layers.cc_ms, "ms");
  out.add("vm.oracle_ms", setup_layers.oracle_ms, "ms");
  out.add("obs.trace_overhead_pct",
          bare.empty() ? 0.0 : 100.0 * (geomean(traced) / geomean(bare) - 1.0), "%");
  if (!args.spans_path.empty()) hcg::write_file(args.spans_path, spans.to_json());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const int jobs = pin_jobs();
    const Workload workload = make_workload(args.workload);
    print_env(workload, jobs);

    Output out;
    int attempted = 0;
    int failed = 0;
    if (args.trace) {
      per_layer(args, workload, out, attempted, failed);
    } else {
      end_to_end(args, workload, out, attempted, failed);
    }

    hcg::obs::JsonWriter json;
    json.begin_object();
    json.key("correct").value(failed == 0);
    json.key("attempted").value(static_cast<std::int64_t>(attempted));
    json.key("failed").value(static_cast<std::int64_t>(failed));
    json.key("metrics").begin_object();
    for (const Metric& m : out.metrics) {
      std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      json.key(m.name).begin_object();
      json.key("value").value(m.value);
      json.key("unit").value(m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    std::printf("%s\n", json.take().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcgbench: %s\n", e.what());
    return 1;
  }
}
