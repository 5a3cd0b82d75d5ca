#include "reference.hpp"

#include <map>
#include <string>

#include "stats.hpp"
#include "support/fileio.hpp"
#include "support/stopwatch.hpp"

namespace hcgbench {

namespace {

using hcg::Stopwatch;

// Medians of the kernels in the fastest run seen on the host the benchmark
// was defined on (a 4-vCPU Intel Xeon VM at 2.0 GHz, gcc 12), in ns per
// call: scalar loops, integer multiply-add, FFT, matrix multiply, then the
// map kernel.  Any fixed values would do; these make the normalized times
// read as that host's times when it is not contended.
constexpr std::array<double, HostReference::kKernels> kNominalKernelNs = {
    930.0, 1440.0, 15900.0, 25200.0};
constexpr double kNominalAllocNs = 662000.0;

constexpr double kSampleSeconds = 0.25e-3;
constexpr int kKeys = 1500;

volatile long g_alloc_sink = 0;

[[gnu::noinline]] void alloc_kernel() {
  std::map<std::string, long> map;
  for (int i = 0; i < kKeys; ++i) {
    map.emplace("actor_" + std::to_string((i * 7919) % kKeys), i);
  }
  long sum = 0;
  for (int i = 0; i < kKeys; ++i) sum += map.find("actor_" + std::to_string(i))->second;
  g_alloc_sink = sum;
}

}  // namespace

HostReference::HostReference() {
  hcg::codegen::GeneratedCode code;
  code.source = hcg::read_file(HCGBENCH_REFERENCE_C);
  code.model_name = "host_reference";
  code.tool_name = "ref";
  code.init_symbol = "ref_init";
  code.step_symbol = "ref_step";
  hcg::toolchain::CompileOptions options;
  options.opt_flags = "-O2";
  bin_ = std::make_unique<hcg::toolchain::CompiledModel>(code, options);
  bin_->init();
  for (int k = 0; k < kKernels; ++k) {
    const std::vector<const void*> in = {&ids_[k]};
    const std::vector<void*> out = {&sink_};
    calls_per_sample_[k] = calls_per_sample(kSampleSeconds, [&] { bin_->step(in, out); });
  }
}

double HostReference::sample_compute() {
  std::vector<double> slowdowns;
  for (int k = 0; k < kKernels; ++k) {
    const std::vector<const void*> in = {&ids_[k]};
    const std::vector<void*> out = {&sink_};
    Stopwatch timer;
    for (long c = 0; c < calls_per_sample_[k]; ++c) bin_->step(in, out);
    kernel_ns_[k].push_back(timer.elapsed_seconds() * 1e9 /
                            static_cast<double>(calls_per_sample_[k]));
    slowdowns.push_back(kernel_ns_[k].back() / kNominalKernelNs[k]);
  }
  return geomean(slowdowns);
}

double HostReference::sample_alloc() {
  Stopwatch timer;
  alloc_kernel();
  alloc_ns_.push_back(timer.elapsed_seconds() * 1e9);
  return alloc_ns_.back() / kNominalAllocNs;
}

double HostReference::kernel_ns(int k) const { return median(kernel_ns_[k]); }
double HostReference::alloc_ns() const { return median(alloc_ns_); }

double HostReference::compute_slowdown() const {
  if (kernel_ns_[0].empty()) return 1.0;
  std::vector<double> slowdowns;
  for (int k = 0; k < kKernels; ++k) slowdowns.push_back(kernel_ns(k) / kNominalKernelNs[k]);
  return geomean(slowdowns);
}

double HostReference::alloc_slowdown() const {
  return alloc_ns_.empty() ? 1.0 : alloc_ns() / kNominalAllocNs;
}

}  // namespace hcgbench
