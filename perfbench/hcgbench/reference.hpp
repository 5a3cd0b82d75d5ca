// Host-speed reference.  On a shared host every cell speeds up or slows
// down together, for whole runs and for phases within one, by up to 1.7x.
// Fixed kernels owned by the benchmark (never by the program under test)
// start every sampling round, and each sample of the round is reported at
// the reference speed: raw time / (reference time / nominal time).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "toolchain/compiled_model.hpp"

namespace hcgbench {

class HostReference {
 public:
  /// Compiles host_reference.c the way cells are compiled (gcc -O2, -shared,
  /// dlopen) and sizes one sample of each kernel to about 0.25 ms.
  HostReference();

  /// One sample of each compiled kernel, taken at the start of every step
  /// round.  Returns the round's slowdown: the geomean over the kernels of
  /// sample / nominal time (1 at the nominal speed, 2 at half of it).
  double sample_compute();
  /// One sample of a kernel that builds and probes a string-keyed map, like
  /// the generator's own work, taken at the start of every generation
  /// round.  Returns sample / nominal time.
  double sample_alloc();

  /// The same slowdowns over the whole run, from the medians.
  double compute_slowdown() const;
  double alloc_slowdown() const;

  /// Median ns per call of compiled kernel `k`, and of the map kernel.
  double kernel_ns(int k) const;
  double alloc_ns() const;

  static constexpr int kKernels = 4;

 private:
  std::unique_ptr<hcg::toolchain::CompiledModel> bin_;
  float sink_ = 0.0f;
  std::array<int, kKernels> ids_ = {0, 1, 2, 3};
  std::array<long, kKernels> calls_per_sample_{};
  std::array<std::vector<double>, kKernels> kernel_ns_;
  std::vector<double> alloc_ns_;
};

}  // namespace hcgbench
