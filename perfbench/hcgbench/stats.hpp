// Order statistics the benchmark reports (medians, nearest-rank
// percentiles, geometric means over per-model rows) and sample sizing.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "support/stopwatch.hpp"

namespace hcgbench {

/// Nearest-rank percentile (q in (0, 1]) of a non-empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Geometric mean of positive values; 0 for an empty row set.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// How many back-to-back calls of `call` make one sample of about `seconds`,
/// judged from the calls that fit in a fifth of that.
template <typename Call>
long calls_per_sample(double seconds, Call&& call) {
  long calls = 0;
  hcg::Stopwatch timer;
  do {
    call();
    ++calls;
  } while (timer.elapsed_seconds() < 0.2 * seconds);
  const double per_call = timer.elapsed_seconds() / static_cast<double>(calls);
  return std::max(1L, std::lround(seconds / per_call));
}

}  // namespace hcgbench
