// Per-layer decomposition for the traced run.  Each round takes one model's
// HCG cell from XML text to C through the public function of every layer in
// turn, timing each call from here (tracing inside the program stays off).
// perfbench/README.md maps every layer metric to the end-to-end metric it
// should move.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "spans.hpp"

namespace hcgbench {

class LayerProbe {
 public:
  /// One decomposition round over `m`'s HCG cell.  Counts are recorded on
  /// the first round of a cell; a later round that disagrees marks the cell
  /// failed (the counts must repeat exactly).
  void round(PreparedModel& m, SpanLog& spans);

  /// Every per-layer metric: times as the sum over cells of each cell's
  /// median, counts as the sum over cells.
  std::vector<Metric> metrics() const;

  int rounds() const { return rounds_; }

 private:
  // cell row -> layer -> samples (ms)
  std::map<std::string, std::map<std::string, std::vector<double>>> times_;
  // cell row -> count name -> value
  std::map<std::string, std::map<std::string, double>> counts_;
  int rounds_ = 0;
};

}  // namespace hcgbench
