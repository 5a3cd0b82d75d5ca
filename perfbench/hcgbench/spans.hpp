// In-memory span recorder for the traced run.  Spans are opened around the
// benchmark's own calls into each layer (never inside the program), kept in
// memory, and written once as a Chrome trace-event file when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace hcgbench {

struct SpanRecord {
  std::string name;
  std::string trace;   // the cell (or model) every span of one request shares
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  int id = 0;
  int parent = -1;     // id of the enclosing span, -1 at top level
};

class SpanLog {
 public:
  /// Disabled logs record nothing, so one code path serves both runs.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int open(std::string name, std::string trace) {
    if (!enabled_) return -1;
    SpanRecord span;
    span.name = std::move(name);
    span.trace = std::move(trace);
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].dur_ns =
        now_ns() - spans_[static_cast<std::size_t>(id)].start_ns;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Chrome trace-event JSON: one "X" event per span, with the span id,
  /// parent id and trace in `args`.
  std::string to_json() const {
    hcg::obs::JsonWriter json;
    json.begin_array();
    for (const SpanRecord& span : spans_) {
      json.begin_object();
      json.key("name").value(span.name);
      json.key("ph").value("X");
      json.key("ts").value(static_cast<double>(span.start_ns) / 1e3);
      json.key("dur").value(static_cast<double>(span.dur_ns) / 1e3);
      json.key("pid").value(static_cast<std::uint64_t>(1));
      json.key("tid").value(static_cast<std::uint64_t>(1));
      json.key("args").begin_object();
      json.key("id").value(static_cast<std::int64_t>(span.id));
      json.key("parent").value(static_cast<std::int64_t>(span.parent));
      json.key("trace").value(span.trace);
      json.end_object();
      json.end_object();
    }
    json.end_array();
    return json.take();
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanLog& log, std::string name, std::string trace)
      : log_(log), id_(log.open(std::move(name), std::move(trace))) {}
  ~Span() { log_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace hcgbench
