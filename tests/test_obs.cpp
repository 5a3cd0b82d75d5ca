// Tests for the observability subsystem: span tracing, metrics, JSON
// writer/parser, and the structured codegen report.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "actors/resolve.hpp"
#include "benchmodels/benchmodels.hpp"
#include "codegen/generator.hpp"
#include "isa/builtin.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "synth/history.hpp"

namespace hcg {
namespace {

// ---------------------------------------------------------------------------
// JSON writer

TEST(ObsJson, WriterProducesValidNestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name").value("hcg \"quoted\" \n");
  w.key("count").value(std::uint64_t{42});
  w.key("offset").value(std::int64_t{-7});
  w.key("ratio").value(0.5);
  w.key("flag").value(true);
  w.key("missing").null();
  w.key("list").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested").begin_object().key("x").value("y").end_object();
  w.end_object();

  const std::string text = w.str();
  ASSERT_TRUE(obs::json_valid(text)) << text;

  obs::JsonValue doc = obs::json_parse(text);
  EXPECT_EQ(doc.at("name").string, "hcg \"quoted\" \n");
  EXPECT_EQ(doc.at("count").number, 42.0);
  EXPECT_EQ(doc.at("offset").number, -7.0);
  EXPECT_EQ(doc.at("ratio").number, 0.5);
  EXPECT_TRUE(doc.at("flag").boolean);
  EXPECT_TRUE(doc.at("missing").is_null());
  ASSERT_EQ(doc.at("list").array.size(), 3u);
  EXPECT_EQ(doc.at("list").array[2].number, 3.0);
  EXPECT_EQ(doc.at("nested").at("x").string, "y");
}

TEST(ObsJson, NonFiniteDoublesSerializeAsNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  obs::JsonValue doc = obs::json_parse(w.str());
  EXPECT_TRUE(doc.array[0].is_null());
  EXPECT_TRUE(doc.array[1].is_null());
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("[1,2,]"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1} trailing"));
  EXPECT_FALSE(obs::json_valid("{'a':1}"));
  EXPECT_FALSE(obs::json_valid("nulll"));
  EXPECT_THROW(obs::json_parse("{\"a\":}"), ParseError);
  EXPECT_TRUE(obs::json_valid("null"));
  EXPECT_TRUE(obs::json_valid("[ ]"));
}

TEST(ObsJson, ParserDecodesEscapes) {
  obs::JsonValue doc = obs::json_parse(R"({"s":"a\tbA\n"})");
  EXPECT_EQ(doc.at("s").string, "a\tbA\n");
}

// ---------------------------------------------------------------------------
// Tracer

#ifndef HCG_DISABLE_TRACING

/// Enables tracing for one test, restoring the previous state after.
class TracerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().set_enabled(true);
    obs::Tracer::instance().clear();
  }
  void TearDown() override {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(false);
  }
};

TEST_F(TracerFixture, SpansNestIntoATree) {
  {
    HCG_TRACE_SCOPE("outer");
    {
      HCG_TRACE_SCOPE("inner_a");
    }
    {
      HCG_TRACE_SCOPE("inner_b");
      HCG_TRACE_SCOPE("leaf");
    }
  }
  const auto events = obs::Tracer::instance().events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[0].parent, -1);
  EXPECT_EQ(events[1].name, "inner_a");
  EXPECT_EQ(events[1].parent, 0);
  EXPECT_EQ(events[2].name, "inner_b");
  EXPECT_EQ(events[2].parent, 0);
  EXPECT_EQ(events[3].name, "leaf");
  EXPECT_EQ(events[3].depth, 2);
  EXPECT_EQ(events[3].parent, 2);
  for (const auto& e : events) {
    EXPECT_GE(e.dur_ns, 0) << e.name << " was never closed";
    EXPECT_GE(e.start_ns, 0);
  }
  // A child must start no earlier and end no later than its parent.
  EXPECT_GE(events[3].start_ns, events[2].start_ns);
  EXPECT_LE(events[3].start_ns + events[3].dur_ns,
            events[2].start_ns + events[2].dur_ns);
}

TEST_F(TracerFixture, DisabledTracerRecordsNothing) {
  obs::Tracer::instance().set_enabled(false);
  {
    HCG_TRACE_SCOPE("ignored");
  }
  EXPECT_TRUE(obs::Tracer::instance().events().empty());
}

TEST_F(TracerFixture, ThreadsGetDistinctOrdinals) {
  {
    HCG_TRACE_SCOPE("main_span");
  }
  std::thread worker([] { HCG_TRACE_SCOPE("worker_span"); });
  worker.join();
  const auto events = obs::Tracer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  // Spans on different threads do not nest into each other.
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[1].parent, -1);
}

TEST_F(TracerFixture, TraceJsonIsChromeTraceEventFormat) {
  {
    HCG_TRACE_SCOPE("phase");
    HCG_TRACE_SCOPE("step");
  }
  const std::string text = obs::Tracer::instance().trace_json();
  ASSERT_TRUE(obs::json_valid(text)) << text;
  obs::JsonValue doc = obs::json_parse(text);
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 2u);
  for (const obs::JsonValue& event : doc.array) {
    ASSERT_TRUE(event.is_object());
    EXPECT_EQ(event.at("ph").string, "X");
    EXPECT_NE(event.at("name").string, "");
    EXPECT_GE(event.at("ts").number, 0.0);
    EXPECT_GE(event.at("dur").number, 0.0);
    EXPECT_NE(event.find("pid"), nullptr);
    EXPECT_NE(event.find("tid"), nullptr);
  }
}

TEST_F(TracerFixture, SummaryIndentsChildren) {
  {
    HCG_TRACE_SCOPE("root");
    HCG_TRACE_SCOPE("child");
  }
  const std::string text = obs::Tracer::instance().summary();
  EXPECT_NE(text.find("root"), std::string::npos);
  EXPECT_NE(text.find("  child"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
}

/// Span counts, by name, that one -O1 hcg emit of `model` records.
std::map<std::string, int> emit_span_counts(const Model& model) {
  synth::SelectionHistory history;
  auto tool = codegen::make_hcg_generator(isa::builtin("neon_sim"), &history,
                                          {}, /*opt_level=*/1);
  obs::Tracer::instance().clear();
  tool->generate(model);
  std::map<std::string, int> counts;
  for (const obs::TraceEvent& event : obs::Tracer::instance().events()) {
    ++counts[event.name];
  }
  return counts;
}

// Emit computes each analysis once: one schedule for resolve, one for the
// range analysis and one for the single region scan that narrowing, its
// HCG412 scan and the region builder share.  A narrowing round adds a
// re-resolve plus one more range analysis and region scan.
TEST_F(TracerFixture, EmitSchedulesAndScansRegionsOnce) {
  const std::map<std::string, int> fir =
      emit_span_counts(benchmodels::fir_model());
  EXPECT_EQ(fir.at("model.schedule"), 3);
  EXPECT_EQ(fir.at("analysis.range"), 1);

  const std::map<std::string, int> narrowed =
      emit_span_counts(benchmodels::rangepipe_model());
  EXPECT_EQ(narrowed.at("model.schedule"), 6);
  EXPECT_EQ(narrowed.at("analysis.range"), 2);
}

#endif  // HCG_DISABLE_TRACING

TEST(ObsTrace, EmptyTraceIsAValidJsonArray) {
  obs::Tracer::instance().clear();
  const std::string text = obs::Tracer::instance().trace_json();
  obs::JsonValue doc = obs::json_parse(text);
  EXPECT_TRUE(doc.is_array());
  EXPECT_TRUE(doc.array.empty());
}

// ---------------------------------------------------------------------------
// Metrics

TEST(ObsMetrics, RegistryDeduplicatesByName) {
  obs::Counter& a = obs::Registry::instance().counter("test.dedup");
  obs::Counter& b = obs::Registry::instance().counter("test.dedup");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, RegistryJsonIsWellFormed) {
  obs::Registry::instance().counter("test.json.counter");
  obs::Registry::instance().gauge("test.json.gauge");
  obs::Registry::instance().histogram("test.json.histogram");
  const std::string text = obs::Registry::instance().to_json();
  ASSERT_TRUE(obs::json_valid(text)) << text;
  obs::JsonValue doc = obs::json_parse(text);
  EXPECT_NE(doc.at("counters").find("test.json.counter"), nullptr);
  EXPECT_NE(doc.at("gauges").find("test.json.gauge"), nullptr);
  EXPECT_NE(doc.at("histograms").find("test.json.histogram"), nullptr);
}

#ifndef HCG_DISABLE_TRACING

TEST(ObsMetrics, CounterAccumulates) {
  obs::Counter& c = obs::Registry::instance().counter("test.counter.acc");
  c.reset();
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
}

TEST(ObsMetrics, GaugeKeepsLastValue) {
  obs::Gauge& g = obs::Registry::instance().gauge("test.gauge.last");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
}

TEST(ObsMetrics, HistogramTracksStatistics) {
  obs::Histogram& h = obs::Registry::instance().histogram("test.hist.stats");
  h.reset();
  h.observe(1.0);
  h.observe(4.0);
  h.observe(1000.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1005.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 335.0);
  // Bucketed quantiles are approximate: p0 lives in [1,2), p100 in the
  // bucket containing 1000 = [512,2048).
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(0.0), 2.0);
  EXPECT_GE(h.quantile(1.0), 512.0);
  EXPECT_LE(h.quantile(1.0), 2048.0);
}

TEST(ObsMetrics, HistogramPercentileAccessors) {
  obs::Histogram& h = obs::Registry::instance().histogram("test.hist.pctl");
  h.reset();
  // 100 samples: 97 fast ones in [2,4), three stragglers in [1024,2048).
  for (int i = 0; i < 97; ++i) h.observe(3.0);
  for (int i = 0; i < 3; ++i) h.observe(1500.0);
  EXPECT_EQ(h.p50(), h.quantile(0.50));
  EXPECT_EQ(h.p95(), h.quantile(0.95));
  EXPECT_EQ(h.p99(), h.quantile(0.99));
  // p50/p95 sit in the fast bucket, p99 must surface the straggler bucket.
  EXPECT_GE(h.p50(), 2.0);
  EXPECT_LT(h.p50(), 4.0);
  EXPECT_GE(h.p95(), 2.0);
  EXPECT_LT(h.p95(), 4.0);
  EXPECT_GE(h.p99(), 1024.0);
  EXPECT_LE(h.p99(), 2048.0);
  // Empty histogram: every percentile reads zero.
  h.reset();
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(ObsMetrics, RegistryJsonCarriesP99) {
  obs::Histogram& h = obs::Registry::instance().histogram("test.hist.p99json");
  h.reset();
  h.observe(8.0);
  const obs::JsonValue doc =
      obs::json_parse(obs::Registry::instance().to_json());
  const obs::JsonValue* hist =
      doc.at("histograms").find("test.hist.p99json");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->find("p99"), nullptr);
  EXPECT_DOUBLE_EQ(hist->find("p99")->number, h.p99());
}

#endif  // HCG_DISABLE_TRACING

// ---------------------------------------------------------------------------
// Logging helpers

TEST(ObsLogging, ParseLogLevelAcceptsKnownNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

// ---------------------------------------------------------------------------
// Selection history statistics

TEST(ObsHistory, LookupCountsHitsAndMisses) {
  synth::SelectionHistory history;
  const std::vector<Shape> shapes = {Shape{1024}};
  EXPECT_FALSE(history.lookup("FFT", DataType::kComplex64, shapes).has_value());
  history.store("FFT", DataType::kComplex64, shapes, "fft_radix4");
  EXPECT_TRUE(history.lookup("FFT", DataType::kComplex64, shapes).has_value());
  EXPECT_TRUE(history.lookup("FFT", DataType::kComplex64, shapes).has_value());
  EXPECT_EQ(history.hits(), 2u);
  EXPECT_EQ(history.misses(), 1u);
  history.reset_stats();
  EXPECT_EQ(history.hits(), 0u);
  EXPECT_EQ(history.misses(), 0u);
}

// ---------------------------------------------------------------------------
// Report

TEST(ObsReport, RoundTripsThroughJson) {
  obs::Report report;
  report.model = "fig4";
  report.tool = "hcg";
  report.isa = "neon";
  report.actor_count = 7;
  report.phases = {{"resolve", 0.5}, {"emit", 1.25}};
  obs::ReportIntensive fft;
  fft.actor = "FFT1";
  fft.actor_type = "FFT";
  fft.dtype = "c64";
  fft.impl = "fft_radix4";
  fft.selected = true;
  fft.candidates = {{"fft_dit", 2.0}, {"fft_radix4", 1.0}};
  report.intensive.push_back(fft);
  obs::ReportRegion region;
  region.actors = {"Sub", "Shr"};
  region.nodes = 2;
  region.used_simd = true;
  region.batch_size = 4;
  region.batch_count = 256;
  region.scalar_remainder = 2;
  region.instructions = {"vsubq_s32", "vhaddq_s32"};
  report.regions.push_back(region);
  report.emit_bytes = 4096;
  report.fused_regions = 1;
  report.history_hits = 3;
  report.history_misses = 1;
  report.compile_ms = 120.0;
  report.compile_command = "cc -shared model.c";

  const std::string text = report.to_json(/*include_metrics=*/true);
  ASSERT_TRUE(obs::json_valid(text)) << text;
  obs::JsonValue doc = obs::json_parse(text);
  EXPECT_EQ(doc.at("schema").string, "hcg-report-v1");
  EXPECT_EQ(doc.at("model").string, "fig4");
  EXPECT_EQ(doc.at("tool").string, "hcg");
  EXPECT_EQ(doc.at("isa").string, "neon");
  EXPECT_EQ(doc.at("actor_count").number, 7.0);
  ASSERT_EQ(doc.at("phases").array.size(), 2u);
  EXPECT_EQ(doc.at("phases").array[1].at("name").string, "emit");
  EXPECT_EQ(doc.at("phases").array[1].at("ms").number, 1.25);
  const obs::JsonValue& intensive = doc.at("intensive").array.at(0);
  EXPECT_EQ(intensive.at("actor").string, "FFT1");
  EXPECT_EQ(intensive.at("impl").string, "fft_radix4");
  ASSERT_EQ(intensive.at("candidates").array.size(), 2u);
  EXPECT_EQ(intensive.at("candidates").array[1].at("impl").string,
            "fft_radix4");
  const obs::JsonValue& r = doc.at("regions").array.at(0);
  EXPECT_TRUE(r.at("used_simd").boolean);
  EXPECT_EQ(r.at("scalar_remainder").number, 2.0);
  ASSERT_EQ(r.at("instructions").array.size(), 2u);
  EXPECT_EQ(r.at("instructions").array[0].string, "vsubq_s32");
  EXPECT_EQ(doc.at("history").at("hits").number, 3.0);
  EXPECT_EQ(doc.at("toolchain").at("compile_ms").number, 120.0);
  EXPECT_NE(doc.find("metrics"), nullptr);

  // Without metrics the snapshot is omitted entirely.
  obs::JsonValue lean = obs::json_parse(report.to_json(false));
  EXPECT_EQ(lean.find("metrics"), nullptr);

  // The toolchain section appears only once the code was actually compiled.
  obs::JsonValue fresh = obs::json_parse(obs::Report{}.to_json(false));
  EXPECT_EQ(fresh.find("toolchain"), nullptr);
}

TEST(ObsReport, SimdCoverageIsNodeWeighted) {
  obs::Report report;
  EXPECT_EQ(report.simd_coverage(), 0.0);
  obs::ReportRegion simd;
  simd.nodes = 3;
  simd.used_simd = true;
  obs::ReportRegion scalar;
  scalar.nodes = 1;
  scalar.used_simd = false;
  report.regions = {simd, scalar};
  EXPECT_DOUBLE_EQ(report.simd_coverage(), 0.75);
}

TEST(ObsReport, EmitModelPopulatesReport) {
  Model model = resolved(benchmodels::paper_fig4_model(1024));
  codegen::EmitConfig config;
  config.tool_name = "hcg";
  config.batch_mode = codegen::BatchMode::kRegions;
  config.isa = &isa::builtin("neon_sim");
  config.select_intensive = true;
  synth::SelectionHistory history;
  config.history = &history;
  codegen::GeneratedCode code = codegen::emit_model(model, config);

  const obs::Report& report = code.report;
  EXPECT_EQ(report.tool, "hcg");
  EXPECT_EQ(report.isa, "neon_sim");
  EXPECT_EQ(report.actor_count, model.actor_count());
  EXPECT_FALSE(report.phases.empty());
  std::set<std::string> phase_names;
  for (const auto& phase : report.phases) {
    phase_names.insert(phase.name);
    EXPECT_GE(phase.ms, 0.0);
  }
  EXPECT_TRUE(phase_names.count("resolve"));
  EXPECT_TRUE(phase_names.count("emit"));
  ASSERT_FALSE(report.regions.empty());
  int simd_instructions = 0;
  for (const auto& region : report.regions) {
    EXPECT_GT(region.nodes, 0);
    simd_instructions += static_cast<int>(region.instructions.size());
  }
  EXPECT_EQ(simd_instructions,
            static_cast<int>(code.simd_instructions.size()));
  EXPECT_EQ(report.emit_bytes, code.source.size());
  EXPECT_EQ(report.fused_regions, code.fused_regions);
  ASSERT_TRUE(obs::json_valid(report.to_json()));
}

}  // namespace
}  // namespace hcg
