// Observability layer: metrics registry semantics under concurrency, span
// tracing + Chrome-trace export shape, and the differential guarantee that
// telemetry never changes results.
#include "ftmc/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/dse/ga.hpp"
#include "ftmc/obs/export.hpp"
#include "ftmc/obs/json.hpp"
#include "ftmc/obs/sampler.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/priority.hpp"
#include "ftmc/serve/json_parse.hpp"
#include "ftmc/sim/monte_carlo.hpp"
#include "ftmc/util/stats.hpp"
#include "ftmc/util/thread_pool.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;
using serve::JsonValue;

/// Member `key` of a parsed exporter document; throws (failing the test)
/// when it is absent.
const JsonValue& at(const JsonValue& value, std::string_view key) {
  const JsonValue* member = value.get(key);
  if (member == nullptr)
    throw std::runtime_error("missing key " + std::string(key));
  return *member;
}

// ---------------------------------------------------------------------------
// JSON writer.  The expected bytes were captured from the ostream-based
// writer this one replaced; every telemetry schema and every serve
// response depends on them.

TEST(ObsJson, GoldenBytes) {
  using obs::Json;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json::integer(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Json::integer(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");
  EXPECT_EQ(Json::uinteger(std::numeric_limits<std::uint64_t>::max()).dump(),
            "18446744073709551615");
  EXPECT_EQ(Json::array()
                .push(Json::number(3.14159, 2))
                .push(Json::number(-0.005, 2))
                .push(Json::number(1234567.891, 2))
                .push(Json::number(2.5, 0))
                .push(Json::number(-0.0, 2))
                .push(Json::number(1e20, 2))
                .dump(),
            "[3.14,-0.01,1234567.89,2,-0.00,100000000000000000000.00]");
  EXPECT_EQ(Json::array()
                .push(Json::number(0.1))
                .push(Json::number(1.0 / 3))
                .push(Json::number(1e300))
                .push(Json::number(5e-324))
                .push(Json::number(123.0))
                .push(Json::number(-2.5e-7))
                .push(Json::number(-0.0))
                .push(Json::number(std::numeric_limits<double>::max()))
                .dump(),
            "[0.10000000000000001,0.33333333333333331,"
            "1.0000000000000001e+300,4.9406564584124654e-324,123,"
            "-2.4999999999999999e-07,-0,1.7976931348623157e+308]");
  EXPECT_EQ(Json::array()
                .push(Json::number(kNan))
                .push(Json::number(kInf))
                .push(Json::number(-kInf, 2))
                .dump(),
            "[null,null,null]");
  std::string raw = "q\" b\\ \b\f\n\r\t / \x01\x1f\x7f";
  raw.push_back('\0');
  raw += "\xC3\xA9\xF0\x9F\x98\x80";
  EXPECT_EQ(Json::str(raw).dump(),
            "\"q\\\" b\\\\ \\b\\f\\n\\r\\t / \\u0001\\u001f\x7F"
            "\\u0000\xC3\xA9\xF0\x9F\x98\x80\"");
  EXPECT_EQ(Json::object().set("a\"b\n", 1).set("\xC3\xA9", true).dump(),
            "{\"a\\\"b\\n\":1,\"\xC3\xA9\":true}");
  EXPECT_EQ(Json::object()
                .set("a", Json::array())
                .set("o", Json::object())
                .set("n", Json())
                .set("l", Json::array()
                              .push(Json::array())
                              .push(Json::object())
                              .push(Json::array().push(Json::object())))
                .dump(),
            R"({"a":[],"o":{},"n":null,"l":[[],{},[{}]]})");
  EXPECT_EQ(Json::object()
                .set("t", true)
                .set("f", false)
                .set("d", 0.5)
                .set("s", "x")
                .set("i", -7)
                .set("u", 7u)
                .set("a", 1)
                .set("a", 2)
                .dump(),
            R"({"t":true,"f":false,"d":0.5,"s":"x","i":-7,"u":7,"a":2})");
  std::ostringstream out;
  out << Json::object().set("k", Json::array().push(Json::integer(1)));
  EXPECT_EQ(out.str(), R"({"k":[1]})");
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistry, CounterMergesThreadPoolIncrements) {
  obs::reset();
  constexpr std::size_t kTasks = 512;
  constexpr std::uint64_t kDelta = 3;
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [](std::size_t) {
    // Per-call handle construction exercises idempotent registration; real
    // hot paths hoist the handle into a function-local static.
    obs::Counter counter("test.pool_counter");
    counter.add(kDelta);
  });
  const auto snap = obs::snapshot();
  EXPECT_EQ(snap.value_of("test.pool_counter"), kTasks * kDelta);
}

TEST(MetricsRegistry, CountsSurviveThreadExit) {
  obs::reset();
  {
    // Shards of exited workers must drain into the retired accumulator.
    util::ThreadPool pool(3);
    pool.parallel_for(64, [](std::size_t) {
      obs::Counter counter("test.retired_counter");
      counter.add(1);
    });
  }  // pool joins here
  EXPECT_EQ(obs::snapshot().value_of("test.retired_counter"), 64u);
}

TEST(MetricsRegistry, GaugeLastWriterWins) {
  obs::reset();
  obs::Gauge gauge("test.gauge");
  gauge.set(41);
  gauge.add(1);
  EXPECT_EQ(obs::snapshot().value_of("test.gauge"), 42u);
  gauge.set(7);
  EXPECT_EQ(obs::snapshot().value_of("test.gauge"), 7u);
}

TEST(MetricsRegistry, HistogramBucketsCountAndSum) {
  obs::reset();
  obs::Histogram histogram("test.hist");
  histogram.record(0);    // bucket 0
  histogram.record(1);    // bucket 1
  histogram.record(5);    // bucket 3: [4, 8)
  histogram.record(7);    // bucket 3
  histogram.record(800);  // bucket 10: [512, 1024)
  const auto snap = obs::snapshot();
  const auto* metric = snap.find("test.hist");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(metric->value, 5u);
  EXPECT_EQ(metric->sum, 813u);
  ASSERT_GE(metric->buckets.size(), 11u);
  EXPECT_EQ(metric->buckets[0], 1u);
  EXPECT_EQ(metric->buckets[1], 1u);
  EXPECT_EQ(metric->buckets[3], 2u);
  EXPECT_EQ(metric->buckets[10], 1u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistration) {
  obs::reset();
  obs::Counter counter("test.reset_counter");
  counter.add(9);
  obs::reset();
  const auto snap = obs::snapshot();
  const auto* metric = snap.find("test.reset_counter");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value, 0u);
  counter.add(2);
  EXPECT_EQ(obs::snapshot().value_of("test.reset_counter"), 2u);
}

TEST(MetricsExport, SchemaRoundTripsThroughJson) {
  obs::reset();
  obs::Counter counter("test.export_counter");
  counter.add(5);
  obs::Gauge gauge("test.export_gauge");
  gauge.set(11);
  obs::Histogram histogram("test.export_hist");
  histogram.record(6);
  std::ostringstream out;
  obs::write_metrics_json(out);
  const JsonValue doc = serve::parse_json(out.str());
  EXPECT_EQ(at(doc, "schema").string, "ftmc.metrics.v1");
  EXPECT_EQ(at(at(doc, "counters"), "test.export_counter").number, 5.0);
  EXPECT_EQ(at(at(doc, "gauges"), "test.export_gauge").number, 11.0);
  const JsonValue& hist = at(at(doc, "histograms"), "test.export_hist");
  EXPECT_EQ(at(hist, "count").number, 1.0);
  EXPECT_EQ(at(hist, "sum").number, 6.0);
  ASSERT_EQ(at(hist, "buckets").array.size(), 4u);  // trailing zeros trimmed
  EXPECT_EQ(at(hist, "buckets").array[3].number, 1.0);
}

// ---------------------------------------------------------------------------
// Histogram quantiles.  The log2 buckets retain no raw samples, so
// MetricsSnapshot::quantile interpolates within a power-of-two bucket: the
// estimate must land within the true sample's bucket — i.e. within a factor
// of two of the exact percentile — and be monotone in q.

TEST(MetricsQuantile, TracksExactPercentilesWithinBucketResolution) {
  obs::reset();
  obs::Histogram histogram("test.quantile_hist");
  std::mt19937_64 rng(12345);
  std::uniform_int_distribution<std::uint64_t> dist(1, 200000);
  std::vector<double> samples;
  samples.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t sample = dist(rng);
    histogram.record(sample);
    samples.push_back(static_cast<double>(sample));
  }
  std::sort(samples.begin(), samples.end());
  const auto snap = obs::snapshot();
  double previous = 0.0;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double exact = util::percentile_sorted(samples, q);
    const double estimate = snap.quantile("test.quantile_hist", q);
    EXPECT_GE(estimate, exact / 2.0) << "q=" << q;
    EXPECT_LE(estimate, exact * 2.0) << "q=" << q;
    EXPECT_GE(estimate, previous) << "quantile must be monotone in q";
    previous = estimate;
  }
}

TEST(MetricsQuantile, StaysInsideTheOnlyOccupiedBucket) {
  obs::reset();
  obs::Histogram histogram("test.quantile_single");
  for (int i = 0; i < 7; ++i) histogram.record(6);  // bucket 3: [4, 8)
  const auto snap = obs::snapshot();
  for (const double q : {0.0, 0.5, 1.0}) {
    const double estimate = snap.quantile("test.quantile_single", q);
    EXPECT_GE(estimate, 4.0);
    EXPECT_LE(estimate, 8.0);
  }
}

TEST(MetricsQuantile, ZeroSamplesLandInBucketZero) {
  obs::reset();
  obs::Histogram histogram("test.quantile_zero");
  histogram.record(0);
  histogram.record(0);
  EXPECT_EQ(obs::snapshot().quantile("test.quantile_zero", 0.5), 0.0);
}

TEST(MetricsQuantile, MissingEmptyOrNonHistogramYieldsZero) {
  obs::reset();
  obs::Counter counter("test.quantile_counter");
  counter.add(5);
  obs::Histogram histogram("test.quantile_empty");
  const auto snap = obs::snapshot();
  EXPECT_EQ(snap.quantile("test.no_such_metric", 0.5), 0.0);
  EXPECT_EQ(snap.quantile("test.quantile_counter", 0.5), 0.0);
  EXPECT_EQ(snap.quantile("test.quantile_empty", 0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(MetricsExport, PrometheusExpositionShape) {
  obs::reset();
  obs::Counter counter("test.prom_counter");
  counter.add(5);
  obs::Gauge gauge("test.prom_gauge");
  gauge.set(11);
  obs::Histogram histogram("test.prom_hist");
  histogram.record(0);  // bucket 0 (le="0")
  histogram.record(1);  // bucket 1 (le="1")
  histogram.record(6);  // bucket 3 (le="7")
  const std::string text = obs::prometheus_text(obs::snapshot());
  const auto has = [&text](const std::string& line) {
    return text.find(line) != std::string::npos;
  };
  EXPECT_TRUE(has("# TYPE ftmc_test_prom_counter counter"));
  EXPECT_TRUE(has("ftmc_test_prom_counter 5\n"));
  EXPECT_TRUE(has("# TYPE ftmc_test_prom_gauge gauge"));
  EXPECT_TRUE(has("ftmc_test_prom_gauge 11\n"));
  EXPECT_TRUE(has("# TYPE ftmc_test_prom_hist histogram"));
  EXPECT_TRUE(has("ftmc_test_prom_hist_bucket{le=\"0\"} 1\n"));
  EXPECT_TRUE(has("ftmc_test_prom_hist_bucket{le=\"1\"} 2\n"));
  EXPECT_TRUE(has("ftmc_test_prom_hist_bucket{le=\"3\"} 2\n"));  // cumulative
  EXPECT_TRUE(has("ftmc_test_prom_hist_bucket{le=\"7\"} 3\n"));
  EXPECT_TRUE(has("ftmc_test_prom_hist_bucket{le=\"+Inf\"} 3\n"));
  EXPECT_TRUE(has("ftmc_test_prom_hist_sum 7\n"));
  EXPECT_TRUE(has("ftmc_test_prom_hist_count 3\n"));
}

// ---------------------------------------------------------------------------
// Time-series sampler.  interval_ms = 0 keeps the background thread off so
// sample_now() drives the ring deterministically.

TEST(Sampler, DeltasAgainstConstructionBaseline) {
  obs::reset();
  obs::Counter counter("test.sampler_counter");
  counter.add(10);  // pre-baseline traffic must not appear in any delta
  obs::TimeSeriesSampler::Options options;
  options.interval_ms = 0;
  obs::TimeSeriesSampler sampler(options);
  counter.add(5);
  sampler.sample_now();
  EXPECT_EQ(sampler.window().delta.value_of("test.sampler_counter"), 5u);
  counter.add(7);
  sampler.sample_now();
  const auto window = sampler.window();
  EXPECT_EQ(window.samples, 2u);
  EXPECT_EQ(window.delta.value_of("test.sampler_counter"), 12u);
  EXPECT_GE(window.rate("test.sampler_counter"), 0.0);
}

TEST(Sampler, RingEvictsOldestPastCapacity) {
  obs::reset();
  obs::Counter counter("test.sampler_ring");
  obs::TimeSeriesSampler::Options options;
  options.interval_ms = 0;
  options.capacity = 3;
  obs::TimeSeriesSampler sampler(options);
  for (int i = 0; i < 5; ++i) {
    counter.add(1);
    sampler.sample_now();
  }
  EXPECT_EQ(sampler.sample_count(), 5u);
  const auto window = sampler.window();
  EXPECT_EQ(window.samples, 3u);  // two oldest deltas fell off the ring
  EXPECT_EQ(window.delta.value_of("test.sampler_ring"), 3u);
}

TEST(Sampler, GaugesReportNewestSampledValue) {
  obs::reset();
  obs::Gauge gauge("test.sampler_gauge");
  obs::TimeSeriesSampler::Options options;
  options.interval_ms = 0;
  obs::TimeSeriesSampler sampler(options);
  gauge.set(5);
  sampler.sample_now();
  gauge.set(9);
  sampler.sample_now();
  EXPECT_EQ(sampler.window().delta.value_of("test.sampler_gauge"), 9u);
}

TEST(Sampler, HitRateAndHistogramDeltasFeedWindowedViews) {
  obs::reset();
  obs::Counter hits("test.sampler_hits");
  obs::Counter misses("test.sampler_misses");
  obs::Histogram latency("test.sampler_latency");
  latency.record(1000000);  // pre-baseline sample must not reach the window
  obs::TimeSeriesSampler::Options options;
  options.interval_ms = 0;
  obs::TimeSeriesSampler sampler(options);
  hits.add(3);
  misses.add(1);
  for (int i = 0; i < 100; ++i) latency.record(6);  // bucket 3: [4, 8)
  sampler.sample_now();
  const auto window = sampler.window();
  EXPECT_DOUBLE_EQ(window.hit_rate("test.sampler_hits", "test.sampler_misses"),
                   0.75);
  EXPECT_EQ(window.hit_rate("test.sampler_none_a", "test.sampler_none_b"),
            0.0);
  const double p50 = window.delta.quantile("test.sampler_latency", 0.5);
  EXPECT_GE(p50, 4.0);
  EXPECT_LE(p50, 8.0);
}

TEST(Sampler, BackgroundThreadSamplesAndJoinsCleanly) {
  obs::reset();
  obs::TimeSeriesSampler::Options options;
  options.interval_ms = 2;
  obs::TimeSeriesSampler sampler(options);
  EXPECT_FALSE(sampler.running());
  sampler.start();
  EXPECT_TRUE(sampler.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sampler.sample_count() < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(sampler.sample_count(), 2u);
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const std::uint64_t settled = sampler.sample_count();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(sampler.sample_count(), settled);  // no samples after the join
  sampler.stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Tracing.

/// Collects {ph, name, tid, ts} trace events from an exported document and
/// checks per-thread begin/end matching with a stack — exactly the property
/// chrome://tracing needs for duration events.
void check_trace(const std::string& text, std::size_t* spans_out = nullptr) {
  const JsonValue doc = serve::parse_json(text);
  const JsonValue& events = at(doc, "traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  std::map<double, std::vector<std::string>> stacks;  // tid -> open names
  std::map<double, double> last_ts;
  std::size_t spans = 0;
  for (const JsonValue& event : events.array) {
    const std::string& phase = at(event, "ph").string;
    if (phase == "M") continue;  // thread_name metadata carries no ts
    const double tid = at(event, "tid").number;
    const double ts = at(event, "ts").number;
    ASSERT_TRUE(phase == "B" || phase == "E" || phase == "i")
        << "unexpected phase " << phase;
    if (last_ts.count(tid) != 0) {
      EXPECT_GE(ts, last_ts[tid]) << "per-thread timestamps must not go back";
    }
    last_ts[tid] = ts;
    if (phase == "i") {
      // Instant events annotate rather than bracket: no stack effect, but
      // they must carry the thread scope and an args.id payload.
      EXPECT_EQ(at(event, "s").string, "t");
      ASSERT_EQ(at(event, "args").kind, JsonValue::Kind::kObject);
      at(at(event, "args"), "id");  // throws (fails the test) when absent
      continue;
    }
    if (phase == "B") {
      stacks[tid].push_back(at(event, "name").string);
    } else {
      ASSERT_FALSE(stacks[tid].empty()) << "end without matching begin";
      EXPECT_EQ(stacks[tid].back(), at(event, "name").string)
          << "ends must close the innermost open span";
      stacks[tid].pop_back();
      ++spans;
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  if (spans_out != nullptr) *spans_out = spans;
}

TEST(Tracing, DisabledSpansRecordNothing) {
  obs::disable_tracing();
  obs::clear_trace();
  { obs::Span span("test.ignored"); }
  std::ostringstream out;
  obs::write_chrome_trace(out);
  std::size_t spans = 999;
  check_trace(out.str(), &spans);
  EXPECT_EQ(spans, 0u);
}

TEST(Tracing, NestedSpansExportMatchedPairs) {
  obs::enable_tracing();
  obs::clear_trace();
  {
    obs::Span outer("test.outer");
    {
      obs::Span middle("test.middle");
      obs::Span inner("test.inner");
    }
  }
  obs::disable_tracing();
  std::ostringstream out;
  obs::write_chrome_trace(out);
  std::size_t spans = 0;
  check_trace(out.str(), &spans);
  EXPECT_EQ(spans, 3u);
}

TEST(Tracing, InstantEventsCarryTheirAnnotation) {
  obs::enable_tracing();
  obs::clear_trace();
  {
    obs::Span span("test.op");
    obs::trace_instant("serve.request_id", "r42");
  }
  obs::disable_tracing();
  std::ostringstream out;
  obs::write_chrome_trace(out);
  std::size_t spans = 0;
  check_trace(out.str(), &spans);  // validates ph/s/args shape
  EXPECT_EQ(spans, 1u);
  const JsonValue doc = serve::parse_json(out.str());
  bool found = false;
  for (const JsonValue& event : at(doc, "traceEvents").array) {
    if (at(event, "ph").string != "i") continue;
    EXPECT_EQ(at(event, "name").string, "serve.request_id");
    EXPECT_EQ(at(at(event, "args"), "id").string, "r42");
    found = true;
  }
  EXPECT_TRUE(found) << "instant event missing from the export";
}

TEST(Tracing, DisabledInstantEventsRecordNothing) {
  obs::disable_tracing();
  obs::clear_trace();
  obs::trace_instant("serve.request_id", "dropped");
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const JsonValue doc = serve::parse_json(out.str());
  EXPECT_TRUE(at(doc, "traceEvents").array.empty());
}

TEST(Tracing, RingWraparoundStillExportsBalancedPairs) {
  // 8-event ring, far more spans than fit: old events are overwritten and
  // the exporter must drop the resulting orphans instead of emitting
  // unbalanced B/E pairs.  Ring capacity binds at ring creation, so the
  // spans run on a fresh thread (whose ring is created under the new cap).
  obs::enable_tracing(8);
  obs::clear_trace();
  std::thread([] {
    obs::Span session("test.session");  // begin will be overwritten
    for (int i = 0; i < 100; ++i) obs::Span span("test.wrapped");
  }).join();
  obs::disable_tracing();
  std::ostringstream out;
  obs::write_chrome_trace(out);
  std::size_t spans = 0;
  check_trace(out.str(), &spans);
  EXPECT_GT(spans, 0u);
  EXPECT_LE(spans, 4u);  // at most ring_capacity / 2 complete spans
}

TEST(Tracing, WorkerThreadSpansCarryDistinctTids) {
  obs::enable_tracing();
  obs::clear_trace();
  {
    util::ThreadPool pool(2);
    pool.parallel_for(32, [](std::size_t) { obs::Span span("test.worker"); });
  }
  obs::disable_tracing();
  std::ostringstream out;
  obs::write_chrome_trace(out);
  check_trace(out.str());
}

// ---------------------------------------------------------------------------
// Differential: telemetry must never change results.  Runs each flow once
// with tracing off and once with tracing on (metrics always accumulate) and
// pins the outputs bitwise-identical.

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

struct TraceSession {
  TraceSession() { obs::enable_tracing(); }
  ~TraceSession() {
    obs::disable_tracing();
    obs::clear_trace();
  }
};

TEST(TelemetryDifferential, AnalyzeBitwiseIdentical) {
  const auto apps = fixtures::small_mixed_apps();
  hardening::HardeningPlan plan(apps.task_count());
  plan[0].technique = hardening::Technique::kReexecution;
  plan[0].reexecutions = 1;
  std::vector<model::ProcessorId> mapping(apps.task_count());
  for (std::size_t i = 0; i < mapping.size(); ++i)
    mapping[i] = model::ProcessorId{static_cast<std::uint32_t>(i % 2)};
  const auto arch = fixtures::test_arch(2);
  const auto system = hardening::apply_hardening(apps, plan, mapping, 2);
  const sched::HolisticAnalysis backend;
  const core::McAnalysis analysis(backend);

  obs::disable_tracing();
  const auto baseline = analysis.analyze(arch, system, {false, true});
  TraceSession session;
  const auto traced = analysis.analyze(arch, system, {false, true});

  ASSERT_EQ(baseline.wcrt.size(), traced.wcrt.size());
  for (std::size_t i = 0; i < baseline.wcrt.size(); ++i)
    EXPECT_EQ(baseline.wcrt[i], traced.wcrt[i]);
  EXPECT_EQ(baseline.scenario_count, traced.scenario_count);
  EXPECT_EQ(baseline.schedulable(), traced.schedulable());
}

TEST(TelemetryDifferential, SimulateBitwiseIdentical) {
  const auto apps = fixtures::small_mixed_apps();
  hardening::HardeningPlan plan(apps.task_count());
  plan[1].technique = hardening::Technique::kReexecution;
  plan[1].reexecutions = 1;
  std::vector<model::ProcessorId> mapping(apps.task_count());
  for (std::size_t i = 0; i < mapping.size(); ++i)
    mapping[i] = model::ProcessorId{static_cast<std::uint32_t>(i % 2)};
  const auto arch = fixtures::test_arch(2);
  const auto system = hardening::apply_hardening(apps, plan, mapping, 2);
  const auto priorities = sched::assign_priorities(system.apps);

  sim::MonteCarloOptions options;
  options.profiles = 200;
  options.seed = 7;
  options.threads = 2;

  const core::DropSet drop{false, false};
  obs::disable_tracing();
  const auto baseline =
      sim::monte_carlo_wcrt(arch, system, drop, priorities, options);
  TraceSession session;
  const auto traced =
      sim::monte_carlo_wcrt(arch, system, drop, priorities, options);

  EXPECT_EQ(baseline.worst_response, traced.worst_response);
  EXPECT_EQ(baseline.deadline_miss_profiles, traced.deadline_miss_profiles);
  EXPECT_EQ(baseline.events_processed, traced.events_processed);
  ASSERT_EQ(baseline.distribution.size(), traced.distribution.size());
  for (std::size_t g = 0; g < baseline.distribution.size(); ++g) {
    EXPECT_EQ(bits(baseline.distribution[g].mean),
              bits(traced.distribution[g].mean));
    EXPECT_EQ(baseline.distribution[g].max, traced.distribution[g].max);
    EXPECT_EQ(baseline.distribution[g].p99, traced.distribution[g].p99);
  }
}

TEST(TelemetryDifferential, OptimizeBitwiseIdentical) {
  const auto apps = fixtures::small_mixed_apps();
  const auto arch = fixtures::test_arch(2);
  const sched::HolisticAnalysis backend;
  dse::GeneticOptimizer optimizer(arch, apps, backend);
  dse::GaOptions options;
  options.population = 12;
  options.offspring = 12;
  options.generations = 4;
  options.seed = 17;
  options.threads = 2;

  obs::disable_tracing();
  const auto baseline = optimizer.run(options);
  TraceSession session;
  const auto traced = optimizer.run(options);

  EXPECT_EQ(baseline.evaluations, traced.evaluations);
  EXPECT_EQ(bits(baseline.best_feasible_power),
            bits(traced.best_feasible_power));
  ASSERT_EQ(baseline.pareto.size(), traced.pareto.size());
  for (std::size_t i = 0; i < baseline.pareto.size(); ++i) {
    EXPECT_EQ(bits(baseline.pareto[i].evaluation.power),
              bits(traced.pareto[i].evaluation.power));
    EXPECT_EQ(bits(baseline.pareto[i].evaluation.service),
              bits(traced.pareto[i].evaluation.service));
    EXPECT_EQ(baseline.pareto[i].candidate.base_mapping,
              traced.pareto[i].candidate.base_mapping);
  }
}

}  // namespace
