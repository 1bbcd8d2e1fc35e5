// Process-wide metrics registry: named counters, gauges, and histograms
// with thread-local shards, designed so the hot paths (analysis worklist,
// simulation event loop, DSE evaluation fan-out) can stay instrumented
// permanently.
//
// Design (cheap always-on counters, rich traces on demand — the DT/RT split
// of Weichslgartner et al. applied to telemetry):
//
//  * A metric is registered once by name and identified by a small integer
//    id.  Handle objects (Counter/Gauge/Histogram) capture the id at
//    construction — typically in a function-local static — so the hot path
//    never touches the name table.
//
//  * Counter::add and Histogram::record write to a *thread-local* shard
//    cell.  Only the owning thread ever writes a cell, so the increment is
//    a relaxed load + add + relaxed store (no lock prefix, no contention);
//    readers (snapshot) do relaxed loads of the atomics, which is exactly
//    the published-but-unordered visibility a monitoring snapshot needs.
//    Shard storage is chunked and append-only (chunk pointers installed
//    with release stores into a fixed table), so cells never move and
//    snapshot never races a reallocation.
//
//  * When a thread exits, its shard drains into a retired accumulator
//    under the registry mutex — counts survive the thread pool that
//    produced them.
//
//  * Gauges are single global atomics (set/add are rare, last-writer-wins
//    semantics are the point of a gauge).
//
//  * Histograms are power-of-two-bucketed (bucket b counts samples with
//    bit_width(value) == b, i.e. value in [2^(b-1), 2^b)), plus exact count
//    and sum — enough for rate/mean/rough-percentile dashboards without
//    per-sample storage.  Exact percentiles stay the job of
//    util::percentile_sorted over explicit sample vectors.
//
// The instrumented hot paths accumulate into plain locals and flush once
// per solve/run, so the steady-state overhead is a handful of relaxed
// stores per kernel invocation (see DESIGN.md "Observability" for how it
// is measured).
//
// Instrumentation must never change results: handles carry no state that
// feeds back into the computation, and the differential suites in
// tests/test_obs.cpp pin analyze/simulate/optimize bitwise-identical with
// telemetry on and off.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ftmc::obs {

inline constexpr std::size_t kHistogramBuckets = 64;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One metric's merged value at snapshot time.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter total / gauge value / histogram count
  std::uint64_t sum = 0;    ///< histogram only: sum of samples
  std::vector<std::uint64_t> buckets;  ///< histogram only: log2 buckets
};

/// Consistent-enough view of every registered metric: each cell is read
/// once with a relaxed load; cross-metric skew is possible (and fine for
/// monitoring), per-cell values are never torn.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /// Value of a named counter/gauge (0 when absent) — test/export helper.
  std::uint64_t value_of(std::string_view name) const noexcept;
  const MetricValue* find(std::string_view name) const noexcept;

  /// Estimated q-quantile (q in [0,1]) of a named histogram from its
  /// power-of-two buckets: the target rank is located bucket by bucket and
  /// interpolated log-linearly inside the covering bucket, so the estimate
  /// is always within the bucket's [2^(b-1), 2^b) value range.  Returns 0
  /// when the histogram is absent or empty.  This is the percentile path
  /// for metrics whose raw samples are not retained (e.g. serve request
  /// latencies); exact percentiles over explicit sample vectors remain
  /// util::percentile_sorted's job.
  double quantile(std::string_view name, double q) const noexcept;
};

namespace detail {

/// Registers `name` (idempotent; the kind must match across call sites) and
/// returns its slot id.  Counters occupy 1 cell, gauges 0 (they live in the
/// registry), histograms 2 + kHistogramBuckets cells (count, sum, buckets).
std::size_t register_metric(std::string_view name, MetricKind kind);

/// Owning-thread cell bump: relaxed load + add + relaxed store (never an
/// atomic RMW — the owner is the only writer).
void shard_add(std::size_t cell, std::uint64_t delta) noexcept;

void gauge_store(std::size_t id, std::uint64_t value) noexcept;
void gauge_add(std::size_t id, std::int64_t delta) noexcept;

}  // namespace detail

class Counter {
 public:
  explicit Counter(std::string_view name)
      : cell_(detail::register_metric(name, MetricKind::kCounter)) {}

  void add(std::uint64_t delta = 1) noexcept {
    if (delta != 0) detail::shard_add(cell_, delta);
  }

 private:
  std::size_t cell_;
};

class Gauge {
 public:
  explicit Gauge(std::string_view name)
      : id_(detail::register_metric(name, MetricKind::kGauge)) {}

  void set(std::uint64_t value) noexcept { detail::gauge_store(id_, value); }
  void add(std::int64_t delta) noexcept { detail::gauge_add(id_, delta); }

 private:
  std::size_t id_;
};

class Histogram {
 public:
  explicit Histogram(std::string_view name)
      : base_(detail::register_metric(name, MetricKind::kHistogram)) {}

  void record(std::uint64_t sample) noexcept {
    detail::shard_add(base_, 1);            // count
    detail::shard_add(base_ + 1, sample);   // sum
    detail::shard_add(base_ + 2 + bucket_of(sample), 1);
  }

  static std::size_t bucket_of(std::uint64_t sample) noexcept {
    return static_cast<std::size_t>(std::bit_width(sample));
  }

 private:
  std::size_t base_;
};

/// Merged view over the retired accumulator and every live thread shard.
MetricsSnapshot snapshot();

/// Zeroes every counter/gauge/histogram cell (live shards and the retired
/// accumulator).  Registrations survive.  Meant for tests and for delta
/// reporting around a run; concurrent writers may re-add concurrently.
void reset();

}  // namespace ftmc::obs
