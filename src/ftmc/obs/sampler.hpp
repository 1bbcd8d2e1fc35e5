// Windowed time-series view of the metrics registry.
//
// A TimeSeriesSampler snapshots the registry on a fixed interval from a
// background thread and keeps a bounded ring of *deltas* (per-counter and
// per-histogram-bucket increase since the previous sample; gauges keep
// their latest absolute value).  Aggregating the most recent deltas yields
// windowed rates (requests/s, scenarios/s, cache hit rate) and windowed
// histogram quantiles via MetricsSnapshot::quantile — the live view a
// long-running `ftmc serve` daemon exposes through its `metrics` method,
// which lifetime counters alone cannot provide.
//
// Memory model: the ring holds `capacity` MetricsSnapshot deltas (a delta
// is one MetricValue per registered metric), so memory is bounded by
// capacity x registry size regardless of uptime.  The baseline for the
// first delta is a snapshot taken at construction.
//
// Concurrency contract: sample_now() and window() are safe from any thread
// (one mutex guards the ring and the baseline; the registry snapshot has
// its own synchronization).  start(), stop(), and the destructor must be
// called from one owning thread — the server starts the sampler at
// startup and stops it (joining the thread) on graceful drain.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <string_view>
#include <thread>

#include "ftmc/obs/metrics.hpp"

namespace ftmc::obs {

class TimeSeriesSampler {
 public:
  struct Options {
    /// Background sampling cadence; 0 disables the thread (sample_now()
    /// still works, for tests and manual driving).
    std::size_t interval_ms = 1000;
    /// Deltas retained; older samples fall off the ring.
    std::size_t capacity = 120;
  };

  /// Aggregate of the most recent deltas: counters/histograms hold the
  /// increase over the window, gauges the newest sampled value.
  struct Window {
    double seconds = 0.0;     ///< wall time the aggregated deltas cover
    std::size_t samples = 0;  ///< deltas aggregated
    MetricsSnapshot delta;

    /// Windowed per-second rate of a counter (0 when the window is empty).
    double rate(std::string_view counter) const noexcept;
    /// hits / (hits + misses) over the window; 0 when neither moved.
    double hit_rate(std::string_view hits,
                    std::string_view misses) const noexcept;
  };

  explicit TimeSeriesSampler(Options options);
  ~TimeSeriesSampler();  ///< stops and joins the background thread

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Launches the background thread (no-op when already running or when
  /// interval_ms is 0).
  void start();
  /// Stops and joins the background thread; idempotent.
  void stop();
  /// Whether the background thread runs.  A test hook, like sample_count().
  bool running() const noexcept;

  /// Takes one sample synchronously: registry snapshot, delta against the
  /// previous sample, push onto the ring (evicting the oldest past
  /// capacity).  The background thread calls exactly this.
  void sample_now();

  /// Aggregates the newest deltas covering up to `max_seconds` of wall
  /// time (everything retained when 0).
  Window window(double max_seconds = 0.0) const;

  /// Total samples taken since construction (not capped by the ring).  A
  /// test hook: production reads samples only through window().
  std::uint64_t sample_count() const noexcept;

 private:
  struct Sample {
    double seconds = 0.0;  ///< wall time since the previous sample
    MetricsSnapshot delta;
  };

  void run();

  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::thread thread_;
  bool stop_requested_ = false;
  std::deque<Sample> ring_;
  MetricsSnapshot last_;
  std::chrono::steady_clock::time_point last_at_;
  std::uint64_t total_samples_ = 0;
};

}  // namespace ftmc::obs
