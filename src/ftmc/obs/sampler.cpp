#include "ftmc/obs/sampler.hpp"

#include <utility>

namespace ftmc::obs {

namespace {

/// cur - prev per metric.  Registration is append-only, so prev's metrics
/// are normally a prefix of cur's in the same order; the name check guards
/// the fast index path and falls back to a lookup otherwise.  Counter and
/// histogram cells subtract saturating at 0 (reset() between samples would
/// otherwise underflow); gauges keep the current absolute value.
MetricsSnapshot subtract(const MetricsSnapshot& cur,
                         const MetricsSnapshot& prev) {
  auto minus = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : 0;
  };
  MetricsSnapshot out;
  out.metrics.reserve(cur.metrics.size());
  for (std::size_t i = 0; i < cur.metrics.size(); ++i) {
    MetricValue value = cur.metrics[i];
    const MetricValue* base =
        i < prev.metrics.size() && prev.metrics[i].name == value.name
            ? &prev.metrics[i]
            : prev.find(value.name);
    if (base != nullptr && value.kind != MetricKind::kGauge) {
      value.value = minus(value.value, base->value);
      value.sum = minus(value.sum, base->sum);
      for (std::size_t b = 0;
           b < value.buckets.size() && b < base->buckets.size(); ++b)
        value.buckets[b] = minus(value.buckets[b], base->buckets[b]);
    }
    out.metrics.push_back(std::move(value));
  }
  return out;
}

/// other folded into total: counters/histograms add, gauges keep total's
/// value when present (total aggregates newest-first, so the first delta
/// seen already carries the newest gauge reading).
void accumulate(MetricsSnapshot& total, const MetricsSnapshot& other) {
  for (const MetricValue& value : other.metrics) {
    MetricValue* slot = const_cast<MetricValue*>(total.find(value.name));
    if (slot == nullptr) {
      total.metrics.push_back(value);
      continue;
    }
    if (value.kind == MetricKind::kGauge) continue;
    slot->value += value.value;
    slot->sum += value.sum;
    if (slot->buckets.size() < value.buckets.size())
      slot->buckets.resize(value.buckets.size(), 0);
    for (std::size_t b = 0; b < value.buckets.size(); ++b)
      slot->buckets[b] += value.buckets[b];
  }
}

}  // namespace

double TimeSeriesSampler::Window::rate(
    std::string_view counter) const noexcept {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(delta.value_of(counter)) / seconds;
}

double TimeSeriesSampler::Window::hit_rate(
    std::string_view hits, std::string_view misses) const noexcept {
  const double h = static_cast<double>(delta.value_of(hits));
  const double m = static_cast<double>(delta.value_of(misses));
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

TimeSeriesSampler::TimeSeriesSampler(Options options)
    : options_(std::move(options)),
      last_(obs::snapshot()),
      last_at_(std::chrono::steady_clock::now()) {
  if (options_.capacity == 0) options_.capacity = 1;
}

TimeSeriesSampler::~TimeSeriesSampler() { stop(); }

void TimeSeriesSampler::start() {
  if (thread_.joinable() || options_.interval_ms == 0) return;
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void TimeSeriesSampler::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  thread_ = std::thread();
}

bool TimeSeriesSampler::running() const noexcept {
  return thread_.joinable();
}

void TimeSeriesSampler::run() {
  std::unique_lock lock(mutex_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                     [this] { return stop_requested_; }))
      break;
    lock.unlock();
    sample_now();
    lock.lock();
  }
}

void TimeSeriesSampler::sample_now() {
  MetricsSnapshot snap = obs::snapshot();
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mutex_);
  Sample sample;
  sample.seconds = std::chrono::duration<double>(now - last_at_).count();
  sample.delta = subtract(snap, last_);
  ring_.push_back(std::move(sample));
  while (ring_.size() > options_.capacity) ring_.pop_front();
  last_ = std::move(snap);
  last_at_ = now;
  ++total_samples_;
}

TimeSeriesSampler::Window TimeSeriesSampler::window(
    double max_seconds) const {
  Window out;
  std::lock_guard lock(mutex_);
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (max_seconds > 0.0 && out.samples > 0 &&
        out.seconds + it->seconds > max_seconds)
      break;
    accumulate(out.delta, it->delta);
    out.seconds += it->seconds;
    ++out.samples;
  }
  return out;
}

std::uint64_t TimeSeriesSampler::sample_count() const noexcept {
  std::lock_guard lock(mutex_);
  return total_samples_;
}

}  // namespace ftmc::obs
