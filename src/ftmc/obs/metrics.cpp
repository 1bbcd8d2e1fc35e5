#include "ftmc/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace ftmc::obs {

std::uint64_t MetricsSnapshot::value_of(std::string_view name) const noexcept {
  const MetricValue* metric = find(name);
  return metric == nullptr ? 0 : metric->value;
}

const MetricValue* MetricsSnapshot::find(
    std::string_view name) const noexcept {
  for (const MetricValue& metric : metrics)
    if (metric.name == name) return &metric;
  return nullptr;
}

double MetricsSnapshot::quantile(std::string_view name,
                                 double q) const noexcept {
  const MetricValue* metric = find(name);
  if (metric == nullptr || metric->kind != MetricKind::kHistogram ||
      metric->value == 0)
    return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Same rank convention as util::percentile_sorted: rank q*(n-1) over the
  // sorted samples, so quantile(..., 0) is the minimum bucket and
  // quantile(..., 1) the maximum.
  const double rank = q * static_cast<double>(metric->value - 1);
  double below = 0.0;
  for (std::size_t b = 0; b < metric->buckets.size(); ++b) {
    const double count = static_cast<double>(metric->buckets[b]);
    if (count == 0.0) continue;
    if (rank < below + count || b + 1 == metric->buckets.size()) {
      if (b == 0) return 0.0;  // bucket 0 holds exactly the value 0
      // Interpolate log-linearly across the bucket's [2^(b-1), 2^b) range:
      // position 0 within the bucket maps to the lower edge, position 1 to
      // the upper, with equal rank-mass per octave fraction.
      double position = (rank - below) / count;
      if (position < 0.0) position = 0.0;
      if (position > 1.0) position = 1.0;
      return std::exp2(static_cast<double>(b - 1) + position);
    }
    below += count;
  }
  return 0.0;
}

namespace {

/// Append-only chunked cell store: chunk pointers are installed exactly
/// once (release store) by the owning/registering thread and never freed
/// while the shard lives, so a snapshot reader can acquire-load a chunk
/// pointer and index into it without ever racing a reallocation.
struct Shard {
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = 1u << kChunkShift;  // 256 cells
  static constexpr std::size_t kMaxChunks = 256;  // 65536 cells total

  std::atomic<std::atomic<std::uint64_t>*> chunks[kMaxChunks] = {};

  ~Shard() {
    for (auto& slot : chunks) delete[] slot.load(std::memory_order_relaxed);
  }

  /// Owner-thread access; allocates the covering chunk on first touch.
  std::atomic<std::uint64_t>& cell(std::size_t index) {
    const std::size_t chunk = index >> kChunkShift;
    std::atomic<std::uint64_t>* data =
        chunks[chunk].load(std::memory_order_relaxed);
    if (data == nullptr) {
      data = new std::atomic<std::uint64_t>[kChunkSize];
      for (std::size_t i = 0; i < kChunkSize; ++i)
        data[i].store(0, std::memory_order_relaxed);
      chunks[chunk].store(data, std::memory_order_release);
    }
    return data[index & (kChunkSize - 1)];
  }

  /// Reader access: 0 when the chunk was never touched by the owner.
  std::uint64_t read(std::size_t index) const noexcept {
    const std::atomic<std::uint64_t>* data =
        chunks[index >> kChunkShift].load(std::memory_order_acquire);
    return data == nullptr
               ? 0
               : data[index & (kChunkSize - 1)].load(
                     std::memory_order_relaxed);
  }

  void zero(std::size_t cell_count) noexcept {
    for (std::size_t c = 0; c * kChunkSize < cell_count; ++c) {
      std::atomic<std::uint64_t>* data =
          chunks[c].load(std::memory_order_acquire);
      if (data == nullptr) continue;
      for (std::size_t i = 0; i < kChunkSize; ++i)
        data[i].store(0, std::memory_order_relaxed);
    }
  }
};

struct MetricInfo {
  std::string name;
  MetricKind kind;
  std::size_t cell_base = 0;   ///< counters/histograms: first shard cell
  std::size_t gauge_index = 0; ///< gauges: index into Registry::gauges
};

std::size_t cells_of(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return 1;
    case MetricKind::kGauge: return 0;
    case MetricKind::kHistogram: return 2 + kHistogramBuckets;
  }
  return 0;
}

class Registry {
 public:
  std::size_t register_metric(std::string_view name, MetricKind kind) {
    std::lock_guard lock(mutex_);
    const auto found = ids_.find(std::string(name));
    if (found != ids_.end()) {
      const MetricInfo& info = metrics_[found->second];
      if (info.kind != kind)
        throw std::logic_error("obs: metric '" + std::string(name) +
                               "' re-registered with a different kind");
      return kind == MetricKind::kGauge ? info.gauge_index : info.cell_base;
    }
    MetricInfo info;
    info.name = std::string(name);
    info.kind = kind;
    if (kind == MetricKind::kGauge) {
      info.gauge_index = gauges_.size();
      gauges_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    } else {
      info.cell_base = next_cell_;
      next_cell_ += cells_of(kind);
      if (next_cell_ > Shard::kChunkSize * Shard::kMaxChunks)
        throw std::logic_error("obs: metric cell space exhausted");
    }
    ids_.emplace(info.name, metrics_.size());
    metrics_.push_back(info);
    return kind == MetricKind::kGauge ? info.gauge_index : info.cell_base;
  }

  void adopt(Shard* shard) {
    std::lock_guard lock(mutex_);
    shards_.push_back(shard);
  }

  /// Thread exit: fold the shard's cells into the retired accumulator so
  /// its counts outlive the thread, then drop the shard.
  void retire(Shard* shard) {
    std::lock_guard lock(mutex_);
    if (retired_.size() < next_cell_) retired_.resize(next_cell_, 0);
    for (std::size_t i = 0; i < next_cell_; ++i) retired_[i] += shard->read(i);
    shards_.erase(std::remove(shards_.begin(), shards_.end(), shard),
                  shards_.end());
    delete shard;
  }

  void gauge_store(std::size_t index, std::uint64_t value) noexcept {
    std::lock_guard lock(mutex_);
    gauges_[index]->store(value, std::memory_order_relaxed);
  }

  void gauge_add(std::size_t index, std::int64_t delta) noexcept {
    std::lock_guard lock(mutex_);
    gauges_[index]->fetch_add(static_cast<std::uint64_t>(delta),
                              std::memory_order_relaxed);
  }

  MetricsSnapshot snapshot() const {
    std::lock_guard lock(mutex_);
    auto cell_total = [&](std::size_t cell) {
      std::uint64_t total = cell < retired_.size() ? retired_[cell] : 0;
      for (const Shard* shard : shards_) total += shard->read(cell);
      return total;
    };
    MetricsSnapshot result;
    result.metrics.reserve(metrics_.size());
    for (const MetricInfo& info : metrics_) {
      MetricValue value;
      value.name = info.name;
      value.kind = info.kind;
      switch (info.kind) {
        case MetricKind::kCounter:
          value.value = cell_total(info.cell_base);
          break;
        case MetricKind::kGauge:
          value.value =
              gauges_[info.gauge_index]->load(std::memory_order_relaxed);
          break;
        case MetricKind::kHistogram:
          value.value = cell_total(info.cell_base);
          value.sum = cell_total(info.cell_base + 1);
          value.buckets.resize(kHistogramBuckets);
          for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            value.buckets[b] = cell_total(info.cell_base + 2 + b);
          break;
      }
      result.metrics.push_back(std::move(value));
    }
    return result;
  }

  void reset() {
    std::lock_guard lock(mutex_);
    std::fill(retired_.begin(), retired_.end(), 0);
    for (Shard* shard : shards_) shard->zero(next_cell_);
    for (const auto& gauge : gauges_)
      gauge->store(0, std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<MetricInfo> metrics_;
  std::unordered_map<std::string, std::size_t> ids_;
  std::size_t next_cell_ = 0;
  std::vector<Shard*> shards_;            ///< live thread shards
  std::vector<std::uint64_t> retired_;    ///< drained exited-thread cells
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> gauges_;
};

/// Leaked on purpose: thread shards retire through it at thread exit, which
/// can happen after static destruction would have torn a plain static down.
Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

/// Registers the shard lazily on first use and retires it at thread exit.
struct ShardOwner {
  Shard* shard = nullptr;
  ~ShardOwner() {
    if (shard != nullptr) registry().retire(shard);
  }
};

Shard& my_shard() {
  thread_local ShardOwner owner;
  if (owner.shard == nullptr) {
    owner.shard = new Shard;
    registry().adopt(owner.shard);
  }
  return *owner.shard;
}

}  // namespace

namespace detail {

std::size_t register_metric(std::string_view name, MetricKind kind) {
  return registry().register_metric(name, kind);
}

void shard_add(std::size_t cell, std::uint64_t delta) noexcept {
  std::atomic<std::uint64_t>& slot = my_shard().cell(cell);
  // Owner-exclusive write: plain load-add-store, no RMW needed.
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

void gauge_store(std::size_t id, std::uint64_t value) noexcept {
  registry().gauge_store(id, value);
}

void gauge_add(std::size_t id, std::int64_t delta) noexcept {
  registry().gauge_add(id, delta);
}

}  // namespace detail

MetricsSnapshot snapshot() { return registry().snapshot(); }

void reset() { registry().reset(); }

}  // namespace ftmc::obs
