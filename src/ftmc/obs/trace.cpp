#include "ftmc/obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ftmc/obs/json.hpp"

namespace ftmc::obs {

namespace {

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;
  char phase = 'B';  ///< 'B' begin, 'E' end, 'i' instant (carries `arg`)
  std::string arg;   ///< instant events only: the args.id payload
};

/// Fixed-capacity per-thread ring.  The owning thread writes the cell and
/// then publishes the new head with a release store; readers acquire the
/// head and only touch cells below it.  On wrap the oldest cells are
/// overwritten — the exporter reconstructs the valid window from the head.
struct Ring {
  explicit Ring(std::size_t capacity, std::uint32_t tid)
      : storage(capacity), tid(tid) {}

  void push(TraceEvent event) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    storage[h % storage.size()] = std::move(event);
    head.store(h + 1, std::memory_order_release);
  }

  /// Oldest-to-newest copy of the currently valid window.
  std::vector<TraceEvent> events() const {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t n = storage.size();
    std::vector<TraceEvent> out;
    const std::uint64_t count = h < n ? h : n;
    out.reserve(count);
    for (std::uint64_t i = h - count; i < h; ++i)
      out.push_back(storage[i % n]);
    return out;
  }

  std::vector<TraceEvent> storage;
  std::atomic<std::uint64_t> head{0};
  std::uint32_t tid;
};

struct RetiredRing {
  std::vector<TraceEvent> events;
  std::uint32_t tid;
};

struct TraceState {
  std::atomic<bool> enabled{false};
  std::mutex mutex;
  std::size_t ring_capacity = 1u << 15;
  std::uint32_t next_tid = 1;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::vector<Ring*> live;
  std::vector<RetiredRing> retired;
};

/// Leaked so rings can retire at thread exit even after static teardown.
TraceState& state() {
  static TraceState* instance = new TraceState;
  return *instance;
}

struct RingOwner {
  Ring* ring = nullptr;
  ~RingOwner() {
    if (ring == nullptr) return;
    TraceState& s = state();
    std::lock_guard lock(s.mutex);
    s.retired.push_back(RetiredRing{ring->events(), ring->tid});
    std::erase(s.live, ring);
    delete ring;
  }
};

Ring& my_ring() {
  thread_local RingOwner owner;
  if (owner.ring == nullptr) {
    TraceState& s = state();
    std::lock_guard lock(s.mutex);
    owner.ring = new Ring(s.ring_capacity, s.next_tid++);
    s.live.push_back(owner.ring);
  }
  return *owner.ring;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - state().epoch)
          .count());
}

/// Chrome "ts" is microseconds; keep nanosecond resolution as decimals.
Json ts_us(std::uint64_t ts_ns) {
  return Json::number(static_cast<double>(ts_ns) / 1000.0, 3);
}

void append_thread_events(Json& trace_events, std::uint32_t tid,
                          const std::vector<TraceEvent>& events) {
  // Re-match begin/end pairs: ring wraparound can leave end events whose
  // begins were overwritten (head of the window) and begins whose ends
  // never happened or were lost; both are dropped so the export is always
  // balanced and properly nested per thread.
  std::vector<std::uint8_t> keep(events.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == 'i') {
      keep[i] = 1;  // instants stand alone; the wrap cannot orphan them
    } else if (events[i].phase == 'B') {
      stack.push_back(i);
    } else if (!stack.empty() && events[stack.back()].name == events[i].name) {
      keep[stack.back()] = 1;
      keep[i] = 1;
      stack.pop_back();
    }
    // An end with no matching open begin is an orphan: skip it.
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!keep[i]) continue;
    Json event = Json::object()
                     .set("name", events[i].name)
                     .set("cat", "ftmc")
                     .set("ph", std::string(1, events[i].phase))
                     .set("ts", ts_us(events[i].ts_ns))
                     .set("pid", 1)
                     .set("tid", tid);
    if (events[i].phase == 'i')
      event.set("s", "t").set("args",
                              Json::object().set("id", events[i].arg));
    trace_events.push(std::move(event));
  }
}

}  // namespace

bool tracing_enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

void enable_tracing(std::size_t ring_capacity) {
  TraceState& s = state();
  {
    std::lock_guard lock(s.mutex);
    if (ring_capacity > 0) s.ring_capacity = ring_capacity;
  }
  s.enabled.store(true, std::memory_order_relaxed);
}

void disable_tracing() {
  state().enabled.store(false, std::memory_order_relaxed);
}

void clear_trace() {
  TraceState& s = state();
  std::lock_guard lock(s.mutex);
  s.retired.clear();
  for (Ring* ring : s.live) ring->head.store(0, std::memory_order_release);
  s.epoch = std::chrono::steady_clock::now();
}

void Span::begin(const char* name) noexcept {
  name_ = name;
  my_ring().push(TraceEvent{name, now_ns(), 'B', {}});
}

void Span::end() noexcept {
  my_ring().push(TraceEvent{name_, now_ns(), 'E', {}});
}

void trace_instant(const char* name, std::string_view value) {
  if (!tracing_enabled()) return;
  my_ring().push(TraceEvent{name, now_ns(), 'i', std::string(value)});
}

void write_chrome_trace(std::ostream& out) {
  TraceState& s = state();
  std::lock_guard lock(s.mutex);
  Json trace_events = Json::array();
  auto thread_name = [](std::uint32_t tid) {
    return Json::object()
        .set("name", "thread_name")
        .set("ph", "M")
        .set("pid", 1)
        .set("tid", tid)
        .set("args", Json::object().set(
                         "name", "ftmc-" + std::to_string(tid)));
  };
  for (const RetiredRing& ring : s.retired) {
    trace_events.push(thread_name(ring.tid));
    append_thread_events(trace_events, ring.tid, ring.events);
  }
  for (const Ring* ring : s.live) {
    trace_events.push(thread_name(ring->tid));
    append_thread_events(trace_events, ring->tid, ring->events());
  }
  Json::object()
      .set("traceEvents", std::move(trace_events))
      .set("displayTimeUnit", "ms")
      .write(out);
  out << '\n';
}

}  // namespace ftmc::obs
