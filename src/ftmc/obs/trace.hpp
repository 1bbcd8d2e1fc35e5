// Scoped-span tracing with Chrome trace-event JSON export.
//
// A Span records a begin event at construction and an end event at
// destruction into a per-thread ring buffer — when tracing is enabled.
// When it is not (the default), constructing a Span costs one relaxed
// atomic load and a predictable branch, so the instrumentation points in
// the DSE/analysis/simulation paths can stay in place permanently.
//
// Rings are fixed-capacity and wrap: a long run keeps the most recent
// events per thread instead of growing without bound.  The exporter
// re-matches begin/end pairs per thread (a wrap can orphan begins whose
// ends were overwritten and vice versa; orphans are dropped), so the
// emitted JSON always contains balanced, properly nested B/E pairs —
// tests/test_obs.cpp validates exactly that, and the file loads directly
// in Perfetto / chrome://tracing.
//
// Span names must be string literals (or otherwise outlive the trace
// session): the ring stores the pointer, not a copy.
//
// Concurrency contract: enable/disable/record are safe from any thread;
// clear_trace() and write_chrome_trace() expect span activity to be
// quiescent (call them after joining/downing the worker pools, as the CLI
// and benches do).
#pragma once

#include <cstddef>
#include <ostream>
#include <string_view>

namespace ftmc::obs {

bool tracing_enabled() noexcept;

/// Starts (or restarts) a trace session.  `ring_capacity` is per thread,
/// in events (one span = two events); it applies to rings created from now
/// on.  Events recorded before the call are kept.
void enable_tracing(std::size_t ring_capacity = 1u << 15);

/// Stops recording; the events stay exportable.
void disable_tracing();

/// Drops every recorded event (live rings and exited threads').
void clear_trace();

/// Writes the Chrome trace-event JSON (an object with "traceEvents") for
/// everything recorded so far.
void write_chrome_trace(std::ostream& out);

/// Records an instant event carrying a small string payload (exported as
/// ph:"i" with args {"id": value}) on the current thread — the serve layer
/// stamps each request's id into the trace this way, so Chrome/Perfetto
/// views correlate spans with access-log records.  `name` must be a string
/// literal, like Span names; no-op when tracing is disabled.
void trace_instant(const char* name, std::string_view value);

class Span {
 public:
  explicit Span(const char* name) noexcept : name_(nullptr) {
    if (tracing_enabled()) begin(name);
  }
  ~Span() {
    if (name_ != nullptr) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name) noexcept;
  void end() noexcept;

  const char* name_;
};

}  // namespace ftmc::obs
