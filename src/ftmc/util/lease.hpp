// Per-thread reuse of scratch objects whose holder can re-enter on the same
// thread.
#pragma once

#include <memory>
#include <vector>

namespace ftmc::util {

/// Checks a T out of a per-thread freelist and returns it on destruction,
/// so a warmed T keeps its capacity from one call to the next.
///
/// A plain thread_local T would be unsafe wherever the holder can re-enter
/// on its own thread: a pool worker waiting inside parallel_for drains the
/// shared queue, so a nested evaluation or analysis can start on this
/// thread while an outer one still has its T live across the fan-out (the
/// serve batch path and the GA's scenario pool do exactly this).  Each
/// concurrent holder on a thread therefore leases its own T; the freelist
/// depth is bounded by the nesting depth.
template <class T>
class ThreadLease {
 public:
  ThreadLease() {
    auto& list = freelist();
    if (list.empty()) {
      item_ = std::make_unique<T>();
    } else {
      item_ = std::move(list.back());
      list.pop_back();
    }
  }
  ~ThreadLease() { freelist().push_back(std::move(item_)); }
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;

  T& operator*() noexcept { return *item_; }

 private:
  static std::vector<std::unique_ptr<T>>& freelist() {
    thread_local std::vector<std::unique_ptr<T>> list;
    return list;
  }

  std::unique_ptr<T> item_;
};

}  // namespace ftmc::util
