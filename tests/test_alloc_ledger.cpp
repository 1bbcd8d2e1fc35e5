// Allocation ledger of one candidate evaluation: heap allocations per
// warmed Evaluator::evaluate_uncached call on the paper's systems, against
// committed means.
//
// This executable replaces the global operator new/delete (every form:
// plain, array, nothrow, aligned), so it counts what the evaluation asks of
// the allocator, the std::stable_sort and std::get_temporary_buffer
// nothrow requests included.  Each system's candidates are decoded from
// seeded random chromosomes and evaluated once to warm every per-thread
// scratch arena and lease; the second pass is the one counted.  The
// evaluator runs as the GA's in-process workers do: no cache, no store, no
// scenario pool, so every count is on this thread and deterministic.
//
// A mean above its committed value fails and prints the measured table.
// When a change lowers a mean, commit the new value: the ledger only keeps
// what was won.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "ftmc/benchmarks/cruise.hpp"
#include "ftmc/benchmarks/dream.hpp"
#include "ftmc/core/evaluator.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded =
      (size == 0 ? alignment : (size + alignment - 1) / alignment * alignment);
  return std::aligned_alloc(alignment, rounded);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace ftmc;

constexpr std::size_t kCandidates = 300;

struct LedgerRow {
  const char* system;
  /// Committed mean allocations per warmed evaluate_uncached.
  double committed;
  double measured = 0.0;
};

double mean_allocations(const benchmarks::Benchmark& system,
                        std::uint64_t seed) {
  const dse::Decoder decoder(system.arch, system.apps);
  util::Rng rng(seed);
  std::vector<core::Candidate> candidates;
  candidates.reserve(kCandidates);
  for (std::size_t i = 0; i < kCandidates; ++i) {
    dse::Chromosome chromosome = dse::random_chromosome(decoder.shape(), rng);
    candidates.push_back(decoder.decode(chromosome, rng));
  }
  const sched::HolisticAnalysis backend;
  const core::Evaluator evaluator(system.arch, system.apps, backend);
  for (const core::Candidate& candidate : candidates)
    evaluator.evaluate_uncached(candidate);  // warm the arenas and leases

  const std::uint64_t before = g_allocations.load();
  for (const core::Candidate& candidate : candidates)
    evaluator.evaluate_uncached(candidate);
  const std::uint64_t after = g_allocations.load();
  return static_cast<double>(after - before) /
         static_cast<double>(kCandidates);
}

TEST(AllocLedger, WarmedEvaluationStaysWithinCommittedMeans) {
  // Before the evaluation path stopped materializing T' (TaskGraphs,
  // names, an ApplicationSet and a Mapping per candidate) the same
  // candidates cost 451.1, 352.8 and 275.7 allocations.
  std::vector<LedgerRow> rows = {
      {"DT-large", 42.2}, {"DT-med", 40.8}, {"Cruise", 39.7}};
  const benchmarks::Benchmark systems[] = {benchmarks::dt_large_benchmark(),
                                           benchmarks::dt_med_benchmark(),
                                           benchmarks::cruise_benchmark()};
  bool within = true;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    rows[k].measured = mean_allocations(systems[k], 21 + k);
    within = within && rows[k].measured <= rows[k].committed;
  }
  std::ostringstream table;
  table << "| system | allocations per evaluate_uncached | committed |\n";
  for (const LedgerRow& row : rows)
    table << "| " << row.system << " | " << std::fixed << std::setprecision(2)
          << row.measured << " | " << row.committed << " |\n";
  EXPECT_TRUE(within) << "measured over " << kCandidates
                      << " warmed candidates per system:\n"
                      << table.str();
}

}  // namespace
