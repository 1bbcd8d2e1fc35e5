// Holistic best/worst-case scheduling analysis (the shipped `sched` backend).
//
// Worst case: per-PE fixed-priority preemptive response-time analysis with
// release jitter (Tindell/Clark-style holistic analysis extended with
// level-i busy windows for multi-job interference), iterated to a global
// fixed point over the precedence graph: a task's latest ready time is the
// latest finish of its predecessors plus communication delay, and interferer
// jitters are their latest ready times.  Iteration starts from the best-case
// solution and only ever raises a stored window (guarded max).  The
// offset-aware operator is not monotone in a task's arrival (a later window
// start can exclude whole interfering jobs), so which fixed point the
// iteration reaches depends on the evaluation order.  The order that defines
// the result is a full Gauss-Seidel sweep over all nodes in flat order until
// a sweep changes nothing; the test-only oracle (tests/oracle/) runs exactly
// that, and the kernel's worklist and batched solvers reach the same fixed
// point by replaying its trajectory (see prepared_problem.hpp).  The fixed
// point reached is a safe upper bound on any concrete schedule in which
// every task's execution time lies within its ExecBounds.
//
// Best case: interference-free longest-path lower bound on ready/finish
// times (earliest possible start/completion).
//
// Divergence (utilization overload or bound growth past the horizon) marks
// the affected tasks with kUnschedulable and the result as unschedulable.
#pragma once

#include "ftmc/sched/analysis.hpp"

namespace ftmc::sched {

class HolisticAnalysis final : public SchedulingAnalysis {
 public:
  /// Global fixed-point sweep limit.
  static constexpr std::size_t kMaxOuterIterations = 512;
  /// Busy-window / response-time inner fixed-point limit.
  static constexpr std::size_t kMaxInnerIterations = 65536;
  /// Divergence horizon as a multiple of the hyperperiod.
  static constexpr model::Time kHorizonHyperperiods = 4;

  struct Options {
    /// Offset-aware interference (default): exploits the synchronous
    /// in-phase releases of all graphs to place interferer jobs in absolute
    /// windows [k*T + minStart, k*T + maxFinish] and to exclude same-graph
    /// precedence-related first jobs.  Unconditionally safe (tasks whose
    /// response exceeds their own period fall back to the classical bound
    /// automatically).  Set to false to force the classical
    /// independent-periodic-with-jitter formulation everywhere — much more
    /// pessimistic; exposed for the ablation bench.
    bool precedence_aware = true;
    /// Model the communication fabric as a single shared (preemptable) bus:
    /// every remote channel becomes an explicit message "job" scheduled on
    /// a bus pseudo-resource at its producer's priority, so transfers
    /// contend with each other instead of each enjoying the full bandwidth.
    /// Off by default (the paper's model grants bw_nw to every transfer).
    bool bus_contention = false;
  };

  HolisticAnalysis() : options_() {}
  explicit HolisticAnalysis(Options options) : options_(options) {}

  AnalysisResult analyze(const model::Architecture& arch,
                         const model::ApplicationSet& apps,
                         const model::Mapping& mapping,
                         std::span<const ExecBounds> bounds,
                         std::span<const std::uint32_t> priorities)
      const override;

  /// The amortized kernel: one PreparedProblem shared by every solve()
  /// (see prepared_problem.hpp).
  std::unique_ptr<PreparedAnalysis> prepare(
      const model::Architecture& arch, const model::ApplicationSet& apps,
      const model::Mapping& mapping,
      std::span<const std::uint32_t> priorities) const override;
  /// The same kernel, built straight from the flat view.
  std::unique_ptr<PreparedAnalysis> prepare(
      const model::Architecture& arch, const hardening::HardenedView& view,
      std::span<const std::uint32_t> priorities) const override;

  const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace ftmc::sched
