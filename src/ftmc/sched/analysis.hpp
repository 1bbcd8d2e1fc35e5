// Backend interface of Algorithm 1's `sched` function.
//
// Given the platform, a (possibly hardened) application set, a mapping, and
// per-task execution-time bounds, a SchedulingAnalysis derives for every
// task a safe window [min_start, max_finish]: no job of the task can become
// ready before min_start or complete after max_finish (relative to its
// graph's release).  The paper plugs in Kim et al. DAC'13 [9]; this library
// ships a holistic fixed-point analysis (holistic.hpp) and explicitly keeps
// the interface open — "any other schedulability analysis can alternatively
// be used as a backend" (Section 3).
#pragma once

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "ftmc/hardening/hardening.hpp"
#include "ftmc/model/application_set.hpp"
#include "ftmc/model/architecture.hpp"
#include "ftmc/model/mapping.hpp"
#include "ftmc/model/time.hpp"

namespace ftmc::sched {

/// No-release-cutoff sentinel (see ExecBounds::release_cutoff).
inline constexpr model::Time kNoCutoff =
    std::numeric_limits<model::Time>::max() / 2;

/// Execution-time interval [bcet, wcet] fed into the backend.  Algorithm 1
/// manipulates these to encode hardening and dropping scenarios (e.g. [0,0]
/// for dropped tasks, [0, wcet] for maybe-dropped, Eq. (1) for
/// re-execution).
struct ExecBounds {
  model::Time bcet = 0;
  model::Time wcet = 0;
  /// Instances whose earliest possible start lies strictly after this
  /// absolute time do not release at all.  Algorithm 1 uses it to model
  /// dropped applications: once the critical-state transition completes (at
  /// the trigger's maxFinish), no further job of a dropped task appears
  /// until the hyperperiod resets the system.
  model::Time release_cutoff = kNoCutoff;

  /// Equal inputs yield equal analysis output (the backend is a pure
  /// function); Algorithm 1 uses this to dedupe identical scenarios.
  bool operator==(const ExecBounds&) const = default;
};

/// Sentinel finish time of tasks whose response-time iteration diverged.
inline constexpr model::Time kUnschedulable =
    std::numeric_limits<model::Time>::max() / 4;

/// Safe activity window of one task, relative to its graph's release.
struct TaskWindow {
  model::Time min_start = 0;   ///< earliest ready time
  model::Time min_finish = 0;  ///< earliest completion
  model::Time max_start = 0;   ///< latest ready time
  model::Time max_finish = 0;  ///< latest completion (kUnschedulable if none)
  bool schedulable = true;
};

/// Whole-system analysis verdict.
struct AnalysisResult {
  std::vector<TaskWindow> windows;  ///< flat-aligned with the application set
  bool schedulable = true;          ///< all windows converged

  const TaskWindow& window(const model::ApplicationSet& apps,
                           model::TaskRef task) const {
    return windows.at(apps.flat_index(task));
  }

  /// WCRT of a graph: latest completion over its sink tasks.
  model::Time graph_wcrt(const model::ApplicationSet& apps,
                         model::GraphId graph) const;

  /// True if every graph meets its implicit deadline (= period).
  bool meets_deadlines(const model::ApplicationSet& apps) const;

  /// The same two, over a flat hardened view (sinks and periods from the
  /// view, no TaskGraph).
  model::Time graph_wcrt(const hardening::HardenedView& view,
                         model::GraphId graph) const;
  bool meets_deadlines(const hardening::HardenedView& view) const;
};

/// A backend instantiated for one (arch, apps, mapping, priorities) tuple.
///
/// Algorithm 1 analyzes many transition scenarios of the *same* candidate —
/// the scenarios differ only in their exec-bounds vector — so a backend can
/// amortize everything bounds-independent (flat graph structure, interferer
/// lists, precedence relations) across them.  `prepare` captures that shared
/// state once; `solve` then runs one analysis per bounds vector.
///
/// Contract: `solve(bounds)` returns exactly what
/// `analyze(arch, apps, mapping, bounds, priorities)` would (the prepared
/// path is an amortization, never an approximation), and is safe to call
/// concurrently from multiple threads on one instance.  The prepared object
/// borrows every constructor argument; the caller keeps them alive.
class PreparedAnalysis {
 public:
  virtual ~PreparedAnalysis() = default;

  virtual AnalysisResult solve(std::span<const ExecBounds> bounds) const = 0;

  /// Solves scenarios[k] into results[k] (the spans must have equal size).
  /// Contract: bitwise identical to calling solve() once per scenario — a
  /// backend may batch the scenarios, as an amortization, never an
  /// approximation.  Thread-safe like solve().
  ///
  /// Scenarios are views, not owned vectors: callers that build their
  /// bounds in a contiguous arena (McAnalysis) feed the kernel without an
  /// intermediate copy per scenario.
  virtual void solve_many(
      std::span<const std::span<const ExecBounds>> scenarios,
      std::span<AnalysisResult> results) const;

  /// Convenience adapter for vector-of-vectors callers (tests, benches):
  /// wraps each vector in a view and forwards to the virtual overload.
  void solve_many(std::span<const std::vector<ExecBounds>> scenarios,
                  std::span<AnalysisResult> results) const;
};

/// Abstract backend.  `priorities` ranks tasks globally (flat-aligned,
/// 0 = highest); `bounds` is flat-aligned with `apps`.
class SchedulingAnalysis {
 public:
  virtual ~SchedulingAnalysis() = default;

  virtual AnalysisResult analyze(
      const model::Architecture& arch, const model::ApplicationSet& apps,
      const model::Mapping& mapping, std::span<const ExecBounds> bounds,
      std::span<const std::uint32_t> priorities) const = 0;

  /// Binds the backend to one candidate for repeated multi-scenario solving.
  /// The default adapter simply re-runs analyze() per solve() call, so any
  /// third-party backend participates unchanged; backends with a genuinely
  /// amortizable problem build (see HolisticAnalysis / PreparedProblem)
  /// override this.  All arguments are borrowed for the lifetime of the
  /// returned object; this backend must outlive it too.
  virtual std::unique_ptr<PreparedAnalysis> prepare(
      const model::Architecture& arch, const model::ApplicationSet& apps,
      const model::Mapping& mapping,
      std::span<const std::uint32_t> priorities) const;

  /// The same, for a hardened T' given as a flat view (the evaluation path
  /// never builds TaskGraphs).  The default adapter materializes T' from
  /// the view and forwards to the (apps, mapping) entry above, so a backend
  /// that implements only analyze() still plugs in; HolisticAnalysis reads
  /// the view directly.  `view` and `priorities` are borrowed for the
  /// lifetime of the returned object.
  virtual std::unique_ptr<PreparedAnalysis> prepare(
      const model::Architecture& arch, const hardening::HardenedView& view,
      std::span<const std::uint32_t> priorities) const;
};

}  // namespace ftmc::sched
