#include "oracle/mc_analysis_oracle.hpp"

#include <algorithm>
#include <vector>

namespace ftmc::oracle {

namespace {

using Bounds = std::vector<sched::ExecBounds>;
using hardening::HardenedTaskInfo;
using hardening::TaskRole;

// The execution-time bounds of Section 3, written on a TaskGraph task
// (production reads the same formulas off the flat hardened view).

/// Eq. (1): worst-case execution including all re-executions.
model::Time critical_wcet(const model::Task& task,
                          const HardenedTaskInfo& info) {
  if (info.role == TaskRole::kPassiveReplica) return task.wcet;
  const model::Time attempt =
      task.wcet + (info.pays_detection ? task.detection_overhead : 0);
  return attempt * (info.reexecutions + 1);
}

/// Normal state: re-executables pay dt every run, standbys do not run.
sched::ExecBounds nominal_bounds(const model::Task& task,
                                 const HardenedTaskInfo& info) {
  if (info.role == TaskRole::kPassiveReplica) return {0, 0};
  const model::Time dt = info.pays_detection ? task.detection_overhead : 0;
  return {task.bcet + dt, task.wcet + dt};
}

/// Critical region: Eq. (1) for re-executables, [0, wcet] for standbys.
sched::ExecBounds critical_bounds(const model::Task& task,
                                  const HardenedTaskInfo& info) {
  if (info.role == TaskRole::kPassiveReplica) return {0, task.wcet};
  const model::Time dt = info.pays_detection ? task.detection_overhead : 0;
  return {task.bcet + dt, critical_wcet(task, info)};
}

/// The trigger v, whose first fault causes the transition, certainly
/// re-executes or is activated: Eq. (1), its critical bounds.
sched::ExecBounds trigger_bounds(const model::Task& task,
                                 const HardenedTaskInfo& info) {
  return critical_bounds(task, info);
}

/// Graphs outside the drop set meet their deadlines under `wcrt_of`.
template <class WcrtOf>
bool non_dropped_meet_deadlines(const model::ApplicationSet& apps,
                                const core::DropSet& drop, WcrtOf wcrt_of) {
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::GraphId id{g};
    if (!drop[g] && wcrt_of(id) > apps.graph(id).deadline()) return false;
  }
  return true;
}

}  // namespace

core::McAnalysisResult mc_analyze(const sched::SchedulingAnalysis& backend,
                                  const model::Architecture& arch,
                                  const hardening::HardenedSystem& system,
                                  const core::DropSet& drop,
                                  core::McAnalysis::Mode mode,
                                  sched::PriorityPolicy policy) {
  const model::ApplicationSet& apps = system.apps;
  core::validate_drop_set(apps, drop);
  const std::size_t n = apps.task_count();
  const std::vector<std::uint32_t> priorities =
      sched::assign_priorities(apps, policy);
  const auto task = [&](std::size_t i) -> const model::Task& {
    return apps.task(apps.task_ref(i));
  };
  const auto dropped = [&](std::size_t i) {
    return static_cast<bool>(drop[apps.task_ref(i).graph]);
  };
  const auto analyze = [&](const Bounds& bounds) {
    return backend.analyze(arch, apps, system.mapping, bounds, priorities);
  };

  core::McAnalysisResult result;

  // Normal state (lines 2-9): no faults, passive standbys idle.
  Bounds nominal(n);
  for (std::size_t i = 0; i < n; ++i)
    nominal[i] = nominal_bounds(task(i), system.info[i]);
  result.normal = analyze(nominal);
  result.scenario_solves = 1;
  result.normal_schedulable = result.normal.meets_deadlines(apps);
  result.wcrt.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    result.wcrt[i] = result.normal.windows[i].max_finish;

  // Naive: every task at its critical bounds, dropped applications free to
  // vanish at any point (zero BCET).
  Bounds naive(n);
  for (std::size_t i = 0; i < n; ++i) {
    naive[i] = critical_bounds(task(i), system.info[i]);
    if (dropped(i)) naive[i].bcet = 0;
  }

  if (mode == core::McAnalysis::Mode::kNaive) {
    const sched::AnalysisResult run = analyze(naive);
    for (std::size_t i = 0; i < n; ++i)
      result.wcrt[i] = std::max(result.wcrt[i], run.windows[i].max_finish);
    result.critical_schedulable =
        non_dropped_meet_deadlines(apps, drop, [&](model::GraphId id) {
          return run.graph_wcrt(apps, id);
        });
    result.scenario_count = 1;
    result.scenario_solves = 2;
    return result;
  }

  std::vector<std::size_t> triggers;
  for (std::size_t v = 0; v < n; ++v)
    if (system.info[v].triggers_critical_state) triggers.push_back(v);
  result.scenario_count = triggers.size();
  if (triggers.empty()) return result;

  const sched::AnalysisResult naive_run = analyze(naive);
  std::vector<model::Time> scenario_max(n, 0);
  std::vector<Bounds> distinct;
  for (const std::size_t v : triggers) {
    const model::Time v_min_start = result.normal.windows[v].min_start;
    const model::Time v_max_finish = result.normal.windows[v].max_finish;
    // Classification of every task w against the transition window of v
    // (lines 12-27).
    Bounds bounds(n);
    for (std::size_t w = 0; w < n; ++w) {
      const sched::TaskWindow& window = result.normal.windows[w];
      if (w == v) {
        // The trigger certainly re-executes / is activated (Eq. (1)).
        bounds[w] = trigger_bounds(task(w), system.info[w]);
      } else if (window.max_finish < v_min_start) {
        // Finished before any fault can occur: normal state.
        bounds[w] = nominal_bounds(task(w), system.info[w]);
      } else if (dropped(w) && window.min_start > v_max_finish) {
        // Starts only after the transition completed: certainly dropped.
        bounds[w] = {0, 0};
      } else if (dropped(w)) {
        // Inside the transition window: runs or is dropped, and no
        // instance releases after the transition completed.
        bounds[w] = {0, critical_wcet(task(w), system.info[w]),
                     v_max_finish};
      } else {
        // Non-droppable task possibly in the critical state.
        bounds[w] = critical_bounds(task(w), system.info[w]);
      }
    }
    const sched::AnalysisResult run = analyze(bounds);
    for (std::size_t i = 0; i < n; ++i)
      scenario_max[i] = std::max(scenario_max[i], run.windows[i].max_finish);
    if (std::find(distinct.begin(), distinct.end(), bounds) == distinct.end())
      distinct.push_back(std::move(bounds));
  }
  result.scenario_solves = 2 + distinct.size();

  // Each scenario bound and the Naive bound are independently safe: keep
  // the pointwise minimum of the two on top of the normal state.
  for (std::size_t i = 0; i < n; ++i)
    result.wcrt[i] =
        std::max(result.wcrt[i],
                 std::min(scenario_max[i], naive_run.windows[i].max_finish));
  result.critical_schedulable =
      non_dropped_meet_deadlines(apps, drop, [&](model::GraphId id) {
        return result.graph_wcrt(apps, id);
      });
  return result;
}

}  // namespace ftmc::oracle
