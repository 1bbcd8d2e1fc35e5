#include "ftmc/core/exec_model.hpp"

namespace ftmc::core {

namespace {

/// Eq. (1): worst-case execution including all re-executions.
model::Time critical_wcet(const hardening::HardenedView& view,
                          std::size_t node) noexcept {
  const hardening::HardenedTaskInfo& info = view.info[node];
  if (info.role == hardening::TaskRole::kPassiveReplica) return view.wcet[node];
  const model::Time attempt =
      view.wcet[node] + (info.pays_detection ? view.detection[node] : 0);
  return attempt * (info.reexecutions + 1);
}

}  // namespace

sched::ExecBounds nominal_bounds(const hardening::HardenedView& view,
                                 std::size_t node) noexcept {
  const hardening::HardenedTaskInfo& info = view.info[node];
  if (info.role == hardening::TaskRole::kPassiveReplica) return {0, 0};
  const model::Time dt = info.pays_detection ? view.detection[node] : 0;
  return {view.bcet[node] + dt, view.wcet[node] + dt};
}

sched::ExecBounds critical_bounds(const hardening::HardenedView& view,
                                  std::size_t node) noexcept {
  const hardening::HardenedTaskInfo& info = view.info[node];
  if (info.role == hardening::TaskRole::kPassiveReplica)
    return {0, view.wcet[node]};
  const model::Time dt = info.pays_detection ? view.detection[node] : 0;
  return {view.bcet[node] + dt, critical_wcet(view, node)};
}

std::vector<sched::ExecBounds> nominal_bounds_of(
    const hardening::HardenedSystem& system) {
  std::vector<sched::ExecBounds> bounds;
  bounds.reserve(system.view.node_count());
  for (std::size_t i = 0; i < system.view.node_count(); ++i)
    bounds.push_back(nominal_bounds(system.view, i));
  return bounds;
}

}  // namespace ftmc::core
