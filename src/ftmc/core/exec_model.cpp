#include "ftmc/core/exec_model.hpp"

namespace ftmc::core {

model::Time critical_wcet(const model::Task& task,
                          const hardening::HardenedTaskInfo& info) noexcept {
  if (info.role == hardening::TaskRole::kPassiveReplica) return task.wcet;
  const model::Time attempt =
      task.wcet + (info.pays_detection ? task.detection_overhead : 0);
  return attempt * (info.reexecutions + 1);
}

sched::ExecBounds nominal_bounds(
    const model::Task& task,
    const hardening::HardenedTaskInfo& info) noexcept {
  if (info.role == hardening::TaskRole::kPassiveReplica) return {0, 0};
  const model::Time dt =
      info.pays_detection ? task.detection_overhead : 0;
  return {task.bcet + dt, task.wcet + dt};
}

sched::ExecBounds critical_bounds(
    const model::Task& task,
    const hardening::HardenedTaskInfo& info) noexcept {
  if (info.role == hardening::TaskRole::kPassiveReplica)
    return {0, task.wcet};
  const model::Time dt =
      info.pays_detection ? task.detection_overhead : 0;
  return {task.bcet + dt, critical_wcet(task, info)};
}

std::vector<sched::ExecBounds> nominal_bounds_of(
    const hardening::HardenedSystem& system) {
  std::vector<sched::ExecBounds> bounds;
  bounds.reserve(system.apps.task_count());
  for (std::size_t i = 0; i < system.apps.task_count(); ++i) {
    bounds.push_back(
        nominal_bounds(system.apps.task(system.apps.task_ref(i)),
                       system.info[i]));
  }
  return bounds;
}

}  // namespace ftmc::core
