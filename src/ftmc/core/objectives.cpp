#include "ftmc/core/objectives.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace ftmc::core {

double critical_state_probability(const model::Architecture& arch,
                                  const hardening::HardenedSystem& system) {
  const model::ApplicationSet& apps = system.apps;
  const double hyper = static_cast<double>(apps.hyperperiod());
  double no_transition = 1.0;
  for (std::size_t i = 0; i < apps.task_count(); ++i) {
    const hardening::HardenedTaskInfo& info = system.info[i];
    if (!info.triggers_critical_state) continue;
    const model::TaskRef ref = apps.task_ref(i);
    const model::Task& task = apps.task(ref);
    const model::Processor& pe =
        arch.processor(system.mapping.processor_of_flat(i));
    const double instances =
        hyper / static_cast<double>(apps.graph(ref.graph_id()).period());
    double per_instance = 0.0;
    if (info.role == hardening::TaskRole::kPassiveReplica) {
      // Activated when a primary fails; both primaries run task.wcet.
      const double pf =
          hardening::execution_failure_probability(pe, task.wcet);
      per_instance = hardening::standby_activation_probability(pf, pf);
    } else {
      per_instance = hardening::execution_failure_probability(
          pe, task.wcet + task.detection_overhead);
    }
    no_transition *= std::pow(1.0 - per_instance, instances);
  }
  return 1.0 - no_transition;
}

std::vector<double> expected_utilization(
    const model::Architecture& arch, const hardening::HardenedSystem& system,
    const std::vector<bool>* drop) {
  const model::ApplicationSet& apps = system.apps;
  std::vector<double> utilization(arch.processor_count(), 0.0);

  // Share of a dropped application's instances shed per hyperperiod: a
  // transition happens with probability p_crit, at a time uniform over the
  // hyperperiod, and detaches the remaining (on average half) instances.
  double drop_factor = 0.0;
  if (drop != nullptr) {
    if (drop->size() != apps.graph_count())
      throw std::invalid_argument("expected_utilization: drop size mismatch");
    drop_factor = 0.5 * critical_state_probability(arch, system);
  }

  // Passive standbys need their primaries' failure probabilities; index
  // replicas by origin task.
  std::unordered_map<model::TaskRef, std::vector<std::size_t>> actives;
  for (std::size_t i = 0; i < apps.task_count(); ++i)
    if (system.info[i].role == hardening::TaskRole::kActiveReplica)
      actives[system.info[i].origin].push_back(i);

  for (std::size_t i = 0; i < apps.task_count(); ++i) {
    const model::TaskRef ref = apps.task_ref(i);
    const model::Task& task = apps.task(ref);
    const hardening::HardenedTaskInfo& info = system.info[i];
    const model::ProcessorId pe = system.mapping.processor_of_flat(i);
    const model::Processor& processor = arch.processor(pe);
    const double period =
        static_cast<double>(apps.graph(ref.graph_id()).period());

    double expected_exec = 0.0;
    switch (info.role) {
      case hardening::TaskRole::kOriginal: {
        const model::Time attempt =
            task.wcet + (info.pays_detection ? task.detection_overhead : 0);
        const double scaled = static_cast<double>(
            hardening::scaled_time(processor, attempt));
        if (info.reexecutions > 0) {
          const double pf =
              hardening::execution_failure_probability(processor, attempt);
          expected_exec =
              scaled *
              hardening::expected_reexecution_count(pf, info.reexecutions);
        } else {
          expected_exec = scaled;
        }
        break;
      }
      case hardening::TaskRole::kActiveReplica:
      case hardening::TaskRole::kVoter:
        expected_exec = static_cast<double>(
            hardening::scaled_time(processor, task.wcet));
        break;
      case hardening::TaskRole::kPassiveReplica: {
        const auto it = actives.find(info.origin);
        if (it == actives.end() || it->second.size() < 2)
          throw std::logic_error(
              "expected_utilization: standby without two primaries");
        auto pf_of = [&](std::size_t flat) {
          const model::Processor& p =
              arch.processor(system.mapping.processor_of_flat(flat));
          return hardening::execution_failure_probability(
              p, apps.task(apps.task_ref(flat)).wcet);
        };
        const double activation = hardening::standby_activation_probability(
            pf_of(it->second[0]), pf_of(it->second[1]));
        expected_exec = activation * static_cast<double>(hardening::scaled_time(
                                         processor, task.wcet));
        break;
      }
    }
    if (drop != nullptr && (*drop)[ref.graph]) {
      expected_exec *= 1.0 - drop_factor;
    }
    utilization[pe.value] += expected_exec / period;
  }
  return utilization;
}

double expected_power(const model::Architecture& arch,
                      const hardening::HardenedSystem& system,
                      const Allocation& allocation,
                      const std::vector<bool>* drop) {
  if (allocation.size() != arch.processor_count())
    throw std::invalid_argument("expected_power: allocation size mismatch");
  for (const model::ProcessorId pe : system.mapping.flat())
    if (!allocation.at(pe.value))
      throw std::invalid_argument(
          "expected_power: task mapped to unallocated PE");

  const std::vector<double> utilization =
      expected_utilization(arch, system, drop);
  double power = 0.0;
  for (std::size_t p = 0; p < allocation.size(); ++p) {
    if (!allocation[p]) continue;
    const model::Processor& processor =
        arch.processor(model::ProcessorId{static_cast<std::uint32_t>(p)});
    power += processor.static_power +
             processor.dynamic_power * utilization[p];
  }
  return power;
}

double service_value(const model::ApplicationSet& apps,
                     const std::vector<bool>& drop) {
  if (drop.size() != apps.graph_count())
    throw std::invalid_argument("service_value: drop size mismatch");
  double service = 0.0;
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    if (!graph.droppable() || drop[g]) continue;
    service += graph.service_value();
  }
  return service;
}

}  // namespace ftmc::core
