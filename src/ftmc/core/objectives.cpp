#include "ftmc/core/objectives.hpp"

#include <cmath>
#include <stdexcept>

namespace ftmc::core {

double critical_state_probability(const model::Architecture& arch,
                                  const hardening::HardenedView& view) {
  const double hyper = static_cast<double>(view.hyperperiod);
  double no_transition = 1.0;
  for (std::size_t i = 0; i < view.node_count(); ++i) {
    const hardening::HardenedTaskInfo& info = view.info[i];
    if (!info.triggers_critical_state) continue;
    const model::Processor& pe = arch.processor(view.pe[i]);
    const double instances =
        hyper / static_cast<double>(view.period[view.graph_of(i)]);
    double per_instance = 0.0;
    if (info.role == hardening::TaskRole::kPassiveReplica) {
      // Activated when a primary fails; both primaries run task.wcet.
      const double pf =
          hardening::execution_failure_probability(pe, view.wcet[i]);
      per_instance = hardening::standby_activation_probability(pf, pf);
    } else {
      per_instance = hardening::execution_failure_probability(
          pe, view.wcet[i] + view.detection[i]);
    }
    no_transition *= std::pow(1.0 - per_instance, instances);
  }
  return 1.0 - no_transition;
}

std::vector<double> expected_utilization(
    const model::Architecture& arch, const hardening::HardenedView& view,
    const std::vector<bool>* drop) {
  std::vector<double> utilization(arch.processor_count(), 0.0);

  // Share of a dropped application's instances shed per hyperperiod: a
  // transition happens with probability p_crit, at a time uniform over the
  // hyperperiod, and detaches the remaining (on average half) instances.
  double drop_factor = 0.0;
  if (drop != nullptr) {
    if (drop->size() != view.graph_count())
      throw std::invalid_argument("expected_utilization: drop size mismatch");
    drop_factor = 0.5 * critical_state_probability(arch, view);
  }

  for (std::size_t i = 0; i < view.node_count(); ++i) {
    const hardening::HardenedTaskInfo& info = view.info[i];
    const model::ProcessorId pe = view.pe[i];
    const model::Processor& processor = arch.processor(pe);
    const std::uint32_t graph = view.graph_of(i);
    const double period = static_cast<double>(view.period[graph]);

    double expected_exec = 0.0;
    switch (info.role) {
      case hardening::TaskRole::kOriginal: {
        const model::Time attempt =
            view.wcet[i] + (info.pays_detection ? view.detection[i] : 0);
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
            hardening::scaled_time(processor, view.wcet[i]));
        break;
      case hardening::TaskRole::kPassiveReplica: {
        // The transform emits a standby right after its two primaries
        // (replicas r0, r1, then the standby r2).
        const auto is_primary = [&](std::size_t j) {
          return view.info[j].role == hardening::TaskRole::kActiveReplica &&
                 view.info[j].origin == info.origin;
        };
        if (i < 2 || !is_primary(i - 2) || !is_primary(i - 1))
          throw std::logic_error(
              "expected_utilization: standby without two primaries");
        auto pf_of = [&](std::size_t j) {
          return hardening::execution_failure_probability(
              arch.processor(view.pe[j]), view.wcet[j]);
        };
        const double activation = hardening::standby_activation_probability(
            pf_of(i - 2), pf_of(i - 1));
        expected_exec = activation * static_cast<double>(hardening::scaled_time(
                                         processor, view.wcet[i]));
        break;
      }
    }
    if (drop != nullptr && (*drop)[graph]) {
      expected_exec *= 1.0 - drop_factor;
    }
    utilization[pe.value] += expected_exec / period;
  }
  return utilization;
}

double expected_power(const model::Architecture& arch,
                      const hardening::HardenedView& view,
                      const Allocation& allocation,
                      const std::vector<bool>* drop) {
  if (allocation.size() != arch.processor_count())
    throw std::invalid_argument("expected_power: allocation size mismatch");
  for (const model::ProcessorId pe : view.pe)
    if (!allocation.at(pe.value))
      throw std::invalid_argument(
          "expected_power: task mapped to unallocated PE");

  const std::vector<double> utilization =
      expected_utilization(arch, view, drop);
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
