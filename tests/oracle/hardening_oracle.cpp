#include "oracle/hardening_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "ftmc/hardening/reliability.hpp"
#include "oracle/mc_analysis_oracle.hpp"

namespace ftmc::oracle {

namespace {

using hardening::HardenedTaskInfo;
using hardening::TaskRole;
using hardening::Technique;

constexpr std::uint64_t kSinkVotePayload = 8;  // result digest for sinks

std::uint64_t vote_payload(const model::TaskGraph& graph, std::uint32_t task) {
  std::uint64_t payload = 0;
  for (std::uint32_t c : graph.out_channels(task))
    payload = std::max(payload, graph.channels()[c].size_bytes);
  return payload == 0 ? kSinkVotePayload : payload;
}

double critical_state_probability(const model::Architecture& arch,
                                  const hardening::HardenedSystem& system) {
  const model::ApplicationSet& apps = system.apps;
  const double hyper = static_cast<double>(apps.hyperperiod());
  double no_transition = 1.0;
  for (std::size_t i = 0; i < apps.task_count(); ++i) {
    const HardenedTaskInfo& info = system.info[i];
    if (!info.triggers_critical_state) continue;
    const model::TaskRef ref = apps.task_ref(i);
    const model::Task& task = apps.task(ref);
    const model::Processor& pe =
        arch.processor(system.mapping.processor_of_flat(i));
    const double instances =
        hyper / static_cast<double>(apps.graph(ref.graph_id()).period());
    double per_instance = 0.0;
    if (info.role == TaskRole::kPassiveReplica) {
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
  double drop_factor = 0.0;
  if (drop != nullptr)
    drop_factor = 0.5 * critical_state_probability(arch, system);

  std::unordered_map<model::TaskRef, std::vector<std::size_t>> actives;
  for (std::size_t i = 0; i < apps.task_count(); ++i)
    if (system.info[i].role == TaskRole::kActiveReplica)
      actives[system.info[i].origin].push_back(i);

  for (std::size_t i = 0; i < apps.task_count(); ++i) {
    const model::TaskRef ref = apps.task_ref(i);
    const model::Task& task = apps.task(ref);
    const HardenedTaskInfo& info = system.info[i];
    const model::ProcessorId pe = system.mapping.processor_of_flat(i);
    const model::Processor& processor = arch.processor(pe);
    const double period =
        static_cast<double>(apps.graph(ref.graph_id()).period());

    double expected_exec = 0.0;
    switch (info.role) {
      case TaskRole::kOriginal: {
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
      case TaskRole::kActiveReplica:
      case TaskRole::kVoter:
        expected_exec = static_cast<double>(
            hardening::scaled_time(processor, task.wcet));
        break;
      case TaskRole::kPassiveReplica: {
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
    if (drop != nullptr && (*drop)[ref.graph])
      expected_exec *= 1.0 - drop_factor;
    utilization[pe.value] += expected_exec / period;
  }
  return utilization;
}

}  // namespace

hardening::HardenedSystem apply_hardening(
    const model::ApplicationSet& apps, const hardening::HardeningPlan& plan,
    const std::vector<model::ProcessorId>& base_mapping,
    std::size_t processor_count) {
  hardening::validate_plan(apps, plan, processor_count);
  if (base_mapping.size() != apps.task_count())
    throw std::invalid_argument(
        "apply_hardening: base mapping size does not match task count");
  for (model::ProcessorId pe : base_mapping)
    if (pe.value >= processor_count)
      throw std::invalid_argument("apply_hardening: mapped PE out of range");

  std::vector<model::TaskGraph> new_graphs;
  std::vector<HardenedTaskInfo> info;
  std::vector<model::ProcessorId> new_mapping_flat;
  new_graphs.reserve(apps.graph_count());

  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});

    std::vector<model::Task> tasks;
    std::vector<model::Channel> channels;
    std::vector<HardenedTaskInfo> graph_info;
    std::vector<model::ProcessorId> graph_mapping;

    // For each original task: the node(s) receiving its former inputs and
    // the single node producing its former outputs.
    std::vector<std::vector<std::uint32_t>> input_nodes(graph.task_count());
    std::vector<std::uint32_t> output_node(graph.task_count());

    auto emit = [&](model::Task task, HardenedTaskInfo node_info,
                    model::ProcessorId pe) {
      tasks.push_back(std::move(task));
      graph_info.push_back(node_info);
      graph_mapping.push_back(pe);
      return static_cast<std::uint32_t>(tasks.size() - 1);
    };

    for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
      const model::TaskRef ref{g, v};
      const std::size_t flat = apps.flat_index(ref);
      const model::Task& task = graph.task(v);
      const hardening::TaskHardening& decision = plan[flat];

      switch (decision.technique) {
        case Technique::kNone:
        case Technique::kReexecution: {
          HardenedTaskInfo node;
          node.role = TaskRole::kOriginal;
          node.origin = ref;
          if (decision.technique == Technique::kReexecution) {
            node.reexecutions = decision.reexecutions;
            node.pays_detection = true;
            node.triggers_critical_state = true;
          }
          const std::uint32_t id = emit(task, node, base_mapping[flat]);
          input_nodes[v] = {id};
          output_node[v] = id;
          break;
        }
        case Technique::kActiveReplication:
        case Technique::kPassiveReplication: {
          const bool passive =
              decision.technique == Technique::kPassiveReplication;
          const std::size_t replica_count = decision.replica_pes.size();
          const std::size_t active_count = passive ? 2 : replica_count;

          std::vector<std::uint32_t> replicas;
          replicas.reserve(replica_count);
          for (std::size_t r = 0; r < replica_count; ++r) {
            model::Task replica = task;
            replica.name = task.name + "#r" + std::to_string(r);
            replica.voting_overhead = 0;
            replica.detection_overhead = 0;
            HardenedTaskInfo node;
            node.role = r < active_count ? TaskRole::kActiveReplica
                                         : TaskRole::kPassiveReplica;
            node.origin = ref;
            node.triggers_critical_state = r >= active_count;
            replicas.push_back(emit(std::move(replica), node,
                                    decision.replica_pes[r]));
          }

          model::Task voter;
          voter.name = task.name + "#vote";
          voter.bcet = task.voting_overhead;
          voter.wcet = task.voting_overhead;
          HardenedTaskInfo voter_info;
          voter_info.role = TaskRole::kVoter;
          voter_info.origin = ref;
          const std::uint32_t voter_id =
              emit(std::move(voter), voter_info, decision.voter_pe);

          const std::uint64_t payload = vote_payload(graph, v);
          for (std::size_t r = 0; r < replica_count; ++r)
            channels.push_back({replicas[r], voter_id, payload});
          if (passive) {
            channels.push_back({replicas[0], replicas[2], 0});
            channels.push_back({replicas[1], replicas[2], 0});
          }
          input_nodes[v] = replicas;
          output_node[v] = voter_id;
          break;
        }
      }
    }

    for (const model::Channel& channel : graph.channels())
      for (std::uint32_t consumer : input_nodes[channel.dst])
        channels.push_back(
            {output_node[channel.src], consumer, channel.size_bytes});

    new_graphs.emplace_back(graph.name(), std::move(tasks),
                            std::move(channels), graph.period(),
                            graph.reliability_constraint(),
                            graph.service_value());
    info.insert(info.end(), graph_info.begin(), graph_info.end());
    new_mapping_flat.insert(new_mapping_flat.end(), graph_mapping.begin(),
                            graph_mapping.end());
  }

  model::ApplicationSet new_apps(std::move(new_graphs));
  model::Mapping mapping(new_apps);
  for (std::size_t i = 0; i < new_mapping_flat.size(); ++i)
    mapping.assign_flat(i, new_mapping_flat[i]);
  return hardening::HardenedSystem{std::move(new_apps), std::move(mapping),
                                   std::move(info), {}};
}

double expected_power(const model::Architecture& arch,
                      const hardening::HardenedSystem& system,
                      const core::Allocation& allocation,
                      const std::vector<bool>* drop) {
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

core::Evaluation evaluate(const model::Architecture& arch,
                          const model::ApplicationSet& apps,
                          const sched::SchedulingAnalysis& backend,
                          const core::Evaluator::Options& options,
                          const core::Candidate& candidate) {
  core::Evaluation evaluation;
  auto allocated = [&](model::ProcessorId pe) {
    return candidate.allocation[pe.value];
  };
  evaluation.mapping_valid = true;
  for (const model::ProcessorId pe : candidate.base_mapping)
    evaluation.mapping_valid &= allocated(pe);
  for (const hardening::TaskHardening& decision : candidate.plan) {
    for (const model::ProcessorId pe : decision.replica_pes)
      evaluation.mapping_valid &= allocated(pe);
    if (decision.technique == Technique::kActiveReplication ||
        decision.technique == Technique::kPassiveReplication)
      evaluation.mapping_valid &= allocated(decision.voter_pe);
  }

  const hardening::ReliabilityReport reliability = hardening::check_reliability(
      arch, apps, candidate.plan, candidate.base_mapping);
  evaluation.reliability_ok = reliability.all_satisfied;

  const hardening::HardenedSystem system = oracle::apply_hardening(
      apps, candidate.plan, candidate.base_mapping, arch.processor_count());

  const core::DropSet& drop = candidate.drop;

  const core::McAnalysisResult verdict =
      mc_analyze(backend, arch, system, drop, options.mode, options.policy);
  evaluation.normal_schedulable = verdict.normal_schedulable;
  evaluation.critical_schedulable = verdict.critical_schedulable;
  evaluation.scenario_count = verdict.scenario_count;
  evaluation.scenario_solves = verdict.scenario_solves;
  for (std::uint32_t g = 0; g < system.apps.graph_count(); ++g)
    evaluation.graph_wcrt.push_back(
        drop[g] ? verdict.normal.graph_wcrt(system.apps, model::GraphId{g})
                : verdict.graph_wcrt(system.apps, model::GraphId{g}));

  core::Allocation power_allocation = candidate.allocation;
  for (const model::ProcessorId pe : system.mapping.flat())
    power_allocation[pe.value] = true;
  evaluation.power =
      oracle::expected_power(arch, system, power_allocation, &drop);
  evaluation.service = core::service_value(apps, drop);

  if (!evaluation.feasible()) {
    double violation = 0.0;
    for (std::uint32_t g = 0; g < system.apps.graph_count(); ++g) {
      const model::GraphId id{g};
      const model::TaskGraph& graph = system.apps.graph(id);
      const model::Time deadline = graph.deadline();
      const model::Time wcrt = drop[g]
                                   ? verdict.normal.graph_wcrt(system.apps, id)
                                   : verdict.graph_wcrt(system.apps, id);
      if (wcrt <= deadline) continue;
      std::size_t late = 0;
      for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
        const std::size_t flat = system.apps.flat_index({g, v});
        const model::Time bound = drop[g]
                                      ? verdict.normal.windows[flat].max_finish
                                      : verdict.wcrt[flat];
        if (bound > deadline) ++late;
      }
      violation += 0.5 +
                   static_cast<double>(late) /
                       static_cast<double>(graph.task_count()) +
                   std::min(2.0, static_cast<double>(wcrt - deadline) /
                                     static_cast<double>(deadline));
    }
    for (std::uint32_t g = 0; g < reliability.failure_rate.size(); ++g) {
      if (reliability.satisfied[g]) continue;
      const double bound =
          apps.graph(model::GraphId{g}).reliability_constraint();
      const double ratio = reliability.failure_rate[g] / bound;
      violation += std::min(10.0, 1.0 + std::log10(std::max(ratio, 1.0)));
    }
    if (!evaluation.mapping_valid) violation += 5.0;
    evaluation.power += core::kInfeasibilityPenalty * (1.0 + violation);
  }
  return evaluation;
}

}  // namespace ftmc::oracle
