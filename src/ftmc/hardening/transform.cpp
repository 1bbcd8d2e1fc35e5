// Graph transform T -> T' for the hardening techniques of Section 2.2.
//
// Replication rewires the topology exactly as in Figure 2: every replica
// receives copies of the original inputs, all replicas feed a majority
// voter, and the voter takes over the original task's outgoing channels.
// Passive standbys additionally receive zero-size control edges from both
// primaries — a DAG encoding of "the voter requests the standby after both
// primaries have produced (disagreeing) results".
#include <algorithm>
#include <stdexcept>
#include <string>

#include "ftmc/hardening/hardening.hpp"

namespace ftmc::hardening {

namespace {

constexpr int kMaxReexecutions = 8;
constexpr std::uint64_t kSinkVotePayload = 8;  // result digest for sinks

std::uint64_t vote_payload(const model::TaskGraph& graph, std::uint32_t task) {
  std::uint64_t payload = 0;
  for (std::uint32_t c : graph.out_channels(task))
    payload = std::max(payload, graph.channels()[c].size_bytes);
  return payload == 0 ? kSinkVotePayload : payload;
}

/// Validation runs on every candidate evaluation, so the task's name is
/// only spliced into a message on the way out.
[[noreturn]] void reject(const model::Task& task, const std::string& why) {
  throw std::invalid_argument("task '" + task.name + "': " + why);
}

void validate_one(const model::Task& task, const TaskHardening& decision,
                  std::size_t processor_count) {
  switch (decision.technique) {
    case Technique::kNone:
      return;
    case Technique::kReexecution:
      if (decision.reexecutions < 1 || decision.reexecutions > kMaxReexecutions)
        reject(task, "re-execution count must be in [1," +
                         std::to_string(kMaxReexecutions) + "]");
      return;
    case Technique::kActiveReplication:
      if (decision.replica_pes.size() < 2)
        reject(task, "active replication needs >= 2 replicas");
      break;
    case Technique::kPassiveReplication:
      if (decision.replica_pes.size() != 3)
        reject(task,
               "passive replication needs exactly 3 replicas "
               "(2 primaries + 1 standby)");
      break;
  }
  for (model::ProcessorId pe : decision.replica_pes)
    if (pe.value >= processor_count) reject(task, "replica PE out of range");
  if (decision.voter_pe.value >= processor_count)
    reject(task, "voter PE out of range");
  if (task.voting_overhead <= 0)
    reject(task, "replicated task needs voting_overhead > 0");
}

}  // namespace

const char* to_string(Technique technique) noexcept {
  switch (technique) {
    case Technique::kNone: return "none";
    case Technique::kReexecution: return "re-execution";
    case Technique::kActiveReplication: return "active-replication";
    case Technique::kPassiveReplication: return "passive-replication";
  }
  return "?";
}

void validate_plan(const model::ApplicationSet& apps, const HardeningPlan& plan,
                   std::size_t processor_count) {
  if (plan.size() != apps.task_count())
    throw std::invalid_argument(
        "validate_plan: plan size does not match task count");
  for (std::size_t i = 0; i < plan.size(); ++i)
    validate_one(apps.task(apps.task_ref(i)), plan[i], processor_count);
}

HardenedSystem apply_hardening(
    const model::ApplicationSet& apps, const HardeningPlan& plan,
    const std::vector<model::ProcessorId>& base_mapping,
    std::size_t processor_count) {
  validate_plan(apps, plan, processor_count);
  if (base_mapping.size() != apps.task_count())
    throw std::invalid_argument(
        "apply_hardening: base mapping size does not match task count");
  for (model::ProcessorId pe : base_mapping)
    if (pe.value >= processor_count)
      throw std::invalid_argument("apply_hardening: mapped PE out of range");

  std::vector<model::TaskGraph> new_graphs;
  std::vector<HardenedTaskInfo> info;
  std::vector<model::ProcessorId> new_mapping_flat;
  std::vector<model::GraphId> graph_of_original;
  new_graphs.reserve(apps.graph_count());

  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    graph_of_original.push_back(model::GraphId{g});

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
      const TaskHardening& decision = plan[flat];

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
            // Control edges: the standby runs only after both primaries
            // have produced results the voter can compare.
            channels.push_back({replicas[0], replicas[2], 0});
            channels.push_back({replicas[1], replicas[2], 0});
          }

          // Only always-running nodes consume the original inputs eagerly;
          // the standby also needs the input data to be able to run.
          input_nodes[v] = replicas;
          output_node[v] = voter_id;
          break;
        }
      }
    }

    // Re-create the original channels over the transformed nodes.
    for (const model::Channel& channel : graph.channels()) {
      for (std::uint32_t consumer : input_nodes[channel.dst]) {
        channels.push_back(
            {output_node[channel.src], consumer, channel.size_bytes});
      }
    }

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

  return HardenedSystem{std::move(new_apps), std::move(mapping),
                        std::move(info), std::move(graph_of_original)};
}

}  // namespace ftmc::hardening
