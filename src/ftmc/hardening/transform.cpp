// Graph transform T -> T' for the hardening techniques of Section 2.2.
//
// Replication rewires the topology exactly as in Figure 2: every replica
// receives copies of the original inputs, all replicas feed a majority
// voter, and the voter takes over the original task's outgoing channels.
// Passive standbys additionally receive zero-size control edges from both
// primaries — a DAG encoding of "the voter requests the standby after both
// primaries have produced (disagreeing) results".
//
// The transform has two steps.  build_view writes T' as flat arrays into a
// reusable HardenedView (the evaluation path stops there); materialize
// builds the named TaskGraphs, ApplicationSet and Mapping from that view for
// the simulator, the reports, `dot` and the baseline.  apply_hardening is
// both, so every consumer sees T' from the one transform.
#include <algorithm>
#include <functional>
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

namespace {

/// Build scratch: per original task of the graph being built, its input
/// nodes [input_first, input_first + input_count) and its output node; per
/// node of that graph, the out-edge CSR, in-degrees and the ready heap of
/// the topological pass.
struct BuildScratch {
  std::vector<std::uint32_t> input_first, input_count, output;
  std::vector<std::uint32_t> out_offsets, out_targets, fill, indegree, ready;
};

BuildScratch& build_scratch() {
  // Nothing build_view calls can re-enter it, so one per thread suffices.
  thread_local BuildScratch scratch;
  return scratch;
}

/// Sinks and topological positions of the graph whose nodes are [first,
/// last) and channels [c_first, c_last): TaskGraph's order, Kahn's
/// algorithm with an index-ordered ready queue (lowest index first).
void order_graph(HardenedView& view, std::uint32_t first, std::uint32_t last,
                 std::size_t c_first, std::size_t c_last, BuildScratch& s) {
  const std::uint32_t m = last - first;
  s.out_offsets.assign(m + 1, 0);
  s.indegree.assign(m, 0);
  for (std::size_t c = c_first; c < c_last; ++c) {
    ++s.out_offsets[view.channels[c].src - first + 1];
    ++s.indegree[view.channels[c].dst - first];
  }
  for (std::uint32_t v = 0; v < m; ++v)
    s.out_offsets[v + 1] += s.out_offsets[v];
  s.fill.assign(s.out_offsets.begin(), s.out_offsets.end() - 1);
  s.out_targets.resize(c_last - c_first);
  for (std::size_t c = c_first; c < c_last; ++c)
    s.out_targets[s.fill[view.channels[c].src - first]++] =
        view.channels[c].dst - first;

  s.ready.clear();
  for (std::uint32_t v = 0; v < m; ++v) {
    if (s.out_offsets[v + 1] == s.out_offsets[v])
      view.sinks.push_back(first + v);
    // Ascending pushes keep the ready list a valid min-heap.
    if (s.indegree[v] == 0) s.ready.push_back(v);
  }
  std::uint32_t position = 0;
  while (!s.ready.empty()) {
    std::pop_heap(s.ready.begin(), s.ready.end(), std::greater<>{});
    const std::uint32_t v = s.ready.back();
    s.ready.pop_back();
    view.topo[first + v] = position++;
    for (std::uint32_t e = s.out_offsets[v]; e < s.out_offsets[v + 1]; ++e) {
      const std::uint32_t w = s.out_targets[e];
      if (--s.indegree[w] == 0) {
        s.ready.push_back(w);
        std::push_heap(s.ready.begin(), s.ready.end(), std::greater<>{});
      }
    }
  }
  // T is acyclic and the transform only splits nodes, so T' is too.
  if (position != m)
    throw std::logic_error("build_view: hardened graph is cyclic");
}

}  // namespace

void build_view(HardenedView& view, const model::ApplicationSet& apps,
                const HardeningPlan& plan,
                const std::vector<model::ProcessorId>& base_mapping,
                std::size_t processor_count) {
  validate_plan(apps, plan, processor_count);
  if (base_mapping.size() != apps.task_count())
    throw std::invalid_argument(
        "apply_hardening: base mapping size does not match task count");
  for (model::ProcessorId pe : base_mapping)
    if (pe.value >= processor_count)
      throw std::invalid_argument("apply_hardening: mapped PE out of range");

  view.source = &apps;
  view.info.clear();
  view.pe.clear();
  view.bcet.clear();
  view.wcet.clear();
  view.detection.clear();
  view.topo.clear();
  view.node_offsets.clear();
  view.period.clear();
  view.droppable.clear();
  view.sink_offsets.clear();
  view.sinks.clear();
  view.channels.clear();
  view.channel_offsets.clear();
  view.hyperperiod = apps.hyperperiod();

  BuildScratch& s = build_scratch();
  const auto emit = [&](const HardenedTaskInfo& info, model::ProcessorId pe,
                        model::Time bcet, model::Time wcet,
                        model::Time detection) {
    view.info.push_back(info);
    view.pe.push_back(pe);
    view.bcet.push_back(bcet);
    view.wcet.push_back(wcet);
    view.detection.push_back(detection);
    view.topo.push_back(0);
    return static_cast<std::uint32_t>(view.info.size() - 1);
  };

  std::size_t flat = 0;  // original task, flat over `apps`
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    const auto first = static_cast<std::uint32_t>(view.info.size());
    const std::size_t c_first = view.channels.size();
    view.node_offsets.push_back(first);
    view.channel_offsets.push_back(static_cast<std::uint32_t>(c_first));
    view.sink_offsets.push_back(static_cast<std::uint32_t>(view.sinks.size()));
    view.period.push_back(graph.period());
    view.droppable.push_back(graph.droppable() ? 1 : 0);
    s.input_first.resize(graph.task_count());
    s.input_count.resize(graph.task_count());
    s.output.resize(graph.task_count());

    for (std::uint32_t v = 0; v < graph.task_count(); ++v, ++flat) {
      const model::TaskRef ref{g, v};
      const model::Task& task = graph.task(v);
      const TaskHardening& decision = plan[flat];

      switch (decision.technique) {
        case Technique::kNone:
        case Technique::kReexecution: {
          HardenedTaskInfo node;
          node.origin = ref;
          if (decision.technique == Technique::kReexecution) {
            node.reexecutions = decision.reexecutions;
            node.pays_detection = true;
            node.triggers_critical_state = true;
          }
          const std::uint32_t id = emit(node, base_mapping[flat], task.bcet,
                                        task.wcet, task.detection_overhead);
          s.input_first[v] = id;
          s.input_count[v] = 1;
          s.output[v] = id;
          break;
        }
        case Technique::kActiveReplication:
        case Technique::kPassiveReplication: {
          const bool passive =
              decision.technique == Technique::kPassiveReplication;
          const auto replica_count =
              static_cast<std::uint32_t>(decision.replica_pes.size());
          const std::uint32_t active_count = passive ? 2 : replica_count;
          const auto replicas = static_cast<std::uint32_t>(view.info.size());
          for (std::uint32_t r = 0; r < replica_count; ++r) {
            HardenedTaskInfo node;
            node.role = r < active_count ? TaskRole::kActiveReplica
                                         : TaskRole::kPassiveReplica;
            node.origin = ref;
            node.triggers_critical_state = r >= active_count;
            emit(node, decision.replica_pes[r], task.bcet, task.wcet, 0);
          }
          HardenedTaskInfo voter;
          voter.role = TaskRole::kVoter;
          voter.origin = ref;
          const std::uint32_t voter_id =
              emit(voter, decision.voter_pe, task.voting_overhead,
                   task.voting_overhead, 0);

          const std::uint64_t payload = vote_payload(graph, v);
          for (std::uint32_t r = 0; r < replica_count; ++r)
            view.channels.push_back({replicas + r, voter_id, payload});
          if (passive) {
            // Control edges: the standby runs only after both primaries
            // have produced results the voter can compare.
            view.channels.push_back({replicas, replicas + 2, 0});
            view.channels.push_back({replicas + 1, replicas + 2, 0});
          }
          // Every replica consumes the original inputs; the standby also
          // needs the input data to be able to run.
          s.input_first[v] = replicas;
          s.input_count[v] = replica_count;
          s.output[v] = voter_id;
          break;
        }
      }
    }

    // Re-create the original channels over the transformed nodes.
    for (const model::Channel& channel : graph.channels())
      for (std::uint32_t k = 0; k < s.input_count[channel.dst]; ++k)
        view.channels.push_back({s.output[channel.src],
                                 s.input_first[channel.dst] + k,
                                 channel.size_bytes});

    order_graph(view, first, static_cast<std::uint32_t>(view.info.size()),
                c_first, view.channels.size(), s);
  }
  view.node_offsets.push_back(static_cast<std::uint32_t>(view.info.size()));
  view.channel_offsets.push_back(
      static_cast<std::uint32_t>(view.channels.size()));
  view.sink_offsets.push_back(static_cast<std::uint32_t>(view.sinks.size()));
}

HardenedSystem materialize(HardenedView view) {
  const model::ApplicationSet& source = *view.source;
  std::vector<model::TaskGraph> graphs;
  graphs.reserve(view.graph_count());
  for (std::uint32_t g = 0; g < view.graph_count(); ++g) {
    const model::TaskGraph& graph = source.graph(model::GraphId{g});
    const std::uint32_t first = view.node_offsets[g];
    const std::uint32_t last = view.node_offsets[g + 1];
    std::vector<model::Task> tasks;
    tasks.reserve(last - first);
    std::uint32_t replica = 0;  // index r of the next replica of a group
    for (std::uint32_t i = first; i < last; ++i) {
      const HardenedTaskInfo& info = view.info[i];
      const model::Task& task = source.task(info.origin);
      model::Task node{task.name, view.bcet[i], view.wcet[i], 0,
                       view.detection[i]};
      switch (info.role) {
        case TaskRole::kOriginal:
          node.voting_overhead = task.voting_overhead;
          replica = 0;
          break;
        case TaskRole::kActiveReplica:
        case TaskRole::kPassiveReplica:
          node.name += "#r" + std::to_string(replica++);
          break;
        case TaskRole::kVoter:
          node.name += "#vote";
          replica = 0;
          break;
      }
      tasks.push_back(std::move(node));
    }
    std::vector<model::Channel> channels;
    channels.reserve(view.channel_offsets[g + 1] - view.channel_offsets[g]);
    for (std::uint32_t c = view.channel_offsets[g];
         c < view.channel_offsets[g + 1]; ++c)
      channels.push_back({view.channels[c].src - first,
                          view.channels[c].dst - first,
                          view.channels[c].size_bytes});
    graphs.emplace_back(graph.name(), std::move(tasks), std::move(channels),
                        view.period[g], graph.reliability_constraint(),
                        graph.service_value());
  }

  model::ApplicationSet apps(std::move(graphs));
  model::Mapping mapping(apps);
  for (std::size_t i = 0; i < view.pe.size(); ++i)
    mapping.assign_flat(i, view.pe[i]);
  std::vector<HardenedTaskInfo> info = view.info;
  return HardenedSystem{std::move(apps), std::move(mapping), std::move(info),
                        std::move(view)};
}

HardenedSystem apply_hardening(
    const model::ApplicationSet& apps, const HardeningPlan& plan,
    const std::vector<model::ProcessorId>& base_mapping,
    std::size_t processor_count) {
  HardenedView view;
  build_view(view, apps, plan, base_mapping, processor_count);
  return materialize(std::move(view));
}

}  // namespace ftmc::hardening
