// Hardening decisions (Section 2.2) and their per-task bookkeeping after the
// graph transform.
//
// Three techniques are supported, mirroring the paper:
//  - Re-execution: on locally detected fault, roll back and re-run the same
//    instance up to k extra times.  Topology unchanged; the critical-state
//    WCET becomes (wcet + dt) * (k + 1)  (Eq. 1).
//  - Active replication: n >= 2 replicas always execute on (ideally
//    distinct) PEs and feed a majority voter (n >= 3 masks faults; n == 2
//    only detects).
//  - Passive replication: two primaries always execute; a standby replica is
//    instantiated only when the voter sees the primaries disagree
//    (Figure 2(b)).  Standby invocation switches the system to the critical
//    state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftmc/model/application_set.hpp"
#include "ftmc/model/ids.hpp"
#include "ftmc/model/mapping.hpp"

namespace ftmc::hardening {

enum class Technique : std::uint8_t {
  kNone,
  kReexecution,
  kActiveReplication,
  kPassiveReplication,
};

const char* to_string(Technique technique) noexcept;

/// Hardening decision for one task of the *original* application set.
struct TaskHardening {
  Technique technique = Technique::kNone;
  /// Re-execution only: maximum number k of re-executions (>= 1).
  int reexecutions = 0;
  /// Replication only: PEs of the replicas.  Active: all always run
  /// (size >= 2).  Passive: exactly 3 entries — two primaries followed by
  /// one standby.
  std::vector<model::ProcessorId> replica_pes;
  /// Replication only: PE running the voter.
  model::ProcessorId voter_pe{0};

  bool operator==(const TaskHardening&) const = default;
};

/// Hardening decisions for every task of an application set (flat order).
using HardeningPlan = std::vector<TaskHardening>;

/// Role of a task in the transformed application set T'.
enum class TaskRole : std::uint8_t {
  kOriginal,        ///< untouched or re-executable original task
  kActiveReplica,   ///< always-running replica (incl. passive primaries)
  kPassiveReplica,  ///< on-demand standby replica
  kVoter,           ///< majority voter
};

/// Per-task annotation of the transformed set, flat-aligned with T'.
struct HardenedTaskInfo {
  TaskRole role = TaskRole::kOriginal;
  /// The original task this one descends from (voters inherit the task they
  /// vote for).
  model::TaskRef origin{};
  /// k for re-executable originals; 0 otherwise.
  int reexecutions = 0;
  /// Detection overhead applies (re-executable tasks pay dt every run).
  bool pays_detection = false;
  /// True if a fault in this task switches the system to the critical state
  /// (re-executable originals and passive standbys, Section 3).
  bool triggers_critical_state = false;
};

/// T' as flat arrays: everything evaluation reads of the hardened system,
/// with no names and no TaskGraph.
///
/// Order (every rule changes results if broken):
///  - Nodes follow T''s flat order, graph-major.  Within a graph each
///    original task contributes its nodes at its own position: itself, or
///    replicas r0..r(n-1) followed by its voter.
///  - Channels, per graph: each replication's replica->voter edges and
///    control edges first, in node order; then each original channel,
///    once per consumer of its destination (replicas in order).
///  - `topo` is TaskGraph's topological order (Kahn, index-ordered ready
///    queue), which priority assignment breaks ties by.
///
/// build_view() clears and refills every array without shrinking it, so a
/// reused view builds a candidate's T' without touching the allocator.
struct HardenedView {
  /// The original application set T the view was built from.  Borrowed:
  /// it must outlive the view (materialize() reads its names).
  const model::ApplicationSet* source = nullptr;

  // Per node of T', flat order.
  std::vector<HardenedTaskInfo> info;  ///< role, origin, k, trigger flag
  std::vector<model::ProcessorId> pe;  ///< map : V(T') -> P
  std::vector<model::Time> bcet;
  std::vector<model::Time> wcet;
  /// dt of the task the node runs (0 for replicas and voters); charged
  /// only where info.pays_detection.
  std::vector<model::Time> detection;
  /// Position of the node in its graph's topological order.
  std::vector<std::uint32_t> topo;

  // Per graph of T' (the transform keeps the graphs of T, in order).
  /// Graph g's nodes are [node_offsets[g], node_offsets[g + 1]).
  std::vector<std::uint32_t> node_offsets;
  std::vector<model::Time> period;  ///< also the implicit deadline
  std::vector<std::uint8_t> droppable;
  /// Graph g's sinks (nodes without outgoing channels, ascending flat
  /// indices) are sinks[sink_offsets[g] .. sink_offsets[g + 1]).
  std::vector<std::uint32_t> sink_offsets;
  std::vector<std::uint32_t> sinks;

  /// Channels of T' with flat endpoints, CSR over graphs: graph g's are
  /// channels[channel_offsets[g] .. channel_offsets[g + 1]), in T' order.
  std::vector<model::Channel> channels;
  std::vector<std::uint32_t> channel_offsets;

  model::Time hyperperiod = 1;

  std::size_t node_count() const noexcept { return info.size(); }
  std::size_t graph_count() const noexcept { return period.size(); }
  std::uint32_t graph_of(std::size_t node) const noexcept {
    return info[node].origin.graph;
  }
};

/// Result of applying a HardeningPlan: the modified applications T', their
/// mapping, and per-task annotations consumed by simulation and reports,
/// materialized from the flat view they carry.
struct HardenedSystem {
  model::ApplicationSet apps;           ///< T'
  model::Mapping mapping;               ///< map : V(T') -> P
  std::vector<HardenedTaskInfo> info;   ///< flat-aligned with `apps`
  /// The flat T' the above were built from: what the analysis and the
  /// objectives read.  Borrows the original set, like every view.
  HardenedView view;

  const HardenedTaskInfo& info_of(model::TaskRef task) const {
    return info.at(apps.flat_index(task));
  }
};

/// Validates a plan against its application set; throws std::invalid_argument
/// describing the first violation (wrong replica counts, k < 1 for
/// re-execution, out-of-range PEs, ...).
void validate_plan(const model::ApplicationSet& apps,
                   const HardeningPlan& plan,
                   std::size_t processor_count);

/// Flat build of T' (the evaluation path): validates exactly like
/// apply_hardening and writes T' into `view`, reusing its storage.
///
/// @param base_mapping  PE of every *original* task (flat order over `apps`);
///                      replicated tasks ignore it in favour of replica_pes.
void build_view(HardenedView& view, const model::ApplicationSet& apps,
                const HardeningPlan& plan,
                const std::vector<model::ProcessorId>& base_mapping,
                std::size_t processor_count);

/// Builds T' as TaskGraphs from a view (replicas named `<task>#r<r>`,
/// voters `<task>#vote`); the result carries the view.  Throws
/// std::invalid_argument when a derived name clashes with a task name of
/// the same graph.
HardenedSystem materialize(HardenedView view);

/// Applies the plan, producing T' and its mapping: build_view, then
/// materialize.
HardenedSystem apply_hardening(const model::ApplicationSet& apps,
                               const HardeningPlan& plan,
                               const std::vector<model::ProcessorId>& base_mapping,
                               std::size_t processor_count);

}  // namespace ftmc::hardening
