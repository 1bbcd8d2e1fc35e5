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

/// Result of applying a HardeningPlan: the modified applications T', their
/// mapping, and per-task annotations consumed by analysis and simulation.
struct HardenedSystem {
  model::ApplicationSet apps;           ///< T'
  model::Mapping mapping;               ///< map : V(T') -> P
  std::vector<HardenedTaskInfo> info;   ///< flat-aligned with `apps`
  /// For each original graph, the graph id in T' (transform preserves graph
  /// order, so this is the identity; kept for interface clarity).
  std::vector<model::GraphId> graph_of_original;

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

/// Applies the plan, producing T' and its mapping.
///
/// @param base_mapping  PE of every *original* task (flat order over `apps`);
///                      replicated tasks ignore it in favour of replica_pes.
HardenedSystem apply_hardening(const model::ApplicationSet& apps,
                               const HardeningPlan& plan,
                               const std::vector<model::ProcessorId>& base_mapping,
                               std::size_t processor_count);

}  // namespace ftmc::hardening
