// Global fixed-priority assignment for the per-PE preemptive schedulers.
//
// The paper's flow fixes hardening/mapping statically and schedules each PE
// locally at run time; we use fixed priorities.  The default policy orders
// by criticality class first (non-droppable above droppable), then
// rate-monotonically, then by graph and intra-graph topological position as
// a deterministic tie-break that respects precedence.
#pragma once

#include <cstdint>
#include <vector>

#include "ftmc/hardening/hardening.hpp"
#include "ftmc/model/application_set.hpp"

namespace ftmc::sched {

enum class PriorityPolicy {
  kCriticalityRateMonotonic,  ///< criticality class, then period (ablation)
  kRateMonotonic,             ///< default: period, then graph order (paper-style FP)
  kFlatIndex,                 ///< declaration order (for tests)
};

/// Returns the priority rank of every task in flat order; 0 is the highest
/// priority and ranks are unique.
std::vector<std::uint32_t> assign_priorities(
    const model::ApplicationSet& apps,
    PriorityPolicy policy = PriorityPolicy::kRateMonotonic);

/// The same ranks for a hardened T' given as a flat view (its periods,
/// droppable flags and topological positions): equal to assign_priorities
/// over the materialized T'.
std::vector<std::uint32_t> assign_priorities(
    const hardening::HardenedView& view,
    PriorityPolicy policy = PriorityPolicy::kRateMonotonic);

}  // namespace ftmc::sched
