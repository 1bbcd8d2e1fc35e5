// Optimization objectives (Section 2.3):
//
//   minimize  sum_p alloc_p * (stat_p + dyn_p * u_p)      (expected power)
//   maximize  sum_{t not in T_d} sv_t                      (quality of service)
//
// u_p is the *expected* average utilization of PE p over all fault
// scenarios: active replicas and voters are always charged; re-executable
// tasks are charged their expected number of attempts (1 + pf + ... + pf^k);
// passive standbys are charged their activation probability (both primaries
// agreeing means the standby never runs).
#pragma once

#include <vector>

#include "ftmc/hardening/hardening.hpp"
#include "ftmc/hardening/reliability.hpp"
#include "ftmc/model/architecture.hpp"

namespace ftmc::core {

/// One flag per PE: allocated (powered) or not.
using Allocation = std::vector<bool>;

/// Probability that at least one critical-state transition (a re-execution
/// or a passive-standby activation) happens within one hyperperiod.
double critical_state_probability(const model::Architecture& arch,
                                  const hardening::HardenedView& view);

/// Expected utilization of every PE (indexed by processor id) under the
/// hardened system; entries are >= 0 and may exceed 1 for overloaded PEs.
///
/// With a drop set, "considering all possible cases" (Section 2.3) includes
/// the critical state: when a transition occurs (probability
/// critical_state_probability per hyperperiod, uniformly located in time),
/// the remaining instances of dropped applications are shed — on average
/// half of a hyperperiod's worth — which slightly lowers the expected
/// utilization of the PEs hosting them.
///
/// Every sum and product runs over the nodes of T' in flat order, so the
/// doubles are bit-identical however T' was built.
std::vector<double> expected_utilization(
    const model::Architecture& arch, const hardening::HardenedView& view,
    const std::vector<bool>* drop = nullptr);

/// Expected power over the allocated PEs.  Throws if a task is mapped to an
/// unallocated PE (callers gate on mapping validity first).
double expected_power(const model::Architecture& arch,
                      const hardening::HardenedView& view,
                      const Allocation& allocation,
                      const std::vector<bool>* drop = nullptr);

/// The three above on a materialized hardened system (its view).
inline double critical_state_probability(
    const model::Architecture& arch, const hardening::HardenedSystem& system) {
  return critical_state_probability(arch, system.view);
}
inline std::vector<double> expected_utilization(
    const model::Architecture& arch, const hardening::HardenedSystem& system,
    const std::vector<bool>* drop = nullptr) {
  return expected_utilization(arch, system.view, drop);
}
inline double expected_power(const model::Architecture& arch,
                             const hardening::HardenedSystem& system,
                             const Allocation& allocation,
                             const std::vector<bool>* drop = nullptr) {
  return expected_power(arch, system.view, allocation, drop);
}

/// Quality of service after dropping: sum of the (finite) service values of
/// droppable applications that are *not* in T_d.  Non-droppable graphs carry
/// sv = infinity in the model as "never droppable" markers and are excluded
/// from the finite sum.
double service_value(const model::ApplicationSet& apps,
                     const std::vector<bool>& drop);

}  // namespace ftmc::core
