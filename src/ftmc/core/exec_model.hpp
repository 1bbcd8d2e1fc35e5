// Execution-time bounds of hardened tasks in the analysis roles of
// Algorithm 1 (Section 3).
//
//  - nominal_bounds: the normal (fault-free) state.  Re-executable tasks pay
//    the detection overhead dt on every run; passive standbys do not run at
//    all, which is modeled as [0, 0].
//  - critical_bounds: a task caught in the critical region of some state
//    transition.  Re-executable tasks may re-execute up to k times, so their
//    WCET follows Eq. (1): (wcet + dt) * (k + 1); passive standbys may or
//    may not be activated: [0, wcet].  The trigger v, whose first fault
//    *causes* the transition, certainly re-executes (or is certainly
//    activated) and takes these same bounds.
#pragma once

#include "ftmc/hardening/hardening.hpp"
#include "ftmc/sched/analysis.hpp"

namespace ftmc::core {

/// Bounds of node `node` of T' (read off the flat view) in the two roles.
sched::ExecBounds nominal_bounds(const hardening::HardenedView& view,
                                 std::size_t node) noexcept;
sched::ExecBounds critical_bounds(const hardening::HardenedView& view,
                                  std::size_t node) noexcept;

/// Nominal bounds for every task of a hardened system, flat order.
std::vector<sched::ExecBounds> nominal_bounds_of(
    const hardening::HardenedSystem& system);

}  // namespace ftmc::core
