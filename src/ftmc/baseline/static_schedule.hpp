// Static contingency-schedule baseline (the Table 1 / Section 1 foil).
//
// Prior fault-tolerant mapping work ([2] Pop et al., [3] Bolchini et al.)
// synthesizes *static, non-preemptive* schedules: one schedule table per
// fault scenario, pre-computed at compile time and switched at run time
// ("in [2], 19 different schedules had to be pre-calculated for an
// application with five tasks").  This module reproduces that flow so the
// paper's argument against it can be measured:
//
//  - a fault scenario assigns each re-executable job a number of extra
//    attempts (bounded by its k), with the total number of faults in the
//    hyperperiod bounded by `max_faults` — exactly [2]'s fault model;
//  - for each scenario a non-preemptive list schedule of one hyperperiod is
//    synthesized (earliest-start, priority-ordered, communication-aware);
//  - the runtime must store ALL tables (memory = schedules x entries) and
//    every application must fit its deadline in EVERY scenario — static
//    tables cannot drop anything, which is precisely the flexibility the
//    paper's dynamic mixed-criticality scheduling adds.
#pragma once

#include <vector>

#include "ftmc/hardening/hardening.hpp"
#include "ftmc/model/architecture.hpp"

namespace ftmc::baseline {

/// One row of a static schedule table.
struct ScheduleEntry {
  std::size_t flat_task = 0;
  std::size_t instance = 0;
  model::Time start = 0;
  model::Time finish = 0;
  model::ProcessorId pe{0};
};

/// A complete static schedule of one hyperperiod for one fault scenario.
struct StaticSchedule {
  std::vector<ScheduleEntry> entries;
  model::Time makespan = 0;
  /// Every job finished within its instance's implicit deadline.
  bool deadlines_met = true;
};

/// Extra attempts per *job* (flat task-major, instance-minor — the same
/// layout the simulator uses); entry j is how many re-executions job j
/// performs in this scenario.
using FaultScenario = std::vector<int>;

/// Job count of one hyperperiod (scenario vector length).  A test hook:
/// tests size a FaultScenario with it without knowing the private job
/// layout; production callers only pass scenarios enumerate_scenarios made.
std::size_t job_count(const hardening::HardenedSystem& system);

/// All scenarios with at most `max_faults` total faults, each job bounded
/// by its task's re-execution budget.  Grows combinatorially — that is the
/// point.  `limit` guards against explosion (throws std::length_error).
std::vector<FaultScenario> enumerate_scenarios(
    const hardening::HardenedSystem& system, int max_faults,
    std::size_t limit = 1'000'000);

/// Non-preemptive, communication-aware list schedule of one hyperperiod
/// under the given fault scenario.  Jobs are picked ready-first by the
/// given global priority ranks; passive standbys run whenever any primary
/// faults in the scenario (the static table must reserve their slot).
StaticSchedule synthesize_schedule(
    const model::Architecture& arch, const hardening::HardenedSystem& system,
    const FaultScenario& scenario,
    const std::vector<std::uint32_t>& priorities);

/// The full contingency analysis of [2]-style static fault tolerance.
struct ContingencyResult {
  std::size_t schedule_count = 0;   ///< tables the runtime must store
  std::size_t table_entries = 0;    ///< total rows across all tables
  model::Time worst_makespan = 0;   ///< max over scenarios
  bool all_deadlines_met = true;    ///< every scenario fits every deadline
};

ContingencyResult contingency_analysis(
    const model::Architecture& arch, const hardening::HardenedSystem& system,
    int max_faults, const std::vector<std::uint32_t>& priorities);

}  // namespace ftmc::baseline
