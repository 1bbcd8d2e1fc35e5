// Reference Algorithm 1 for the differential tests.
//
// The paper's Algorithm 1 written the plain way, on the TaskGraphs of T'
// (the execution-time bounds of Section 3 are computed here from each
// task, not read off the flat view): analyze the normal state,
// then build one full bounds vector per trigger task by the classification
// rules (lines 12-27) and run backend.analyze() on each — no prepared
// problem, no scenario dedup, no sort, no arena, no batching — and merge
// exactly as core::McAnalysis does (normal state, then the pointwise
// minimum of the scenario maximum and the Naive pass).  The result is
// bitwise what McAnalysis::analyze returns on the same backend, including
// scenario_solves, which the oracle derives by counting distinct scenario
// vectors rather than by skipping their solves.
//
// tests/test_kernel_fuzz.cpp runs it against McAnalysis on both the
// production backend and oracle::HolisticOracle.  Slow by design; never
// link it into a shipped target.
#pragma once

#include "ftmc/core/mc_analysis.hpp"

namespace ftmc::oracle {

core::McAnalysisResult mc_analyze(
    const sched::SchedulingAnalysis& backend,
    const model::Architecture& arch, const hardening::HardenedSystem& system,
    const core::DropSet& drop,
    core::McAnalysis::Mode mode = core::McAnalysis::Mode::kProposed,
    sched::PriorityPolicy policy = sched::PriorityPolicy::kRateMonotonic);

}  // namespace ftmc::oracle
