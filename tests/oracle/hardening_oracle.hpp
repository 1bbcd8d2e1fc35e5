// Reference hardening transform and candidate evaluation for the
// differential tests.
//
// apply_hardening is the transform as it was written before the flat view:
// it builds T' directly as named TaskGraphs, an ApplicationSet and a
// Mapping, with no HardenedView (the returned system's `view` is empty).
// evaluate is Evaluator::evaluate_uncached as it was written on that T':
// Algorithm 1 through oracle::mc_analyze, and the power objective summed
// over the TaskGraphs, with a standby's primaries found by origin.
//
// tests/test_transform_fuzz.cpp holds the production flat build, its
// materialized T' and the evaluation path to these.  Slow by design; never
// link it into a shipped target.
#pragma once

#include "ftmc/core/evaluator.hpp"
#include "ftmc/hardening/hardening.hpp"

namespace ftmc::oracle {

hardening::HardenedSystem apply_hardening(
    const model::ApplicationSet& apps, const hardening::HardeningPlan& plan,
    const std::vector<model::ProcessorId>& base_mapping,
    std::size_t processor_count);

/// Expected power of a TaskGraph-built T' (apps, mapping and info of
/// `system`; its view is not read).
double expected_power(const model::Architecture& arch,
                      const hardening::HardenedSystem& system,
                      const core::Allocation& allocation,
                      const std::vector<bool>* drop);

/// The evaluation of `candidate`, its drop set as given, on the oracle T'
/// (mode and policy from `options`; no cache, no store, no scenario pool).
core::Evaluation evaluate(const model::Architecture& arch,
                          const model::ApplicationSet& apps,
                          const sched::SchedulingAnalysis& backend,
                          const core::Evaluator::Options& options,
                          const core::Candidate& candidate);

}  // namespace ftmc::oracle
