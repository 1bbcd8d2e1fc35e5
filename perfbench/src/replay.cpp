#include "replay.hpp"

#include <algorithm>

#include "ftmc/core/exec_model.hpp"
#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/core/objectives.hpp"
#include "ftmc/dse/decoder.hpp"
#include "ftmc/hardening/hardening.hpp"
#include "ftmc/hardening/reliability.hpp"
#include "ftmc/sched/holistic.hpp"
#include "ftmc/sched/priority.hpp"

namespace perfbench {

using namespace ftmc;

namespace {

double micros(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

}  // namespace

StageTimes replay_stages(const model::Architecture& arch,
                         const model::ApplicationSet& apps,
                         const std::vector<const CapturedRequest*>& candidates) {
  // The configuration `ftmc optimize` evaluates with: default decoder,
  // default evaluator options, default kernel, no scenario pool.
  const dse::Decoder decoder(arch, apps);
  const sched::HolisticAnalysis backend;
  const core::Evaluator::Options evaluator_options;
  const core::Evaluator evaluator(arch, apps, backend, evaluator_options);
  const core::McAnalysis analysis(backend, evaluator_options.policy);

  StageTimes times;
  for (const CapturedRequest* fresh : candidates) {
    auto t0 = Clock::now();
    dse::Chromosome genotype = fresh->genotype;
    util::Rng rng(fresh->key);
    const core::Candidate candidate = decoder.decode(genotype, rng);
    auto t1 = Clock::now();
    times.decode_us.push_back(micros(t0, t1));
    if (!(candidate == fresh->candidate)) ++times.decode_mismatches;

    t0 = Clock::now();
    const hardening::ReliabilityReport reliability = hardening::check_reliability(
        arch, apps, candidate.plan, candidate.base_mapping);
    t1 = Clock::now();
    times.reliability_us.push_back(micros(t0, t1));

    t0 = Clock::now();
    const hardening::HardenedSystem system = hardening::apply_hardening(
        apps, candidate.plan, candidate.base_mapping,
        arch.processor_count());
    t1 = Clock::now();
    times.transform_us.push_back(micros(t0, t1));

    t0 = Clock::now();
    const core::McAnalysisResult verdict = analysis.analyze(
        arch, system, candidate.drop, core::McAnalysis::Mode::kProposed);
    t1 = Clock::now();
    times.mc_analysis_us.push_back(micros(t0, t1));

    // Objectives exactly as Evaluator::evaluate_uncached computes them:
    // the allocation widened to every PE the hardened mapping uses.
    t0 = Clock::now();
    core::Allocation allocation = candidate.allocation;
    for (const model::ProcessorId pe : system.mapping.flat())
      allocation[pe.value] = true;
    const double power =
        core::expected_power(arch, system, allocation, &candidate.drop);
    const double service = core::service_value(apps, candidate.drop);
    t1 = Clock::now();
    times.objectives_us.push_back(micros(t0, t1));

    t0 = Clock::now();
    const std::vector<std::uint32_t> priorities =
        sched::assign_priorities(system.apps, evaluator_options.policy);
    const auto prepared = backend.prepare(arch, system.apps, system.mapping,
                                          priorities);
    t1 = Clock::now();
    times.prepare_us.push_back(micros(t0, t1));

    const std::vector<sched::ExecBounds> nominal =
        core::nominal_bounds_of(system);
    t0 = Clock::now();
    const sched::AnalysisResult normal = prepared->solve(nominal);
    t1 = Clock::now();
    times.solve_us.push_back(micros(t0, t1));

    t0 = Clock::now();
    const core::Evaluation evaluation = evaluator.evaluate_uncached(candidate);
    t1 = Clock::now();
    times.evaluate_us.push_back(micros(t0, t1));
    if (!same_evaluation(evaluation, fresh->evaluation) ||
        verdict.normal_schedulable != evaluation.normal_schedulable ||
        reliability.all_satisfied != evaluation.reliability_ok ||
        normal.windows.size() != system.apps.task_count() ||
        (evaluation.feasible() && (evaluation.power != power ||
                                   evaluation.service != service)))
      ++times.evaluation_mismatches;
  }
  return times;
}

std::vector<const CapturedRequest*> replay_selection(const Recorder& recorder,
                                                     std::size_t limit) {
  std::size_t fresh = 0;
  for (const CapturedRequest& request : recorder.captured)
    if (request.fresh) ++fresh;
  std::size_t stride = 1;
  while (fresh / stride > limit) ++stride;
  std::vector<const CapturedRequest*> selected;
  for (const CapturedRequest& request : recorder.captured)
    if (request.fresh && request.batch % stride == 0)
      selected.push_back(&request);
  return selected;
}

void report_stages(Report& report, const StageTimes& times) {
  report.gate(times.decode_mismatches == 0,
              std::to_string(times.decode_mismatches) +
                  " replayed decodes differ from the run's candidates");
  report.gate(times.evaluation_mismatches == 0,
              std::to_string(times.evaluation_mismatches) +
                  " replayed evaluations differ from the run's outcomes");
  report.metric("dse.decode_us", mean(times.decode_us), "us");
  report.metric("hardening.reliability_us", mean(times.reliability_us), "us");
  report.metric("hardening.transform_us", mean(times.transform_us), "us");
  report.metric("core.evaluate_p50_us", median(times.evaluate_us), "us");
  report.metric("core.evaluate_p99_us", quantile(times.evaluate_us, 0.99),
                "us");
  report.metric("core.mc_analysis_us", mean(times.mc_analysis_us), "us");
  report.metric("core.objectives_us", mean(times.objectives_us), "us");
  report.metric("sched.prepare_us", mean(times.prepare_us), "us");
  report.metric("sched.solve_us", mean(times.solve_us), "us");
  report.metric("core.replayed_candidates",
                static_cast<double>(times.evaluate_us.size()), "count");
  // Coverage: the four stages evaluate_uncached runs must add up to it.
  const double stages = total(times.reliability_us) +
                        total(times.transform_us) +
                        total(times.mc_analysis_us) +
                        total(times.objectives_us);
  const double coverage = ratio(stages, total(times.evaluate_us));
  report.metric("coverage.stages_ratio", coverage, "ratio");
  if (coverage < 0.9 || coverage > 1.1)
    report.note("stage coverage missed: replayed stages sum to " +
                std::to_string(coverage) + " of evaluate_uncached");
}

}  // namespace perfbench
