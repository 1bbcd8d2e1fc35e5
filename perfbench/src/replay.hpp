// Stage replay: the candidates a traced run evaluated fresh, fed single-
// threaded and in evaluation order through each pipeline stage's public
// function — Decoder::decode, check_reliability, apply_hardening,
// McAnalysis::analyze, the objectives, the sched prepare/solve split, and
// the whole Evaluator::evaluate_uncached — to split a candidate's cost by
// layer from outside the program.
#pragma once

#include <vector>

#include "common.hpp"
#include "ftmc/model/application_set.hpp"
#include "ftmc/model/architecture.hpp"

namespace perfbench {

/// Per-candidate stage times (microseconds), aligned with the input.
struct StageTimes {
  std::vector<double> decode_us;
  std::vector<double> reliability_us;
  std::vector<double> transform_us;
  std::vector<double> mc_analysis_us;
  std::vector<double> objectives_us;
  std::vector<double> prepare_us;
  std::vector<double> solve_us;
  std::vector<double> evaluate_us;
  /// Replays whose decode or evaluation disagreed with what the run got.
  std::size_t decode_mismatches = 0;
  std::size_t evaluation_mismatches = 0;
};

StageTimes replay_stages(const ftmc::model::Architecture& arch,
                         const ftmc::model::ApplicationSet& apps,
                         const std::vector<const CapturedRequest*>& candidates);

/// The replayed candidates: every fresh candidate of every `stride`-th
/// batch, with the stride chosen so at most about `limit` remain.
std::vector<const CapturedRequest*> replay_selection(const Recorder& recorder,
                                                     std::size_t limit);

/// Reports the dse.decode_us, hardening.*, core.evaluate/mc_analysis/
/// objectives and sched.prepare/solve metrics plus the stage coverage,
/// and gates on the replay agreeing with the run.
void report_stages(Report& report, const StageTimes& times);

}  // namespace perfbench
