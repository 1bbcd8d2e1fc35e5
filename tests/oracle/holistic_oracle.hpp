// Reference WCRT backend for the differential tests.
//
// A self-contained copy of the holistic analysis as the monolithic seed
// kernel computed it: a per-call problem build (one vector per node, an
// O(V^2) interferer scan, a DFS relation matrix), the best case swept to
// stability, the worst case as a full Gauss-Seidel sweep in flat order until
// a sweep changes nothing, and the offset-aware operator in its original
// form (job count by division, per-job cutoff and window tests, the jitter
// fallback solving every window from scratch).  It loads release cutoffs
// raw: the production kernel folds them onto canonical values, and that
// fold claims to change no probe answer — the oracle holds it to that.
//
// It shares no code with the production kernel beyond the public types and
// hardening::scaled_time, so tests/test_kernel_fuzz.cpp checks the kernel
// against an independent implementation rather than against itself.  Slow
// by design; never link it into a shipped target.
#pragma once

#include "ftmc/sched/holistic.hpp"

namespace ftmc::oracle {

class HolisticOracle final : public sched::SchedulingAnalysis {
 public:
  /// Honors every field of `options` (precedence_aware and
  /// bus_contention) and the kernel's iteration limits and horizon
  /// (HolisticAnalysis::kMaxOuterIterations and its siblings).
  explicit HolisticOracle(sched::HolisticAnalysis::Options options = {})
      : options_(options) {}

  sched::AnalysisResult analyze(
      const model::Architecture& arch, const model::ApplicationSet& apps,
      const model::Mapping& mapping, std::span<const sched::ExecBounds> bounds,
      std::span<const std::uint32_t> priorities) const override;

 private:
  sched::HolisticAnalysis::Options options_;
};

}  // namespace ftmc::oracle
