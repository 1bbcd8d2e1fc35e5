// Candidate evaluation: feasibility (reliability + schedulability + mapping
// validity) and objective values (expected power, quality of service) for a
// fully decoded design point.  This is the fitness function behind the DSE
// engine and is also usable standalone (examples/quickstart.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/core/objectives.hpp"
#include "ftmc/hardening/reliability.hpp"
#include "ftmc/sched/analysis.hpp"

namespace ftmc::core {

class EvaluationCache;
class EvalStore;

/// A decoded design point (the GA's phenotype, Figure 4): which PEs are
/// powered, which droppable applications are sacrificed in the critical
/// state, how every task is hardened, and where every original task runs.
struct Candidate {
  Allocation allocation;                         ///< per PE
  DropSet drop;                                  ///< per application
  hardening::HardeningPlan plan;                 ///< per original task
  std::vector<model::ProcessorId> base_mapping;  ///< per original task

  bool operator==(const Candidate&) const = default;
};

/// Stable content hash of a candidate (ftmc::util::Fnv1aHasher over every
/// field, length-prefixed), seeded with `seed`.  Identical across runs for
/// identical candidates; the basis of EvaluationCache keys.
std::uint64_t candidate_hash(const Candidate& candidate,
                             std::uint64_t seed = 0);

/// Evaluation verdict + objectives.
struct Evaluation {
  bool mapping_valid = false;      ///< all used PEs are allocated
  bool reliability_ok = false;     ///< every f_t constraint holds
  bool normal_schedulable = false;
  bool critical_schedulable = false;
  bool feasible() const noexcept {
    return mapping_valid && reliability_ok && normal_schedulable &&
           critical_schedulable;
  }

  /// Expected power [mW]; includes the infeasibility penalty when the
  /// candidate is infeasible (paper: "penalize the solution with an
  /// exceedingly bad fitness value").
  double power = 0.0;
  /// QoS after dropping (to be maximized).
  double service = 0.0;
  /// Transition scenarios analyzed by Algorithm 1.
  std::size_t scenario_count = 0;
  /// Backend fixed-point solves Algorithm 1 calls for (normal + Naive pass
  /// + unique scenarios after dedup, including those the saturation probe
  /// skips); deterministic for a given candidate.
  std::size_t scenario_solves = 0;
  /// WCRT bound of every graph (flat over graphs of T'), for reporting.
  std::vector<model::Time> graph_wcrt;
};

class Evaluator {
 public:
  struct Options {
    McAnalysis::Mode mode = McAnalysis::Mode::kProposed;
    sched::PriorityPolicy policy =
        sched::PriorityPolicy::kRateMonotonic;
    /// Added to the power of infeasible candidates.
    double infeasibility_penalty = 1.0e9;
    /// When false, candidates whose drop set is non-empty are rejected
    /// (used for the "no task dropping" ablation of Section 5.2).
    bool allow_dropping = true;
    /// Shared memoization table for evaluate(); internally synchronized, so
    /// one cache may serve many concurrent evaluator threads.  The key mixes
    /// in a fingerprint of these options, so evaluators with different
    /// modes/policies can safely share one cache.  Must outlive the
    /// evaluator; null disables memoization.
    EvaluationCache* cache = nullptr;
    /// Persistent L2 behind `cache`: consulted on an L1 miss (a hit warms
    /// the L1) and appended to after every fresh evaluation, so memoized
    /// results survive restarts and are shared across campaign shards and
    /// serve clients.  Keys mix in the options fingerprint, exactly like
    /// the L1.  Must outlive the evaluator; null disables persistence.
    EvalStore* store = nullptr;
    /// Runs Algorithm 1's independent transition scenarios concurrently on
    /// this pool (see McAnalysis::analyze); results stay bitwise identical
    /// to the sequential path.  Must outlive the evaluator; null keeps the
    /// analysis sequential.
    util::ThreadPool* scenario_pool = nullptr;
  };

  /// All references must outlive the evaluator.
  Evaluator(const model::Architecture& arch,
            const model::ApplicationSet& apps,
            const sched::SchedulingAnalysis& backend);
  Evaluator(const model::Architecture& arch,
            const model::ApplicationSet& apps,
            const sched::SchedulingAnalysis& backend, Options options);

  const model::Architecture& architecture() const noexcept { return *arch_; }
  const model::ApplicationSet& applications() const noexcept { return *apps_; }
  const Options& options() const noexcept { return options_; }

  /// Structural sanity of a candidate (sizes, PE ranges, replica counts).
  /// Returns an empty string when valid, else a description.
  std::string structural_error(const Candidate& candidate) const;

  /// Full evaluation.  Throws std::invalid_argument on structural errors
  /// (the DSE decoder repairs candidates before calling this).  When an
  /// EvaluationCache is attached, returns the memoized result for a
  /// previously seen candidate; `cache_hit` (if non-null) reports whether
  /// this call was served from the cache.
  Evaluation evaluate(const Candidate& candidate) const;
  Evaluation evaluate(const Candidate& candidate, bool* cache_hit) const;

  /// Always recomputes, never consults or fills the cache (the reference
  /// path the differential tests compare against).
  Evaluation evaluate_uncached(const Candidate& candidate) const;

  /// Cache key of a candidate under this evaluator's options: the content
  /// hash seeded with the options fingerprint (mode, policy, penalty,
  /// dropping), so distinct configurations never alias.
  std::uint64_t candidate_key(const Candidate& candidate) const;

 private:
  std::uint64_t options_fingerprint() const;

  const model::Architecture* arch_;
  const model::ApplicationSet* apps_;
  const sched::SchedulingAnalysis* backend_;
  Options options_;
};

}  // namespace ftmc::core
