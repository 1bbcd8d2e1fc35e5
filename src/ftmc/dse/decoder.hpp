// Genotype -> phenotype translation with the paper's randomized repair
// heuristics (Section 4):
//
//  - no PE allocated           -> allocate a random one,
//  - task / replica / voter on an unallocated PE ("invalid mapping")
//                              -> reassign to a random allocated PE,
//  - active replicas sharing a PE -> spread over distinct allocated PEs
//                                    where enough exist,
//  - violated reliability constraint f_t -> apply random hardening
//    (re-execution degree bumps, active/passive replication) to random
//    tasks of the violating application until the constraint holds
//    (kReliabilityRepairAttempts rounds; unrepairable candidates stay
//    infeasible and are penalized by the evaluator).
//
// Repair is Lamarckian: the chromosome is rewritten in place, so repaired
// genes re-enter the gene pool.
#pragma once

#include "ftmc/core/evaluator.hpp"
#include "ftmc/dse/chromosome.hpp"
#include "ftmc/util/rng.hpp"

namespace ftmc::dse {

/// Restricts which hardening techniques the decoder may emit (used by the
/// hardening-space ablation bench).
enum class TechniqueRestriction {
  kNone,             ///< all techniques explored (paper setup)
  kReexecutionOnly,  ///< replication genes rewritten to re-execution
  kReplicationOnly,  ///< re-execution forbidden (tasks without a voter
                     ///< model stay unhardened)
};

class Decoder {
 public:
  /// Maximum random-hardening rounds of the reliability repair.
  static constexpr std::size_t kReliabilityRepairAttempts = 64;

  struct Options {
    /// When false, keep bits are forced to 1 and every candidate's drop
    /// set is empty: the no-dropping ablation of Section 5.2, and its only
    /// switch (the evaluator evaluates the drop set it is given).
    bool allow_dropping = true;
    /// Hardening-space restriction (ablation).
    TechniqueRestriction restriction = TechniqueRestriction::kNone;
  };

  Decoder(const model::Architecture& arch, const model::ApplicationSet& apps);
  Decoder(const model::Architecture& arch, const model::ApplicationSet& apps,
          Options options);

  const ChromosomeShape& shape() const noexcept { return shape_; }

  /// Repairs `chromosome` in place and decodes it into a Candidate.
  core::Candidate decode(Chromosome& chromosome, util::Rng& rng) const;

 private:
  void repair_allocation(Chromosome& chromosome, util::Rng& rng) const;
  void repair_mapping(Chromosome& chromosome, util::Rng& rng) const;
  void repair_reliability(Chromosome& chromosome, util::Rng& rng) const;
  core::Candidate translate(const Chromosome& chromosome) const;

  const model::Architecture* arch_;
  const model::ApplicationSet* apps_;
  Options options_;
  ChromosomeShape shape_;
};

}  // namespace ftmc::dse
