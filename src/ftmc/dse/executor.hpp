// Evaluation backends for the GA's per-generation batches.
//
// The optimizer decodes + repairs chromosomes locally (the archive and the
// checkpoint format need the candidate and the repaired genotype), then
// hands the whole batch — every offspring of the generation, repeats
// included — to an Executor, whose cache answers the repeats.  Decode
// randomness is seeded from the chromosome's content hash, so decode +
// repair + evaluation is a pure function of (genotype, campaign seed): any
// backend that re-runs that pipeline — in this process or in an `ftmc
// serve` worker on another machine — produces bit-identical Evaluations,
// which is what keeps the search trajectory independent of the executor
// choice.
//
// InProcessExecutor reproduces the pre-executor fused loop exactly;
// RemoteExecutor (src/ftmc/dist/) ships the pre-repair genotypes over the
// ftmc.rpc.v1 serve protocol as one `batch` request per generation.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ftmc/core/evaluator.hpp"
#include "ftmc/dse/chromosome.hpp"

namespace ftmc::util {
class ThreadPool;
}

namespace ftmc::dse {

/// Transport-level executor failure (worker process died, protocol error,
/// malformed worker response).  Campaign retry machinery treats this as
/// retryable: the island resumes from its last snapshot on a fresh
/// executor.  Input-validation errors keep throwing std::invalid_argument
/// and are never retried.
class ExecutorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One evaluation the GA wants: the pre-repair genotype (the wire form a
/// remote worker re-decodes), the locally decoded + repaired candidate
/// (what an in-process backend evaluates directly), and the content key
/// `chromosome_hash(genotype, seed)` that seeds decode randomness.
struct EvalRequest {
  const Chromosome* genotype = nullptr;
  const core::Candidate* candidate = nullptr;
  std::uint64_t key = 0;
};

struct EvalOutcome {
  core::Evaluation evaluation;
  /// Served from a cache (in-process L1 or a worker's store) rather than
  /// analyzed fresh.  Telemetry only — the value is identical either way.
  bool cache_hit = false;
  /// Wall-clock spent on this item, microseconds.  Batch-granular backends
  /// may amortize one measurement across items.  Telemetry only.
  double latency_us = 0.0;
};

/// Batch-granularity evaluation backend.  evaluate() fills outcomes[i] for
/// requests[i]; items may run in any order and in parallel.  Throws
/// ExecutorError on transport failure.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual const char* name() const noexcept = 0;
  virtual void evaluate(const std::vector<EvalRequest>& requests,
                        std::vector<EvalOutcome>& outcomes) = 0;
};

/// Evaluates on the calling process's Evaluator, fanning items out over
/// the provided pool — exactly what the GA did before executors existed,
/// so trajectories are preserved bit-for-bit.  Both references must
/// outlive the executor.
class InProcessExecutor final : public Executor {
 public:
  InProcessExecutor(const core::Evaluator& evaluator, util::ThreadPool& pool)
      : evaluator_(&evaluator), pool_(&pool) {}

  const char* name() const noexcept override { return "in-process"; }
  void evaluate(const std::vector<EvalRequest>& requests,
                std::vector<EvalOutcome>& outcomes) override;

 private:
  const core::Evaluator* evaluator_;
  util::ThreadPool* pool_;
};

}  // namespace ftmc::dse
