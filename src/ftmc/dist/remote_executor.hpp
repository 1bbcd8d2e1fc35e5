// RemoteExecutor: dse::Executor that evaluates on an `ftmc serve` worker.
//
// The GA decodes locally and hands every offspring to the executor; the
// worker's L1 and store answer repeats.  RemoteExecutor ships each batch
// as one ftmc.rpc.v1 `batch` request of `evaluate` sub-requests carrying
// the genotype in the params.chromosome wire format plus the campaign
// seed.  The worker re-runs the same content-seeded decode + repair (a
// pure function of genotype and seed), evaluates, and answers every
// Evaluation field at round-trip precision — so a remote campaign's
// trajectory is bitwise identical to an in-process one.
//
// Transport failures (worker died, hung up, answered a structured error)
// throw dse::ExecutorError; the campaign's retry machinery resumes the
// island from its latest snapshot on a freshly assigned worker.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ftmc/dist/worker.hpp"
#include "ftmc/dse/executor.hpp"

namespace ftmc::obs {
class Json;
}
namespace ftmc::serve {
struct JsonValue;
}

namespace ftmc::dist {

/// params.chromosome wire form of a genotype (see serve/server.cpp's
/// read_chromosome for the schema).
obs::Json chromosome_json(const dse::Chromosome& chromosome);

/// The `batch` request RemoteExecutor sends for `requests`: one `evaluate`
/// item per genotype, ids 0..n-1, each carrying `system_path` and `seed`.
/// Written straight into one string, byte-identical to the dump() of the
/// obs::Json request tree built from chromosome_json.
std::string encode_batch_request(const std::vector<dse::EvalRequest>& requests,
                                 std::string_view system_path,
                                 std::uint64_t seed);

/// Bit-exact core::Evaluation from an `evaluate` result document (obs::Json
/// prints doubles at max_digits10, so the round trip is lossless).  Throws
/// dse::ExecutorError when a graph_wcrt bound lies outside model::Time.
core::Evaluation evaluation_from_json(const serve::JsonValue& result);

class RemoteExecutor final : public dse::Executor {
 public:
  /// `fleet` must outlive the executor.  `seed` is the island's campaign
  /// seed — the content-seeded decode on the worker must match the GA's.
  RemoteExecutor(WorkerFleet& fleet, std::size_t worker,
                 std::string system_path, std::uint64_t seed);

  const char* name() const noexcept override { return "remote"; }
  void evaluate(const std::vector<dse::EvalRequest>& requests,
                std::vector<dse::EvalOutcome>& outcomes) override;

 private:
  WorkerFleet* fleet_;
  std::size_t worker_;
  std::string system_path_;
  std::uint64_t seed_;
};

}  // namespace ftmc::dist
