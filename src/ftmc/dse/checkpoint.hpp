// Crash-safe GA checkpointing: the `ftmc.ckpt.v1` snapshot format and its
// persistence layer.
//
// A checkpoint captures the complete search state at a generation boundary
// (after SPEA2 environmental selection, before mating): the archive, the
// master RNG stream, the generation counter, run totals, the per-generation
// telemetry history, and every option that shapes the trajectory, field by
// field.  Because decode randomness is seeded from chromosome content and
// the evaluation cache is pure memoization (see ga.cpp), this boundary
// state is sufficient for the headline guarantee: kill at any generation
// boundary, resume, and the final archive and per-generation trajectory
// telemetry are bitwise identical to the uninterrupted run.  Thread and
// pool knobs are deliberately left out of the recorded options — they are
// trajectory-neutral.  Cache *contents* are not checkpointed (resume
// restarts with a cold cache), so the timing/cache-hit telemetry fields of
// post-resume generations may differ; the trajectory fields (generation,
// feasibility, power, evaluations) never do.
//
// On-disk layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic "FTMCCKPT"
//   8       4     format version (5)
//   12      4     reserved (0)
//   16      8     payload size in bytes
//   24      8     FNV-1a-64 digest of the payload (util::Fnv1aHasher)
//   32      ...   payload: trajectory options, generation, finished flag,
//                 run totals, the four RNG state words, archive, history
//                 (field stream, see checkpoint.cpp)
//
// Forward compatibility: readers reject a version they do not know and a
// non-zero reserved field with a loud error, verify the digest over exactly
// `payload size` bytes, and ignore any trailing bytes after the payload
// (reserved for future extensions appended by newer writers).  `ftmc check`
// validates a snapshot with this reader (load_checkpoint).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftmc/dse/ga.hpp"
#include "ftmc/util/rng.hpp"

namespace ftmc::dse {

inline constexpr char kCheckpointMagic[8] = {'F', 'T', 'M', 'C',
                                             'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kCheckpointVersion = 5;
/// Keep-last-K rotation of a snapshot file: `path`, `path.1`, `path.2`.
inline constexpr std::size_t kCheckpointKeep = 3;

/// Any checkpoint defect a caller must not retry around: bad magic,
/// unsupported version, truncation, checksum mismatch, or a trajectory
/// options mismatch on resume.  The message names the offending field or
/// byte range.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The subset of GaOptions that determines the search trajectory, flattened
/// into named scalar fields so a resume mismatch can be reported by field
/// name.  Threads, scenario parallelism, the executor and checkpoint
/// cadence are excluded: they change wall-clock and cache-hit telemetry,
/// never the trajectory.  So are the constants every run shares (the
/// variation rates, Decoder::kReliabilityRepairAttempts,
/// core::kInfeasibilityPenalty).
struct TrajectoryOptions {
  std::uint64_t population = 0;
  std::uint64_t offspring = 0;
  std::uint64_t generations = 0;
  std::uint64_t seed = 0;
  std::uint8_t optimize_service = 0;
  std::uint8_t decoder_allow_dropping = 0;
  std::uint32_t technique_restriction = 0;
  std::uint32_t analysis_mode = 0;
  std::uint32_t priority_policy = 0;

  bool operator==(const TrajectoryOptions&) const = default;

  static TrajectoryOptions of(const GaOptions& options);

  /// Name of the first field whose value differs from `other` (empty string
  /// when the two are identical).
  std::string mismatch(const TrajectoryOptions& other) const;
};

/// Complete `ftmc.ckpt.v1` snapshot.  `generation` is the boundary the
/// snapshot was taken at: its selection and telemetry are already inside
/// `archive`/`history` (the offspring have been merged into the archive),
/// and resume continues with that generation's mating step.
struct Checkpoint {
  TrajectoryOptions options;
  std::uint64_t generation = 0;
  std::uint8_t finished = 0;  ///< run completed; resume just reconstructs
  std::uint64_t evaluations = 0;
  double best_feasible_power = 0.0;  ///< NaN until a feasible point exists
  util::RngState master;
  std::vector<Individual> archive;
  std::vector<GenerationStats> history;
};

/// Serializes a snapshot into the on-disk byte layout (header + payload).
std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& checkpoint);

/// Parses and fully validates a snapshot.  Throws CheckpointError on bad
/// magic, unsupported version, non-zero reserved field, truncated payload,
/// or digest mismatch.
Checkpoint decode_checkpoint(std::span<const std::uint8_t> bytes);

/// Rotates existing snapshots (`path` -> `path.1` -> ..., the last
/// kCheckpointKeep kept; see util::rotate_files) and durably replaces
/// `path` via write-to-temp + fsync + atomic rename.  Bumps
/// dse.checkpoint.writes / .bytes.
void save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Reads and decodes `path`.  Bumps dse.resume.loads on success and
/// dse.resume.rejected before rethrowing any validation failure.
Checkpoint load_checkpoint(const std::string& path);

/// Resume gate: verifies that the options of the run being started match
/// the options recorded in the snapshot, field by field.  Throws
/// CheckpointError naming the first mismatched field (and bumps
/// dse.resume.rejected); returns normally when the trajectory is safe to
/// continue.
void verify_resume_options(const TrajectoryOptions& current,
                           const TrajectoryOptions& snapshot);

}  // namespace ftmc::dse
