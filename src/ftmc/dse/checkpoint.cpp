#include "ftmc/dse/checkpoint.hpp"

#include <cstring>

#include "ftmc/core/serialize.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/util/byte_stream.hpp"
#include "ftmc/util/file_io.hpp"
#include "ftmc/util/hash.hpp"

namespace ftmc::dse {
namespace {

struct CheckpointCounters {
  obs::Counter writes{"dse.checkpoint.writes"};
  obs::Counter bytes{"dse.checkpoint.bytes"};
  obs::Counter loads{"dse.resume.loads"};
  obs::Counter rejected{"dse.resume.rejected"};
};

CheckpointCounters& counters() {
  static CheckpointCounters instance;
  return instance;
}

// The little-endian field stream itself lives in util/byte_stream.hpp and is
// shared with the persistent evaluation store; a ByteStreamError thrown while
// decoding is converted to CheckpointError at the decode_checkpoint boundary
// (with the error message preserved, including the "checkpoint payload"
// context prefix).

using Writer = util::ByteWriter;
using Reader = util::ByteReader;

Reader payload_reader(std::span<const std::uint8_t> payload) {
  return Reader(payload, "checkpoint payload");
}

// --- Per-type encode / decode -----------------------------------------------

void put(Writer& out, const TrajectoryOptions& options) {
  out.u64(options.population);
  out.u64(options.offspring);
  out.u64(options.generations);
  out.u64(options.seed);
  out.u8(options.optimize_service);
  out.u8(options.decoder_allow_dropping);
  out.u32(options.technique_restriction);
  out.u32(options.analysis_mode);
  out.u32(options.priority_policy);
}

TrajectoryOptions get_options(Reader& in) {
  TrajectoryOptions options;
  options.population = in.u64();
  options.offspring = in.u64();
  options.generations = in.u64();
  options.seed = in.u64();
  options.optimize_service = in.u8();
  options.decoder_allow_dropping = in.u8();
  options.technique_restriction = in.u32();
  options.analysis_mode = in.u32();
  options.priority_policy = in.u32();
  return options;
}

void put(Writer& out, const Chromosome& chromosome) {
  out.bytes8(chromosome.allocation);
  out.bytes8(chromosome.keep);
  out.size(chromosome.tasks.size());
  for (const TaskGenes& genes : chromosome.tasks) {
    out.u8(static_cast<std::uint8_t>(genes.technique));
    out.u8(genes.reexec);
    out.u8(genes.active_n);
    out.u32(genes.base_pe);
    for (std::uint16_t pe : genes.replica_pe) out.u32(pe);
    out.u32(genes.voter_pe);
  }
}

Chromosome get_chromosome(Reader& in) {
  Chromosome chromosome;
  chromosome.allocation = in.bytes8();
  chromosome.keep = in.bytes8();
  const std::size_t tasks = in.length(3 + 6 * 4);
  chromosome.tasks.resize(tasks);
  for (TaskGenes& genes : chromosome.tasks) {
    genes.technique = static_cast<TechniqueGene>(in.u8());
    genes.reexec = in.u8();
    genes.active_n = in.u8();
    genes.base_pe = static_cast<std::uint16_t>(in.u32());
    for (std::uint16_t& pe : genes.replica_pe)
      pe = static_cast<std::uint16_t>(in.u32());
    genes.voter_pe = static_cast<std::uint16_t>(in.u32());
  }
  return chromosome;
}

// Candidate and Evaluation codecs are shared with the persistent evaluation
// store (ftmc/core/serialize.{hpp,cpp}); the byte layout is unchanged.

void put(Writer& out, const Individual& individual) {
  put(out, individual.chromosome);
  core::write_candidate(out, individual.candidate);
  core::write_evaluation(out, individual.evaluation);
  out.size(individual.objectives.size());
  for (double value : individual.objectives) out.f64(value);
}

Individual get_individual(Reader& in) {
  Individual individual;
  individual.chromosome = get_chromosome(in);
  individual.candidate = core::read_candidate(in);
  individual.evaluation = core::read_evaluation(in);
  const std::size_t objectives = in.length(8);
  individual.objectives.resize(objectives);
  for (double& value : individual.objectives) value = in.f64();
  return individual;
}

void put(Writer& out, const GenerationStats& stats) {
  out.size(stats.generation);
  out.size(stats.feasible_in_archive);
  out.f64(stats.best_feasible_power);
  out.size(stats.evaluations);
  out.size(stats.cache_hits);
  out.size(stats.cache_misses);
  out.f64(stats.cache_hit_rate);
  out.size(stats.scenarios_analyzed);
  out.size(stats.scenario_solves);
  out.f64(stats.scenarios_per_second);
  out.f64(stats.evaluation_seconds);
  out.f64(stats.eval_p50_us);
  out.f64(stats.eval_p95_us);
  out.f64(stats.eval_max_us);
}

GenerationStats get_stats(Reader& in) {
  GenerationStats stats;
  stats.generation = static_cast<std::size_t>(in.u64());
  stats.feasible_in_archive = static_cast<std::size_t>(in.u64());
  stats.best_feasible_power = in.f64();
  stats.evaluations = static_cast<std::size_t>(in.u64());
  stats.cache_hits = static_cast<std::size_t>(in.u64());
  stats.cache_misses = static_cast<std::size_t>(in.u64());
  stats.cache_hit_rate = in.f64();
  stats.scenarios_analyzed = static_cast<std::size_t>(in.u64());
  stats.scenario_solves = static_cast<std::size_t>(in.u64());
  stats.scenarios_per_second = in.f64();
  stats.evaluation_seconds = in.f64();
  stats.eval_p50_us = in.f64();
  stats.eval_p95_us = in.f64();
  stats.eval_max_us = in.f64();
  return stats;
}

std::uint64_t payload_digest(std::span<const std::uint8_t> payload) {
  return util::fnv1a_bytes(payload);
}

}  // namespace

TrajectoryOptions TrajectoryOptions::of(const GaOptions& options) {
  TrajectoryOptions t;
  t.population = options.population;
  t.offspring = options.offspring;
  t.generations = options.generations;
  t.seed = options.seed;
  t.optimize_service = options.optimize_service ? 1 : 0;
  t.decoder_allow_dropping = options.decoder.allow_dropping ? 1 : 0;
  t.technique_restriction =
      static_cast<std::uint32_t>(options.decoder.restriction);
  t.analysis_mode = static_cast<std::uint32_t>(options.evaluator.mode);
  t.priority_policy = static_cast<std::uint32_t>(options.evaluator.policy);
  return t;
}

std::string TrajectoryOptions::mismatch(const TrajectoryOptions& other) const {
  if (population != other.population) return "population";
  if (offspring != other.offspring) return "offspring";
  if (generations != other.generations) return "generations";
  if (seed != other.seed) return "seed";
  if (optimize_service != other.optimize_service) return "optimize_service";
  if (decoder_allow_dropping != other.decoder_allow_dropping)
    return "decoder.allow_dropping";
  if (technique_restriction != other.technique_restriction)
    return "decoder.restriction";
  if (analysis_mode != other.analysis_mode) return "evaluator.mode";
  if (priority_policy != other.priority_policy) return "evaluator.policy";
  return {};
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& checkpoint) {
  Writer body;
  put(body, checkpoint.options);
  body.u64(checkpoint.generation);
  body.u8(checkpoint.finished);
  body.u64(checkpoint.evaluations);
  body.f64(checkpoint.best_feasible_power);
  for (std::uint64_t word : checkpoint.master.words) body.u64(word);
  body.size(checkpoint.archive.size());
  for (const Individual& individual : checkpoint.archive)
    put(body, individual);
  body.size(checkpoint.history.size());
  for (const GenerationStats& stats : checkpoint.history) put(body, stats);
  const std::vector<std::uint8_t> payload = body.take();

  Writer header;
  for (char c : kCheckpointMagic)
    header.u8(static_cast<std::uint8_t>(c));
  header.u32(kCheckpointVersion);
  header.u32(0);  // reserved
  header.u64(payload.size());
  header.u64(payload_digest(payload));
  std::vector<std::uint8_t> bytes = header.take();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

Checkpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;
  if (bytes.size() < kHeaderSize)
    throw CheckpointError("checkpoint is truncated: " +
                          std::to_string(bytes.size()) +
                          " bytes is shorter than the 32-byte header");
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof kCheckpointMagic) !=
      0)
    throw CheckpointError(
        "not an ftmc checkpoint: magic bytes are not \"FTMCCKPT\"");
  Reader header(bytes.subspan(8, kHeaderSize - 8));
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion)
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version) + " (this build reads v" +
                          std::to_string(kCheckpointVersion) + ")");
  if (const std::uint32_t reserved = header.u32(); reserved != 0)
    throw CheckpointError("checkpoint header has reserved field " +
                          std::to_string(reserved) + ", expected 0");
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t expected_digest = header.u64();
  if (payload_size > bytes.size() - kHeaderSize)
    throw CheckpointError(
        "checkpoint is truncated: header declares a " +
        std::to_string(payload_size) + "-byte payload but only " +
        std::to_string(bytes.size() - kHeaderSize) + " bytes follow");
  // Trailing bytes beyond the declared payload are ignored (reserved for
  // extensions appended by future writers).
  const std::span<const std::uint8_t> payload =
      bytes.subspan(kHeaderSize, static_cast<std::size_t>(payload_size));
  if (payload_digest(payload) != expected_digest)
    throw CheckpointError(
        "checkpoint payload checksum mismatch: the file is corrupted");

  try {
    Reader in = payload_reader(payload);
    Checkpoint checkpoint;
    checkpoint.options = get_options(in);
    checkpoint.generation = in.u64();
    checkpoint.finished = in.u8();
    checkpoint.evaluations = in.u64();
    checkpoint.best_feasible_power = in.f64();
    for (std::uint64_t& word : checkpoint.master.words) word = in.u64();
    const std::size_t archive = in.length(1);
    checkpoint.archive.reserve(archive);
    for (std::size_t i = 0; i < archive; ++i)
      checkpoint.archive.push_back(get_individual(in));
    const std::size_t history = in.length(13 * 8);
    checkpoint.history.reserve(history);
    for (std::size_t i = 0; i < history; ++i)
      checkpoint.history.push_back(get_stats(in));
    return checkpoint;
  } catch (const util::ByteStreamError& error) {
    throw CheckpointError(error.what());
  }
}

void save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  util::rotate_files(path, kCheckpointKeep);
  util::write_file_atomic(path, bytes);
  counters().writes.add(1);
  counters().bytes.add(bytes.size());
}

Checkpoint load_checkpoint(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = util::read_file(path);
  } catch (const std::exception& error) {
    counters().rejected.add(1);
    throw CheckpointError(error.what());
  }
  try {
    Checkpoint checkpoint = decode_checkpoint(bytes);
    counters().loads.add(1);
    return checkpoint;
  } catch (const CheckpointError&) {
    counters().rejected.add(1);
    throw;
  }
}

void verify_resume_options(const TrajectoryOptions& current,
                           const TrajectoryOptions& snapshot) {
  const std::string field = current.mismatch(snapshot);
  if (field.empty()) return;
  counters().rejected.add(1);
  throw CheckpointError(
      "cannot resume: option '" + field +
      "' differs from the checkpointed run (the snapshot pins the "
      "trajectory; rerun with matching options or start a fresh run)");
}

}  // namespace ftmc::dse
