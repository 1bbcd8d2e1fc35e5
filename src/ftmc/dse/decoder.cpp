#include "ftmc/dse/decoder.hpp"

#include <algorithm>

#include "ftmc/hardening/reliability.hpp"

namespace ftmc::dse {

Decoder::Decoder(const model::Architecture& arch,
                 const model::ApplicationSet& apps)
    : arch_(&arch),
      apps_(&apps),
      options_(),
      shape_(ChromosomeShape::of(arch, apps)) {}

Decoder::Decoder(const model::Architecture& arch,
                 const model::ApplicationSet& apps, Options options)
    : arch_(&arch),
      apps_(&apps),
      options_(options),
      shape_(ChromosomeShape::of(arch, apps)) {}

namespace {

std::vector<std::uint16_t> allocated_pes(const Chromosome& chromosome) {
  std::vector<std::uint16_t> result;
  for (std::uint16_t p = 0; p < chromosome.allocation.size(); ++p)
    if (chromosome.allocation[p]) result.push_back(p);
  return result;
}

std::uint16_t random_of(const std::vector<std::uint16_t>& pes,
                        util::Rng& rng) {
  return pes[rng.index(pes.size())];
}

}  // namespace

void Decoder::repair_allocation(Chromosome& chromosome,
                                util::Rng& rng) const {
  if (std::none_of(chromosome.allocation.begin(), chromosome.allocation.end(),
                   [](std::uint8_t bit) { return bit != 0; })) {
    chromosome.allocation[rng.index(chromosome.allocation.size())] = 1;
  }
}

void Decoder::repair_mapping(Chromosome& chromosome, util::Rng& rng) const {
  const std::vector<std::uint16_t> pes = allocated_pes(chromosome);
  auto legalize = [&](std::uint16_t& pe) {
    if (!chromosome.allocation[pe]) pe = random_of(pes, rng);
  };

  for (std::size_t flat = 0; flat < chromosome.tasks.size(); ++flat) {
    TaskGenes& genes = chromosome.tasks[flat];
    const model::Task& task = apps_->task(apps_->task_ref(flat));

    // Hardening-space restrictions (ablation runs).
    if (options_.restriction == TechniqueRestriction::kReexecutionOnly &&
        (genes.technique == TechniqueGene::kActive ||
         genes.technique == TechniqueGene::kPassive)) {
      genes.technique = TechniqueGene::kReexecution;
    } else if (options_.restriction ==
                   TechniqueRestriction::kReplicationOnly &&
               genes.technique == TechniqueGene::kReexecution) {
      genes.technique = task.voting_overhead > 0 ? TechniqueGene::kActive
                                                 : TechniqueGene::kNone;
      genes.active_n = 3;
    }

    // Replication requires a voter model; fall back to re-execution for
    // tasks without one.
    if ((genes.technique == TechniqueGene::kActive ||
         genes.technique == TechniqueGene::kPassive) &&
        task.voting_overhead <= 0) {
      genes.technique =
          options_.restriction == TechniqueRestriction::kReplicationOnly
              ? TechniqueGene::kNone
              : TechniqueGene::kReexecution;
    }

    legalize(genes.base_pe);
    for (auto& pe : genes.replica_pe) legalize(pe);
    legalize(genes.voter_pe);

    // Spread replicas over distinct allocated PEs where possible (fault
    // independence); duplicates remain when the allocation is too small.
    const std::size_t slots = genes.technique == TechniqueGene::kPassive
                                  ? kReplicaSlots
                                  : genes.active_n;
    for (std::size_t s = 1; s < slots; ++s) {
      const bool duplicate =
          std::any_of(genes.replica_pe.begin(), genes.replica_pe.begin() + s,
                      [&](std::uint16_t pe) {
                        return pe == genes.replica_pe[s];
                      });
      if (!duplicate) continue;
      std::vector<std::uint16_t> unused;
      for (std::uint16_t pe : pes) {
        if (std::find(genes.replica_pe.begin(), genes.replica_pe.begin() + s,
                      pe) == genes.replica_pe.begin() + s)
          unused.push_back(pe);
      }
      if (!unused.empty()) genes.replica_pe[s] = random_of(unused, rng);
    }
  }
}

core::Candidate Decoder::translate(const Chromosome& chromosome) const {
  core::Candidate candidate;
  candidate.allocation.assign(chromosome.allocation.begin(),
                              chromosome.allocation.end());
  candidate.drop.resize(shape_.graphs);
  for (std::uint32_t g = 0; g < shape_.graphs; ++g) {
    const bool droppable = apps_->graph(model::GraphId{g}).droppable();
    candidate.drop[g] = options_.allow_dropping && droppable &&
                        chromosome.keep[g] == 0;
  }
  candidate.plan.resize(shape_.tasks);
  candidate.base_mapping.resize(shape_.tasks);
  for (std::size_t flat = 0; flat < shape_.tasks; ++flat) {
    const TaskGenes& genes = chromosome.tasks[flat];
    hardening::TaskHardening& decision = candidate.plan[flat];
    candidate.base_mapping[flat] = model::ProcessorId{genes.base_pe};
    switch (genes.technique) {
      case TechniqueGene::kNone:
        decision = {};
        break;
      case TechniqueGene::kReexecution:
        decision = {};
        decision.technique = hardening::Technique::kReexecution;
        decision.reexecutions = genes.reexec;
        break;
      case TechniqueGene::kActive: {
        decision = {};
        decision.technique = hardening::Technique::kActiveReplication;
        decision.replica_pes.clear();
        for (std::size_t s = 0; s < genes.active_n; ++s)
          decision.replica_pes.push_back(
              model::ProcessorId{genes.replica_pe[s]});
        decision.voter_pe = model::ProcessorId{genes.voter_pe};
        break;
      }
      case TechniqueGene::kPassive: {
        decision = {};
        decision.technique = hardening::Technique::kPassiveReplication;
        decision.replica_pes.clear();
        for (std::size_t s = 0; s < kReplicaSlots; ++s)
          decision.replica_pes.push_back(
              model::ProcessorId{genes.replica_pe[s]});
        decision.voter_pe = model::ProcessorId{genes.voter_pe};
        break;
      }
    }
  }
  return candidate;
}

void Decoder::repair_reliability(Chromosome& chromosome,
                                 util::Rng& rng) const {
  const std::vector<std::uint16_t> pes = allocated_pes(chromosome);
  for (std::size_t attempt = 0; attempt < kReliabilityRepairAttempts;
       ++attempt) {
    const core::Candidate candidate = translate(chromosome);
    const hardening::ReliabilityReport report = hardening::check_reliability(
        *arch_, *apps_, candidate.plan, candidate.base_mapping);
    if (report.all_satisfied) return;

    // Minimal escalation towards the constraint, following the paper's
    // randomized heuristic but preferring the cheapest step first:
    //  1. harden the graph's still-unhardened tasks (random technique,
    //     biased to re-execution with k = 1 — replication triples the
    //     schedule load and its voter adds a failure floor);
    //  2. only once everything is hardened, bump one random task's
    //     re-execution degree.
    // Unbounded k escalation quickly makes the critical state
    // unschedulable, so the repair never raises k when unhardened tasks
    // remain.
    for (std::uint32_t g = 0; g < shape_.graphs; ++g) {
      if (report.satisfied[g]) continue;
      const model::TaskGraph& graph = apps_->graph(model::GraphId{g});

      std::vector<std::uint32_t> unhardened;
      for (std::uint32_t v = 0; v < graph.task_count(); ++v)
        if (chromosome.tasks[apps_->flat_index({g, v})].technique ==
            TechniqueGene::kNone)
          unhardened.push_back(v);

      const bool reexec_allowed =
          options_.restriction != TechniqueRestriction::kReplicationOnly;
      const bool replication_allowed =
          options_.restriction != TechniqueRestriction::kReexecutionOnly;

      if (!unhardened.empty()) {
        const std::uint32_t v = unhardened[rng.index(unhardened.size())];
        const std::size_t flat = apps_->flat_index({g, v});
        TaskGenes& genes = chromosome.tasks[flat];
        const bool can_replicate =
            replication_allowed &&
            apps_->task(apps_->task_ref(flat)).voting_overhead > 0;
        if (!can_replicate && !reexec_allowed) continue;  // unrepairable
        const double roll = rng.uniform_real();
        if (!can_replicate || (reexec_allowed && roll < 0.8)) {
          genes.technique = TechniqueGene::kReexecution;
          genes.reexec = 1;
        } else if (roll < 0.9) {
          genes.technique = TechniqueGene::kActive;
          genes.active_n = 3;
        } else {
          genes.technique = TechniqueGene::kPassive;
        }
        continue;
      }

      if (!reexec_allowed) continue;  // replication offers no escalation
      const std::uint32_t v =
          static_cast<std::uint32_t>(rng.index(graph.task_count()));
      TaskGenes& genes = chromosome.tasks[apps_->flat_index({g, v})];
      genes.technique = TechniqueGene::kReexecution;
      genes.reexec = static_cast<std::uint8_t>(
          std::min<int>(genes.reexec + 1, kMaxReexecGene));
    }
    // New replica constellations may need the mapping legalized again.
    repair_mapping(chromosome, rng);
  }
}

core::Candidate Decoder::decode(Chromosome& chromosome,
                                util::Rng& rng) const {
  if (!shape_ok(chromosome, shape_))
    throw std::invalid_argument("Decoder::decode: malformed chromosome");
  if (!options_.allow_dropping)
    std::fill(chromosome.keep.begin(), chromosome.keep.end(),
              std::uint8_t{1});
  repair_allocation(chromosome, rng);
  repair_mapping(chromosome, rng);
  repair_reliability(chromosome, rng);
  return translate(chromosome);
}

}  // namespace ftmc::dse
