#include "ftmc/sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "ftmc/sim/prepared_sim.hpp"

namespace ftmc::sim {

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kWaiting: return "waiting";
    case JobState::kReady: return "ready";
    case JobState::kFinished: return "finished";
    case JobState::kCancelled: return "cancelled";
    case JobState::kSkipped: return "skipped";
  }
  return "?";
}

Simulator::Simulator(const model::Architecture& arch,
                     const hardening::HardenedSystem& system,
                     core::DropSet drop,
                     std::vector<std::uint32_t> priorities)
    : arch_(&arch),
      system_(&system),
      drop_(std::move(drop)),
      priorities_(std::move(priorities)) {
  core::validate_drop_set(system.apps, drop_);
  if (priorities_.size() != system.apps.task_count())
    throw std::invalid_argument("Simulator: priorities size mismatch");
  if (!system.mapping.within(arch.processor_count()))
    throw std::invalid_argument("Simulator: mapping out of range");
}

SimResult Simulator::run(FaultModel& faults, ExecTimeModel& durations,
                         const SimOptions& options) const {
  // Thin adapter over the prepared kernel: one prepare, one fresh scratch.
  const PreparedSim prepared(
      *arch_, *system_, drop_, priorities_,
      PrepareOptions{options.hyperperiods, options.bus_contention});
  PreparedSim::Scratch scratch;
  prepared.run(faults, durations,
               RunOptions{options.max_events, options.start_in_critical_state,
                          options.trace},
               scratch);
  return std::move(scratch.result);
}

}  // namespace ftmc::sim
