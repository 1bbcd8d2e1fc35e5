// Reference trace simulator for the differential tests: the original
// monolithic Simulator::run() preserved verbatim (modulo the `events`
// output counter).
//
// The production path is the prepared kernel (ftmc/sim/prepared_sim.hpp);
// this copy exists so tests/test_sim_kernel.cpp compares the kernel
// against the code it replaced rather than against itself.  It rebuilds
// every static table per call, allocates freely, and always materializes
// the full trace (SimOptions::trace is ignored — output is
// TraceLevel::kFull).  Slow by design; never link it into a shipped
// target.
#pragma once

#include <cstdint>
#include <vector>

#include "ftmc/sim/simulator.hpp"

namespace ftmc::oracle {

/// One full simulation run, legacy style: validate, build all tables, run,
/// materialize the complete trace.  Semantics and output are bit-identical
/// to sim::PreparedSim::run at TraceLevel::kFull.
sim::SimResult simulate(const model::Architecture& arch,
                        const hardening::HardenedSystem& system,
                        const core::DropSet& drop,
                        const std::vector<std::uint32_t>& priorities,
                        sim::FaultModel& faults,
                        sim::ExecTimeModel& durations,
                        const sim::SimOptions& options = {});

}  // namespace ftmc::oracle
