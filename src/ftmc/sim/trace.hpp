// Simulation output: per-job records, per-PE execution segments (for Gantt
// rendering), and per-graph observed response times.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ftmc/model/application_set.hpp"
#include "ftmc/model/architecture.hpp"
#include "ftmc/model/ids.hpp"
#include "ftmc/model/time.hpp"

namespace ftmc::sim {

enum class JobState : std::uint8_t {
  kWaiting,    ///< inputs not yet available (only transiently / deadlock)
  kReady,      ///< dispatched or queued
  kFinished,   ///< completed all attempts
  kCancelled,  ///< dropped with its application in the critical state
  kSkipped,    ///< passive standby that was never activated
};

const char* to_string(JobState state) noexcept;

/// How much of the trace a simulation run materializes.  The simulation
/// itself (event order, fault decisions, response times) is identical at
/// every level; lower levels only skip building output vectors.
enum class TraceLevel : std::uint8_t {
  /// Aggregates only: graph_response, responses-free deadline_miss,
  /// unsafe_result, critical_entry, events.  `jobs`, `segments`, and
  /// `responses` stay empty — the Monte-Carlo profile setting.
  kResponses,
  /// Adds per-job records and per-instance responses (no segments).
  kJobs,
  /// Everything, including per-PE execution segments (Gantt rendering).
  kFull,
};

/// One job = one release of one task of T'.
struct JobRecord {
  std::size_t flat_task = 0;
  std::size_t instance = 0;      ///< release index of its graph
  model::Time release_time = 0;
  model::Time ready_time = -1;
  model::Time start_time = -1;   ///< first dispatch (-1 if never ran)
  model::Time finish_time = -1;
  int attempts = 0;              ///< executions performed (re-executions + 1)
  bool result_faulty = false;    ///< fault survived all hardening
  JobState state = JobState::kWaiting;
};

/// Contiguous execution of one job on one PE (preemption splits segments).
struct ExecSegment {
  model::ProcessorId pe;
  std::size_t job = 0;  ///< index into SimResult::jobs
  model::Time from = 0;
  model::Time to = 0;
};

/// Response-time observation of one graph instance.
struct InstanceResponse {
  model::GraphId graph;
  std::size_t instance = 0;
  model::Time release_time = 0;
  model::Time response = -1;  ///< -1 if the instance was dropped
  bool deadline_met = true;
};

struct SimResult {
  std::vector<JobRecord> jobs;
  std::vector<ExecSegment> segments;
  std::vector<InstanceResponse> responses;
  /// Time of the first critical-state entry per hyperperiod (-1: none).
  std::vector<model::Time> critical_entry;
  /// Max observed response per graph over non-dropped instances (-1 if all
  /// instances were dropped).
  std::vector<model::Time> graph_response;
  /// Any non-dropped instance missed its deadline.
  bool deadline_miss = false;
  /// Any task's hardening was exhausted by faults (unsafe result).
  bool unsafe_result = false;
  /// Release/delivery/boundary events processed by the kernel's event loop
  /// (the unit `SimOptions::max_events` budgets).
  std::size_t events = 0;

  model::Time response_of(model::GraphId graph) const {
    return graph_response.at(graph.value);
  }
};

/// Renders an ASCII Gantt chart of the first `span` time units (one row per
/// PE, one column per `resolution` time units).  Used by the motivational
/// example and debugging.
void render_gantt(std::ostream& os, const model::Architecture& arch,
                  const model::ApplicationSet& apps, const SimResult& result,
                  model::Time span, model::Time resolution);

}  // namespace ftmc::sim
