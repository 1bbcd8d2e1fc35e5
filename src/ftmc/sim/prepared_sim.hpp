// Prepared simulation kernel: build the static problem once, run N times.
//
// Monte-Carlo fault injection, the Adhoc estimator, and the Table-2 safety
// experiments all simulate ONE fixed candidate (arch, hardened system, drop
// set, priorities) under MANY fault/execution-time realizations.  The
// original Simulator::run() rebuilt every static table — message specs, flat
// node/period/edge arrays, the whole job table — and re-allocated the event
// queue, the per-PE ready sets, and the full trace on every call.
// PreparedSim hoists everything derivable from the candidate into a
// build-once object, mirroring sched::PreparedProblem:
//
//   - flat node tables (period, PE, exec bounds, priority, role, attempts);
//   - CSR out-edge lists (tasks + bus message nodes, legacy edge order);
//   - the job table skeleton (per-node job bases, release times) and the
//     initial event-heap contents (hyperperiod boundaries + root releases);
//   - per-standby primary lists and per-voter replica lists, so standby
//     activation and the voter verdict index straight into the replicas of
//     their origin instead of scanning all tasks;
//   - per-hyperperiod lists of dropped-application jobs, so critical-state
//     entry cancels only candidates instead of scanning the job table.
//
// run(faults, durations, options, scratch) is re-entrant and allocation-free
// once the caller-owned Scratch has grown to the problem size: job slots are
// epoch-stamped (reset is a counter bump, not a clear), the event queue is a
// flat binary heap on a reused vector, the per-PE ready queues are flat
// lazy-deletion heaps, and the SimResult vectors are recycled.  The
// TraceLevel option controls how much output is materialized — at
// kResponses (the Monte-Carlo setting) no job records, segments, or
// per-instance responses are built at all.
//
// Determinism and identity: the event comparator (time, kind, seq) is a
// total order — seq numbers are unique and assigned in the legacy order —
// so the flat heap pops the exact event sequence the legacy
// std::priority_queue popped, and every output field is bit-identical to
// the seed simulator (kept as the test-only oracle in
// tests/oracle/reference_sim.hpp) at every trace level
// (tests/test_sim_kernel.cpp).  A PreparedSim is immutable after
// construction: concurrent run() calls only need distinct Scratch.
#pragma once

#include <cstdint>
#include <vector>

#include "ftmc/core/mc_analysis.hpp"
#include "ftmc/hardening/hardening.hpp"
#include "ftmc/sched/analysis.hpp"
#include "ftmc/sim/models.hpp"
#include "ftmc/sim/trace.hpp"

namespace ftmc::sim {

/// Structure-determining parameters, fixed at prepare time: they change the
/// node/job tables, not just the run.
struct PrepareOptions {
  /// Number of hyperperiods to simulate (sets the job-table size).
  std::size_t hyperperiods = 1;
  /// Model the fabric as one shared preemptable bus: remote transfers
  /// become jobs on a bus pseudo-PE at their producer's priority.  Must
  /// match the analysis-side option for the safety relation to hold.
  bool bus_contention = false;
};

/// Per-run parameters: vary freely across run() calls on one PreparedSim.
struct RunOptions {
  /// Hard cap on processed events (throws std::runtime_error beyond).
  std::size_t max_events = 50'000'000;
  /// Enter the critical state at time 0 (the "Adhoc" estimator setting).
  bool start_in_critical_state = false;
  /// How much trace output to materialize (simulation itself is identical).
  TraceLevel trace = TraceLevel::kFull;
};

class PreparedSim {
 public:
  enum class EventKind : std::uint8_t {
    kHyperperiodBoundary = 0,
    kRelease = 1,
    kDelivery = 2,
  };

  /// (kind, seq) packed into one word: kind in the top byte, the unique
  /// sequence number below.  A single integer compare then orders events
  /// exactly like the legacy (kind, seq) tie-break.
  static constexpr std::uint64_t event_key(EventKind kind,
                                           std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(kind) << 56) | seq;
  }

  struct Event {
    model::Time time;
    std::uint64_t key;  ///< event_key(kind, seq)
    std::size_t job;    ///< unused for boundaries

    EventKind kind() const noexcept {
      return static_cast<EventKind>(key >> 56);
    }
  };

  /// Caller-owned run state.  Buffers grow on first use against a problem
  /// and keep their capacity, so reusing one Scratch across runs (and across
  /// PreparedSims) makes the steady-state allocation count zero.
  struct Scratch {
    /// Mutable per-job state; `epoch` stamps which run last touched a slot,
    /// so a run resets the table by bumping `Scratch::epoch` instead of
    /// rewriting every slot.
    struct JobSlot {
      std::uint64_t epoch = 0;
      model::Time remaining = 0;
      model::Time ready_time = -1;
      model::Time start_time = -1;
      model::Time finish_time = -1;
      int pending_inputs = 0;
      int attempts = 0;
      JobState state = JobState::kWaiting;
      bool result_faulty = false;
      bool in_ready_set = false;
    };

    struct PeSlot {
      std::size_t running = SIZE_MAX;
      model::Time segment_start = 0;
      /// Min-heap of (priority rank, job id) with lazy deletion: an entry is
      /// live iff its job's in_ready_set flag is still set (critical-state
      /// cancellation only clears the flag; ghosts are purged on access).
      std::vector<std::pair<std::uint64_t, std::size_t>> ready;
    };

    std::vector<JobSlot> jobs;
    std::vector<PeSlot> pes;
    /// Absolute completion instant of each PE's running attempt (kNever =
    /// idle); the time-advance scan reads this flat array instead of
    /// decrementing per-job remaining work every iteration.
    std::vector<model::Time> completion;
    /// PEs whose running/ready state changed since their last dispatch;
    /// only these are re-examined at the end of an iteration.
    std::vector<std::uint8_t> dispatch_pending;
    std::vector<Event> heap;                 ///< flat binary event heap
    /// Same-instant events raised while processing the current instant.
    /// Any such event is a delivery whose (kind, seq) rank is after every
    /// heap entry at that instant, so a FIFO pass after the heap drain
    /// replays the exact heap order without the push/pop_heap traffic.
    std::vector<Event> deferred;
    std::vector<ExecSegment> raw_segments;   ///< internal job ids (kFull)
    std::vector<std::size_t> public_index;   ///< internal -> public job id
    SimResult result;
    std::uint64_t epoch = 0;
  };

  /// Builds every bounds-independent table.  arch and system are borrowed
  /// and must outlive this object; drop and priorities are copied.  Throws
  /// std::invalid_argument on shape mismatches, exactly like the legacy
  /// Simulator constructor.
  PreparedSim(const model::Architecture& arch,
              const hardening::HardenedSystem& system, core::DropSet drop,
              std::vector<std::uint32_t> priorities,
              const PrepareOptions& options = {});

  /// One simulation run against caller-owned scratch.  Returns a reference
  /// to scratch.result (valid until the scratch's next run).  Thread-safe:
  /// `this` is immutable after construction; concurrent callers need
  /// distinct Scratch (the fault/exec models are per-caller anyway).
  const SimResult& run(FaultModel& faults, ExecTimeModel& durations,
                       const RunOptions& options, Scratch& scratch) const;

  /// Application tasks (trace records cover exactly these).
  std::size_t task_count() const noexcept { return n_tasks_; }
  /// Tasks plus bus message nodes.
  std::size_t node_count() const noexcept { return total_; }
  /// Jobs in the simulated horizon (all nodes, all releases).
  std::size_t job_count() const noexcept { return job_flat_.size(); }

  /// Per-worker scratch arena, reused by every run() this thread issues on
  /// any PreparedSim — across profiles, candidates, and campaigns.
  static Scratch& thread_scratch();

 private:
  struct OutEdge {
    std::size_t dst;
    model::Time delay;
  };

  const model::Architecture* arch_;
  const hardening::HardenedSystem* system_;
  core::DropSet drop_;

  std::size_t n_tasks_ = 0;  ///< application tasks
  std::size_t total_ = 0;    ///< tasks + message nodes
  std::size_t pe_count_ = 0; ///< PEs incl. the bus pseudo-PE if present
  std::size_t hyperperiods_ = 1;
  model::Time hyper_ = 0;
  model::Time sim_end_ = 0;

  // Per-node tables (size total_).
  std::vector<model::Time> period_;
  std::vector<std::size_t> pe_of_;
  std::vector<sched::ExecBounds> bounds_;
  std::vector<int> max_attempts_;
  std::vector<std::uint32_t> graph_of_;
  std::vector<std::uint64_t> node_prio_;
  std::vector<std::size_t> message_src_;  ///< SIZE_MAX for task nodes
  std::vector<hardening::TaskRole> role_;
  std::vector<int> reexecutions_;
  std::vector<int> in_degree_;

  // CSR out-edges in the legacy insertion order (delivery seq order).
  std::vector<std::size_t> out_begin_;  ///< size total_ + 1
  std::vector<OutEdge> out_edges_;

  /// Standby -> active replicas of its origin (activation decision).
  std::vector<std::vector<std::size_t>> primaries_of_;
  /// Voter -> all replicas of its origin (verdict inputs).
  std::vector<std::vector<std::size_t>> voter_replicas_;

  // Job table skeleton.
  std::vector<std::size_t> job_base_;      ///< size total_
  std::vector<std::size_t> job_flat_;      ///< per job
  std::vector<std::size_t> job_instance_;  ///< per job
  std::vector<model::Time> job_release_;   ///< per job

  /// Per hyperperiod h: jobs of dropped applications released inside
  /// [h*hyper, (h+1)*hyper), ascending job id — the only cancellation
  /// candidates on critical-state entry.
  std::vector<std::vector<std::size_t>> dropped_jobs_;

  /// Per-graph finalize table: everything the end-of-run response scan
  /// needs, so finalize touches no ApplicationSet accessors (flat_index,
  /// graph(), sinks() are out-of-line calls on the seed's per-run path).
  struct GraphMeta {
    model::Time period;
    model::Time deadline;
    std::size_t instances;   ///< graph releases inside the horizon
    std::size_t sink_begin;  ///< [begin, end) into sink_job_base_
    std::size_t sink_end;
  };
  std::vector<GraphMeta> graph_meta_;
  /// job_base_ of each graph's sink tasks (sink job id = base + instance).
  std::vector<std::size_t> sink_job_base_;

  /// Event-heap contents at time zero (boundaries + root releases) and the
  /// first free sequence number after them.
  std::vector<Event> initial_events_;
  std::uint64_t initial_seq_ = 0;

  bool is_message(std::size_t node) const noexcept {
    return node >= n_tasks_;
  }
  std::size_t job_id(std::size_t flat, std::size_t instance) const noexcept {
    return job_base_[flat] + instance;
  }
};

}  // namespace ftmc::sim
