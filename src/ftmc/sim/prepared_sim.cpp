#include "ftmc/sim/prepared_sim.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "ftmc/core/exec_model.hpp"
#include "ftmc/hardening/reliability.hpp"
#include "ftmc/obs/metrics.hpp"
#include "ftmc/obs/trace.hpp"

namespace ftmc::sim {

namespace {

constexpr model::Time kNever = std::numeric_limits<model::Time>::max();

/// Event-loop counters: tallied in plain locals during a run and flushed
/// once at the end, so the loop's control flow and output stay bitwise
/// identical whether anyone is watching or not.
struct SimCounters {
  obs::Counter runs{"sim.runs"};
  obs::Counter events{"sim.events"};
  obs::Counter heap_pushes{"sim.heap_pushes"};
  obs::Counter heap_pops{"sim.heap_pops"};
  obs::Counter dispatch_wakeups{"sim.dispatch_wakeups"};
  obs::Counter replica_activations{"sim.replica_activations"};
  obs::Counter preemptions{"sim.preemptions"};
};

SimCounters& sim_counters() {
  static SimCounters counters;
  return counters;
}

/// Execution-time bounds of a single attempt on the task's PE (scaled).
sched::ExecBounds attempt_bounds(const model::Task& task,
                                 const hardening::HardenedTaskInfo& info,
                                 const model::Processor& pe) {
  model::Time bcet = task.bcet;
  model::Time wcet = task.wcet;
  if (info.pays_detection) {
    bcet += task.detection_overhead;
    wcet += task.detection_overhead;
  }
  return {hardening::scaled_time(pe, bcet), hardening::scaled_time(pe, wcet)};
}

/// The legacy event order: (time, kind, seq), with (kind, seq) packed into
/// one key word.  seq numbers are unique, so this is a total order — any
/// correct heap pops the exact same sequence the legacy std::priority_queue
/// did.
struct EventGreater {
  bool operator()(const PreparedSim::Event& a,
                  const PreparedSim::Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.key > b.key;
  }
};

}  // namespace

PreparedSim::PreparedSim(const model::Architecture& arch,
                         const hardening::HardenedSystem& system,
                         core::DropSet drop,
                         std::vector<std::uint32_t> priorities,
                         const PrepareOptions& options)
    : arch_(&arch), system_(&system), drop_(std::move(drop)) {
  core::validate_drop_set(system.apps, drop_);
  if (priorities.size() != system.apps.task_count())
    throw std::invalid_argument("PreparedSim: priorities size mismatch");
  if (!system.mapping.within(arch.processor_count()))
    throw std::invalid_argument("PreparedSim: mapping out of range");
  if (options.hyperperiods == 0)
    throw std::invalid_argument("PreparedSim: hyperperiods must be positive");

  const model::ApplicationSet& apps = system.apps;
  n_tasks_ = apps.task_count();
  hyperperiods_ = options.hyperperiods;
  hyper_ = apps.hyperperiod();
  if (hyper_ > 0 &&
      hyperperiods_ > static_cast<std::uint64_t>(
                          std::numeric_limits<model::Time>::max() / hyper_))
    throw std::invalid_argument(
        "PreparedSim: " + std::to_string(hyperperiods_) +
        " hyperperiods of " + std::to_string(hyper_) +
        " us overflow the simulated time range");
  sim_end_ = hyper_ * static_cast<model::Time>(hyperperiods_);

  // ---- Static per-node tables (legacy construction order) ----------------
  struct MessageSpec {
    std::size_t src, dst;
    model::Time transfer;
  };
  std::vector<MessageSpec> messages;
  if (options.bus_contention) {
    for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
      const model::TaskGraph& graph = apps.graph(model::GraphId{g});
      for (const model::Channel& channel : graph.channels()) {
        const std::size_t src = apps.flat_index({g, channel.src});
        const std::size_t dst = apps.flat_index({g, channel.dst});
        if (system.mapping.processor_of_flat(src) !=
                system.mapping.processor_of_flat(dst) &&
            arch.transfer_time(channel.size_bytes) > 0)
          messages.push_back(
              {src, dst, arch.transfer_time(channel.size_bytes)});
      }
    }
  }
  total_ = n_tasks_ + messages.size();
  const std::size_t bus_pe = arch.processor_count();
  pe_count_ = arch.processor_count() + (options.bus_contention ? 1 : 0);

  period_.resize(total_);
  pe_of_.resize(total_);
  bounds_.resize(total_);
  max_attempts_.assign(total_, 1);
  graph_of_.resize(total_);
  node_prio_.resize(total_);
  message_src_.assign(total_, SIZE_MAX);
  role_.assign(total_, hardening::TaskRole::kOriginal);
  reexecutions_.assign(total_, 0);
  in_degree_.assign(total_, 0);

  // Edge lists are built in the legacy insertion order (message edges first
  // for bus runs, then plain channel edges) because delivery events inherit
  // their seq — and thus their same-instant ordering — from it.
  std::vector<std::vector<OutEdge>> out_edges(total_);

  for (std::size_t i = 0; i < n_tasks_; ++i) {
    const model::TaskRef ref = apps.task_ref(i);
    period_[i] = apps.graph(ref.graph_id()).period();
    pe_of_[i] = system.mapping.processor_of_flat(i).value;
    bounds_[i] = attempt_bounds(apps.task(ref), system.info[i],
                                arch.processor(model::ProcessorId{
                                    static_cast<std::uint32_t>(pe_of_[i])}));
    max_attempts_[i] = system.info[i].reexecutions + 1;
    graph_of_[i] = ref.graph;
    node_prio_[i] = priorities[i];
    role_[i] = system.info[i].role;
    reexecutions_[i] = system.info[i].reexecutions;
  }
  for (std::size_t q = 0; q < messages.size(); ++q) {
    const std::size_t node = n_tasks_ + q;
    period_[node] = period_[messages[q].src];
    pe_of_[node] = bus_pe;
    bounds_[node] = {messages[q].transfer, messages[q].transfer};
    graph_of_[node] = graph_of_[messages[q].src];
    node_prio_[node] =
        (static_cast<std::uint64_t>(priorities[messages[q].src]) << 16) | q;
    message_src_[node] = messages[q].src;
    out_edges[messages[q].src].push_back(OutEdge{node, 0});
    ++in_degree_[node];
    out_edges[node].push_back(OutEdge{messages[q].dst, 0});
    ++in_degree_[messages[q].dst];
  }
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    for (const model::Channel& channel : graph.channels()) {
      const std::size_t src = apps.flat_index({g, channel.src});
      const std::size_t dst = apps.flat_index({g, channel.dst});
      const model::Time delay =
          pe_of_[src] == pe_of_[dst] ? 0
                                     : arch.transfer_time(channel.size_bytes);
      // On bus runs, remote channels with a real transfer time became
      // message nodes above; everything else keeps the plain delivery edge.
      if (options.bus_contention && pe_of_[src] != pe_of_[dst] && delay > 0)
        continue;
      out_edges[src].push_back(OutEdge{dst, delay});
      ++in_degree_[dst];
    }
  }

  out_begin_.assign(total_ + 1, 0);
  for (std::size_t i = 0; i < total_; ++i)
    out_begin_[i + 1] = out_begin_[i] + out_edges[i].size();
  out_edges_.reserve(out_begin_[total_]);
  for (const auto& list : out_edges)
    out_edges_.insert(out_edges_.end(), list.begin(), list.end());

  // Standbys observe the active replicas of their origin; voters tally all
  // replicas of theirs.  Precomputing both lists replaces the legacy
  // all-task scans on every standby release and voter finish.
  primaries_of_.assign(total_, {});
  voter_replicas_.assign(total_, {});
  for (std::size_t i = 0; i < n_tasks_; ++i) {
    if (role_[i] == hardening::TaskRole::kPassiveReplica) {
      for (std::size_t u = 0; u < n_tasks_; ++u)
        if (role_[u] == hardening::TaskRole::kActiveReplica &&
            system.info[u].origin == system.info[i].origin)
          primaries_of_[i].push_back(u);
    } else if (role_[i] == hardening::TaskRole::kVoter) {
      for (std::size_t u = 0; u < n_tasks_; ++u)
        if ((role_[u] == hardening::TaskRole::kActiveReplica ||
             role_[u] == hardening::TaskRole::kPassiveReplica) &&
            system.info[u].origin == system.info[i].origin)
          voter_replicas_[i].push_back(u);
    }
  }

  // ---- Job table skeleton ------------------------------------------------
  job_base_.resize(total_);
  for (std::size_t i = 0; i < total_; ++i) {
    job_base_[i] = job_flat_.size();
    const auto releases = static_cast<std::size_t>(sim_end_ / period_[i]);
    for (std::size_t r = 0; r < releases; ++r) {
      job_flat_.push_back(i);
      job_instance_.push_back(r);
      job_release_.push_back(static_cast<model::Time>(r) * period_[i]);
    }
  }

  // Critical-state entry can only cancel jobs of dropped applications in
  // the current hyperperiod: list them per hyperperiod, ascending job id
  // (the legacy scan order).
  dropped_jobs_.assign(hyperperiods_, {});
  for (std::size_t j = 0; j < job_flat_.size(); ++j)
    if (drop_[graph_of_[job_flat_[j]]])
      dropped_jobs_[static_cast<std::size_t>(job_release_[j] / hyper_)]
          .push_back(j);

  graph_meta_.reserve(apps.graph_count());
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    GraphMeta meta;
    meta.period = graph.period();
    meta.deadline = graph.deadline();
    meta.instances = static_cast<std::size_t>(sim_end_ / graph.period());
    meta.sink_begin = sink_job_base_.size();
    for (std::uint32_t sink : graph.sinks())
      sink_job_base_.push_back(job_base_[apps.flat_index({g, sink})]);
    meta.sink_end = sink_job_base_.size();
    graph_meta_.push_back(meta);
  }

  // ---- Initial event-heap contents (legacy push order) -------------------
  std::uint64_t seq = 0;
  for (std::size_t h = 1; h <= hyperperiods_; ++h)
    initial_events_.push_back(
        Event{static_cast<model::Time>(h) * hyper_,
              event_key(EventKind::kHyperperiodBoundary, seq++), SIZE_MAX});
  for (std::size_t j = 0; j < job_flat_.size(); ++j)
    if (in_degree_[job_flat_[j]] == 0)
      initial_events_.push_back(Event{
          job_release_[j], event_key(EventKind::kRelease, seq++), j});
  initial_seq_ = seq;
  std::make_heap(initial_events_.begin(), initial_events_.end(),
                 EventGreater{});
}

const SimResult& PreparedSim::run(FaultModel& faults,
                                  ExecTimeModel& durations,
                                  const RunOptions& options,
                                  Scratch& scratch) const {
  obs::Span run_span("sim.run");
  const bool trace_segments = options.trace == TraceLevel::kFull;
  const bool trace_jobs = options.trace != TraceLevel::kResponses;

  // ---- Reset scratch (no allocation once sized) --------------------------
  scratch.jobs.resize(job_flat_.size());
  scratch.pes.resize(pe_count_);
  scratch.completion.assign(pe_count_, kNever);
  scratch.dispatch_pending.assign(pe_count_, 0);
  const std::uint64_t epoch = ++scratch.epoch;
  for (Scratch::PeSlot& pe : scratch.pes) {
    pe.running = SIZE_MAX;
    pe.segment_start = 0;
    pe.ready.clear();
  }
  scratch.heap.assign(initial_events_.begin(), initial_events_.end());
  scratch.deferred.clear();
  scratch.raw_segments.clear();
  std::uint64_t seq = initial_seq_;

  SimResult& result = scratch.result;
  result.jobs.clear();
  result.segments.clear();
  result.responses.clear();
  result.critical_entry.assign(hyperperiods_, -1);
  result.graph_response.assign(graph_meta_.size(), -1);
  result.deadline_miss = false;
  result.unsafe_result = false;
  result.events = 0;

  std::vector<Scratch::JobSlot>& jobs = scratch.jobs;
  auto touch = [&](std::size_t j) -> Scratch::JobSlot& {
    Scratch::JobSlot& slot = jobs[j];
    if (slot.epoch != epoch) {
      slot.epoch = epoch;
      slot.remaining = 0;
      slot.ready_time = -1;
      slot.start_time = -1;
      slot.finish_time = -1;
      slot.pending_inputs = in_degree_[job_flat_[j]];
      slot.attempts = 0;
      slot.state = JobState::kWaiting;
      slot.result_faulty = false;
      slot.in_ready_set = false;
    }
    return slot;
  };

  // Plain local tallies (flushed once after the loop): the initial heap
  // contents count as pushes so pops never exceed pushes in a snapshot.
  std::uint64_t tally_heap_pushes = initial_events_.size();
  std::uint64_t tally_heap_pops = 0;
  std::uint64_t tally_dispatches = 0;
  std::uint64_t tally_activations = 0;
  std::uint64_t tally_preemptions = 0;

  constexpr EventGreater event_greater{};
  bool now_valid = false;  // false until the main loop sets `now`
  model::Time now = 0;
  auto heap_push = [&](model::Time time, EventKind kind, std::size_t job) {
    // An event raised at the instant being processed is always a delivery
    // and always ranks after every pending heap entry at this instant
    // (deliveries are the largest kind; its seq is the largest yet).  The
    // FIFO replays them in push order == seq order, so draining the heap
    // first and the FIFO second pops the identical total order — without
    // two O(log n) heap operations per same-instant event.
    if (now_valid && time == now) {
      scratch.deferred.push_back(Event{time, event_key(kind, seq++), job});
      return;
    }
    scratch.heap.push_back(Event{time, event_key(kind, seq++), job});
    std::push_heap(scratch.heap.begin(), scratch.heap.end(), event_greater);
    ++tally_heap_pushes;
  };
  auto heap_pop_top = [&] {
    std::pop_heap(scratch.heap.begin(), scratch.heap.end(), event_greater);
    scratch.heap.pop_back();
    ++tally_heap_pops;
  };

  auto ready_push = [&](Scratch::PeSlot& pe, std::size_t j) {
    pe.ready.emplace_back(node_prio_[job_flat_[j]], j);
    std::push_heap(pe.ready.begin(), pe.ready.end(), std::greater<>{});
    scratch.dispatch_pending[pe_of_[job_flat_[j]]] = 1;
  };
  /// Drops lazily-deleted entries (jobs cancelled while queued) off the top.
  auto ready_purge = [&](Scratch::PeSlot& pe) {
    while (!pe.ready.empty() && !jobs[pe.ready.front().second].in_ready_set) {
      std::pop_heap(pe.ready.begin(), pe.ready.end(), std::greater<>{});
      pe.ready.pop_back();
    }
  };

  bool critical = false;
  std::size_t events = 0;

  auto close_segment = [&](std::size_t pe_index, model::Time at) {
    Scratch::PeSlot& pe = scratch.pes[pe_index];
    if (trace_segments && pe.running != SIZE_MAX && at > pe.segment_start)
      scratch.raw_segments.push_back(ExecSegment{
          model::ProcessorId{static_cast<std::uint32_t>(pe_index)},
          pe.running, pe.segment_start, at});
  };

  auto push_deliveries = [&](std::size_t j, model::Time at, bool zero_delay) {
    const std::size_t flat = job_flat_[j];
    const std::size_t instance = job_instance_[j];
    for (std::size_t e = out_begin_[flat]; e < out_begin_[flat + 1]; ++e) {
      const OutEdge& edge = out_edges_[e];
      heap_push(at + (zero_delay ? 0 : edge.delay), EventKind::kDelivery,
                job_id(edge.dst, instance));
    }
  };

  auto finish_job = [&](std::size_t j, model::Time at, JobState state,
                        bool zero_delay_outputs) {
    Scratch::JobSlot& job = jobs[j];
    const std::size_t flat = job_flat_[j];
    job.state = state;
    job.finish_time = at;
    // Voter verdict: with too few correct executed replicas, the voted
    // result is wrong.
    if (!is_message(flat) && role_[flat] == hardening::TaskRole::kVoter &&
        !job.result_faulty) {
      std::size_t executed = 0, correct = 0;
      for (const std::size_t u : voter_replicas_[flat]) {
        const Scratch::JobSlot& replica = touch(job_id(u, job_instance_[j]));
        if (replica.state == JobState::kFinished) {
          ++executed;
          if (!replica.result_faulty) ++correct;
        }
      }
      if (executed > 0 && 2 * correct <= executed) job.result_faulty = true;
    }
    if (job.result_faulty && !is_message(flat) &&
        (role_[flat] == hardening::TaskRole::kOriginal ||
         role_[flat] == hardening::TaskRole::kVoter))
      result.unsafe_result = true;
    push_deliveries(j, at, zero_delay_outputs);
  };

  auto enter_critical = [&](model::Time at) {
    if (critical) return;
    critical = true;
    const auto h = static_cast<std::size_t>(std::min<model::Time>(
        at / hyper_, static_cast<model::Time>(hyperperiods_) - 1));
    if (result.critical_entry[h] < 0) result.critical_entry[h] = at;
    for (const std::size_t j : dropped_jobs_[h]) {
      Scratch::JobSlot& job = touch(j);
      if (job.state == JobState::kFinished ||
          job.state == JobState::kCancelled ||
          job.state == JobState::kSkipped)
        continue;
      if (job.start_time >= 0) continue;  // started jobs run to completion
      // Queued jobs stay in their PE heap as ghosts; clearing in_ready_set
      // is the lazy deletion.
      job.in_ready_set = false;
      job.state = JobState::kCancelled;
    }
  };

  // Declared before make_ready: a ready zero-length job finishes on the
  // spot and may cascade further readiness through zero-delay deliveries
  // (those go through the heap, so no recursion).
  auto start_attempt_duration = [&](std::size_t j) {
    Scratch::JobSlot& job = jobs[j];
    const std::size_t flat = job_flat_[j];
    if (is_message(flat)) {
      // Transfers take their fixed fabric time; a skipped producer sent
      // nothing, so its message is free.
      const Scratch::JobSlot& producer =
          touch(job_id(message_src_[flat], job_instance_[j]));
      job.remaining = producer.state == JobState::kSkipped
                          ? 0
                          : bounds_[flat].wcet;
      return;
    }
    const AttemptKey key{flat, job_instance_[j], job.attempts + 1};
    job.remaining =
        durations.attempt_duration(key, bounds_[flat].bcet, bounds_[flat].wcet);
  };

  auto make_ready = [&](std::size_t j, model::Time at) {
    Scratch::JobSlot& job = jobs[j];
    const std::size_t flat = job_flat_[j];
    if (job.state != JobState::kWaiting) return;
    job.ready_time = at;

    if (!is_message(flat) &&
        role_[flat] == hardening::TaskRole::kPassiveReplica) {
      // Activation decision: any primary with a faulty result?
      bool activated = false;
      for (const std::size_t u : primaries_of_[flat]) {
        const Scratch::JobSlot& primary = touch(job_id(u, job_instance_[j]));
        if (primary.state == JobState::kFinished && primary.result_faulty)
          activated = true;
      }
      if (!activated) {
        job.state = JobState::kSkipped;
        job.finish_time = at;
        push_deliveries(j, at, /*zero_delay=*/true);
        return;
      }
      ++tally_activations;
      enter_critical(at);
      // The critical entry above may have cancelled this very job (standbys
      // of a dropped application).
      if (job.state == JobState::kCancelled) return;
    }

    job.state = JobState::kReady;
    start_attempt_duration(j);
    if (job.remaining == 0) {
      job.attempts += 1;
      finish_job(j, at, JobState::kFinished, /*zero_delay_outputs=*/false);
      return;
    }
    ready_push(scratch.pes[pe_of_[flat]], j);
    job.in_ready_set = true;
  };

  auto complete_attempt = [&](std::size_t pe_index, model::Time at) {
    Scratch::PeSlot& pe = scratch.pes[pe_index];
    const std::size_t j = pe.running;
    Scratch::JobSlot& job = jobs[j];
    const std::size_t flat = job_flat_[j];
    close_segment(pe_index, at);
    pe.running = SIZE_MAX;
    scratch.completion[pe_index] = kNever;
    scratch.dispatch_pending[pe_index] = 1;
    job.attempts += 1;

    // Fabric transfers are fault-transparent (Section 2.1); only real
    // tasks consult the fault model.
    const AttemptKey key{flat, job_instance_[j], job.attempts};
    const bool faulted = !is_message(flat) && faults.attempt_faults(key);

    if (faulted) {
      const bool reexecutable =
          role_[flat] == hardening::TaskRole::kOriginal &&
          reexecutions_[flat] > 0;
      if (reexecutable && job.attempts < max_attempts_[flat]) {
        enter_critical(at);
        job.state = JobState::kReady;
        start_attempt_duration(j);
        if (job.remaining == 0) {
          job.attempts += 1;
          finish_job(j, at, JobState::kFinished, false);
          return;
        }
        ready_push(pe, j);
        job.in_ready_set = true;
        return;
      }
      if (reexecutable) enter_critical(at);  // exhausted: still a transition
      job.result_faulty = true;
    }
    finish_job(j, at, JobState::kFinished, false);
  };

  auto dispatch = [&](std::size_t pe_index, model::Time at) {
    Scratch::PeSlot& pe = scratch.pes[pe_index];
    ready_purge(pe);
    if (pe.ready.empty()) return;
    const auto [best_prio, best_job] = pe.ready.front();
    if (pe.running != SIZE_MAX) {
      if (node_prio_[job_flat_[pe.running]] <= best_prio) return;
      // Preempt.  The preempted job's rank is above best_prio, so pushing
      // it cannot displace the captured front.
      ++tally_preemptions;
      close_segment(pe_index, at);
      jobs[pe.running].remaining = scratch.completion[pe_index] - at;
      ready_push(pe, pe.running);
      jobs[pe.running].in_ready_set = true;
      pe.running = SIZE_MAX;
    }
    std::pop_heap(pe.ready.begin(), pe.ready.end(), std::greater<>{});
    pe.ready.pop_back();
    jobs[best_job].in_ready_set = false;
    pe.running = best_job;
    pe.segment_start = at;
    scratch.completion[pe_index] = at + jobs[best_job].remaining;
    if (jobs[best_job].start_time < 0) jobs[best_job].start_time = at;
  };

  if (options.start_in_critical_state) enter_critical(0);

  // ---- Main loop ---------------------------------------------------------
  // Running attempts are tracked by their ABSOLUTE completion instant
  // (scratch.completion, kNever when idle): time advances by jumping `now`,
  // with no per-iteration "subtract delta from every running job" pass —
  // a job's remaining work is reconstructed only on preemption.
  const std::vector<model::Time>& completion = scratch.completion;
  for (;;) {
    model::Time t_next = kNever;
    if (!scratch.heap.empty()) t_next = scratch.heap.front().time;
    for (const model::Time done : completion) t_next = std::min(t_next, done);
    if (t_next == kNever) break;
    now = t_next;
    now_valid = true;
    scratch.deferred.clear();
    std::size_t deferred_head = 0;

    // Hyperperiod boundaries first: the critical state resets before
    // anything else happening at the boundary instant.
    while (!scratch.heap.empty() && scratch.heap.front().time == now &&
           scratch.heap.front().kind() == EventKind::kHyperperiodBoundary) {
      heap_pop_top();
      critical = false;
    }

    // Completions.
    for (std::size_t p = 0; p < scratch.pes.size(); ++p)
      if (completion[p] == now) complete_attempt(p, now);

    // Releases and deliveries at `now` (may cascade through zero-length
    // jobs).  Heap entries at `now` drain first; same-instant cascades land
    // in the FIFO and replay afterwards in seq order — the identical total
    // order (see heap_push).  No heap entry at `now` appears mid-drain,
    // because every same-instant push is deferred.
    for (;;) {
      Event event;
      if (!scratch.heap.empty() && scratch.heap.front().time == now) {
        event = scratch.heap.front();
        heap_pop_top();
      } else if (deferred_head < scratch.deferred.size()) {
        event = scratch.deferred[deferred_head++];
      } else {
        break;
      }
      ++events;
      if (events > options.max_events)
        throw std::runtime_error("PreparedSim: event budget exceeded (" +
                                 std::to_string(options.max_events) +
                                 " events)");
      switch (event.kind()) {
        case EventKind::kHyperperiodBoundary:
          critical = false;
          break;
        case EventKind::kRelease: {
          Scratch::JobSlot& job = touch(event.job);
          if (job.state != JobState::kWaiting) break;  // e.g. cancelled
          make_ready(event.job, now);
          break;
        }
        case EventKind::kDelivery: {
          Scratch::JobSlot& job = touch(event.job);
          if (job.state == JobState::kCancelled) break;
          if (--job.pending_inputs == 0) make_ready(event.job, now);
          break;
        }
      }
    }

    // Per-PE decisions are independent, so skipping PEs whose state is
    // untouched since their last dispatch cannot change any outcome.
    for (std::size_t p = 0; p < scratch.pes.size(); ++p)
      if (scratch.dispatch_pending[p]) {
        scratch.dispatch_pending[p] = 0;
        ++tally_dispatches;
        dispatch(p, now);
      }
  }

  {
    SimCounters& counters = sim_counters();
    counters.runs.add(1);
    counters.events.add(events);
    counters.heap_pushes.add(tally_heap_pushes);
    counters.heap_pops.add(tally_heap_pops);
    counters.dispatch_wakeups.add(tally_dispatches);
    counters.replica_activations.add(tally_activations);
    counters.preemptions.add(tally_preemptions);
  }

  // ---- Finalize ----------------------------------------------------------
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Scratch::JobSlot& job = touch(j);
    if (job.state == JobState::kWaiting || job.state == JobState::kReady) {
      if (drop_[graph_of_[job_flat_[j]]]) {
        job.state = JobState::kCancelled;
      } else {
        throw std::logic_error(
            "PreparedSim: non-droppable job never finished");
      }
    }
  }

  if (trace_jobs) {
    // Message jobs are an internal artifact: drop them from the public
    // trace and remap the execution segments' job references accordingly
    // (bus segments vanish with them).
    scratch.public_index.assign(jobs.size(), SIZE_MAX);
    result.jobs.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Scratch::JobSlot& job = jobs[j];
      const std::size_t flat = job_flat_[j];
      if (is_message(flat)) continue;
      scratch.public_index[j] = result.jobs.size();
      JobRecord record;
      record.flat_task = flat;
      record.instance = job_instance_[j];
      record.release_time = job_release_[j];
      record.ready_time = job.ready_time;
      record.start_time = job.start_time;
      record.finish_time = job.finish_time;
      record.attempts = job.attempts;
      record.result_faulty = job.result_faulty;
      record.state = job.state;
      result.jobs.push_back(record);
    }
    if (trace_segments) {
      result.segments.reserve(scratch.raw_segments.size());
      for (const ExecSegment& segment : scratch.raw_segments) {
        if (scratch.public_index[segment.job] == SIZE_MAX) continue;
        ExecSegment remapped = segment;
        remapped.job = scratch.public_index[segment.job];
        result.segments.push_back(remapped);
      }
    }
  }

  for (std::uint32_t g = 0; g < graph_meta_.size(); ++g) {
    const GraphMeta& meta = graph_meta_[g];
    for (std::size_t r = 0; r < meta.instances; ++r) {
      InstanceResponse response;
      response.graph = model::GraphId{g};
      response.instance = r;
      response.release_time = static_cast<model::Time>(r) * meta.period;
      model::Time finish = 0;
      bool dropped = false;
      for (std::size_t s = meta.sink_begin; s < meta.sink_end; ++s) {
        const Scratch::JobSlot& job = jobs[sink_job_base_[s] + r];
        if (job.state != JobState::kFinished &&
            job.state != JobState::kSkipped) {
          dropped = true;
          break;
        }
        finish = std::max(finish, job.finish_time);
      }
      if (dropped) {
        response.response = -1;
      } else {
        response.response = finish - response.release_time;
        response.deadline_met = response.response <= meta.deadline;
        if (!response.deadline_met) result.deadline_miss = true;
        result.graph_response[g] =
            std::max(result.graph_response[g], response.response);
      }
      if (trace_jobs) result.responses.push_back(response);
    }
  }
  result.events = events;
  return result;
}

PreparedSim::Scratch& PreparedSim::thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace ftmc::sim
