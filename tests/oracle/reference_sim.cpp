#include "oracle/reference_sim.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

#include "ftmc/core/exec_model.hpp"
#include "ftmc/hardening/reliability.hpp"

namespace ftmc::oracle {

using namespace sim;

namespace {

constexpr model::Time kNever = std::numeric_limits<model::Time>::max();

struct OutEdge {
  std::size_t dst;
  model::Time delay;
};

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

struct Job {
  std::size_t flat = 0;
  std::size_t instance = 0;
  model::Time release_time = 0;
  int pending_inputs = 0;
  model::Time remaining = 0;
  JobState state = JobState::kWaiting;
  model::Time ready_time = -1;
  model::Time start_time = -1;
  model::Time finish_time = -1;
  int attempts = 0;
  bool result_faulty = false;
  bool in_ready_set = false;
};

enum class EventKind : std::uint8_t {
  kHyperperiodBoundary = 0,
  kRelease = 1,
  kDelivery = 2,
};

struct Event {
  model::Time time;
  EventKind kind;
  std::uint64_t seq;
  std::size_t job;  // unused for boundaries

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    return seq > other.seq;
  }
};

struct PeState {
  std::size_t running = SIZE_MAX;
  model::Time segment_start = 0;
  /// (priority rank, job id) — begin() is the highest-priority ready job.
  std::set<std::pair<std::uint64_t, std::size_t>> ready;
};

}  // namespace

SimResult simulate(const model::Architecture& arch,
                   const hardening::HardenedSystem& system,
                   const core::DropSet& drop,
                   const std::vector<std::uint32_t>& priorities,
                   FaultModel& faults, ExecTimeModel& durations,
                   const SimOptions& options) {
  core::validate_drop_set(system.apps, drop);
  if (priorities.size() != system.apps.task_count())
    throw std::invalid_argument("Simulator: priorities size mismatch");
  if (!system.mapping.within(arch.processor_count()))
    throw std::invalid_argument("Simulator: mapping out of range");

  const model::ApplicationSet& apps = system.apps;
  const std::size_t n_tasks = apps.task_count();
  const model::Time hyper = apps.hyperperiod();
  const model::Time sim_end =
      hyper * static_cast<model::Time>(options.hyperperiods);

  // ---- Static per-node tables -------------------------------------------
  // Remote channels either add a fixed latency (default) or become explicit
  // message nodes on a shared-bus pseudo-PE (options.bus_contention); in the
  // latter case node ids n_tasks.. are messages.
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
  const std::size_t total = n_tasks + messages.size();
  const std::size_t bus_pe = arch.processor_count();

  std::vector<model::Time> period(total);
  std::vector<std::size_t> pe_of(total);
  std::vector<sched::ExecBounds> bounds(total);
  std::vector<std::vector<OutEdge>> out_edges(total);
  std::vector<int> in_degree(total, 0);
  std::vector<int> max_attempts(total, 1);
  std::vector<std::vector<std::size_t>> primaries_of(total);
  std::vector<std::uint32_t> graph_of(total);
  std::vector<std::uint64_t> node_prio(total);
  std::vector<std::size_t> message_src(total, SIZE_MAX);

  for (std::size_t i = 0; i < n_tasks; ++i) {
    const model::TaskRef ref = apps.task_ref(i);
    period[i] = apps.graph(ref.graph_id()).period();
    pe_of[i] = system.mapping.processor_of_flat(i).value;
    bounds[i] = attempt_bounds(apps.task(ref), system.info[i],
                               arch.processor(model::ProcessorId{
                                   static_cast<std::uint32_t>(pe_of[i])}));
    max_attempts[i] = system.info[i].reexecutions + 1;
    graph_of[i] = ref.graph;
    node_prio[i] = priorities[i];
  }
  for (std::size_t q = 0; q < messages.size(); ++q) {
    const std::size_t node = n_tasks + q;
    period[node] = period[messages[q].src];
    pe_of[node] = bus_pe;
    bounds[node] = {messages[q].transfer, messages[q].transfer};
    graph_of[node] = graph_of[messages[q].src];
    node_prio[node] =
        (static_cast<std::uint64_t>(priorities[messages[q].src]) << 16) | q;
    message_src[node] = messages[q].src;
    out_edges[messages[q].src].push_back(OutEdge{node, 0});
    ++in_degree[node];
    out_edges[node].push_back(OutEdge{messages[q].dst, 0});
    ++in_degree[messages[q].dst];
  }
  auto is_message = [&](std::size_t node) { return node >= n_tasks; };

  if (!options.bus_contention) {
    for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
      const model::TaskGraph& graph = apps.graph(model::GraphId{g});
      for (const model::Channel& channel : graph.channels()) {
        const std::size_t src = apps.flat_index({g, channel.src});
        const std::size_t dst = apps.flat_index({g, channel.dst});
        const model::Time delay =
            pe_of[src] == pe_of[dst]
                ? 0
                : arch.transfer_time(channel.size_bytes);
        out_edges[src].push_back(OutEdge{dst, delay});
        ++in_degree[dst];
      }
    }
  } else {
    // Channels not turned into messages (local or zero-latency) keep the
    // plain delivery edge.
    for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
      const model::TaskGraph& graph = apps.graph(model::GraphId{g});
      for (const model::Channel& channel : graph.channels()) {
        const std::size_t src = apps.flat_index({g, channel.src});
        const std::size_t dst = apps.flat_index({g, channel.dst});
        const model::Time delay =
            pe_of[src] == pe_of[dst]
                ? 0
                : arch.transfer_time(channel.size_bytes);
        if (pe_of[src] != pe_of[dst] && delay > 0) continue;  // is a message
        out_edges[src].push_back(OutEdge{dst, delay});
        ++in_degree[dst];
      }
    }
  }
  // Standbys observe the active replicas of their origin.
  for (std::size_t i = 0; i < n_tasks; ++i) {
    if (system.info[i].role != hardening::TaskRole::kPassiveReplica)
      continue;
    for (std::size_t u = 0; u < n_tasks; ++u)
      if (system.info[u].role == hardening::TaskRole::kActiveReplica &&
          system.info[u].origin == system.info[i].origin)
        primaries_of[i].push_back(u);
  }

  // ---- Job table --------------------------------------------------------
  std::vector<std::size_t> job_base(total);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < total; ++i) {
    job_base[i] = jobs.size();
    const auto releases = static_cast<std::size_t>(sim_end / period[i]);
    for (std::size_t r = 0; r < releases; ++r) {
      Job job;
      job.flat = i;
      job.instance = r;
      job.release_time = static_cast<model::Time>(r) * period[i];
      job.pending_inputs = in_degree[i];
      jobs.push_back(job);
    }
  }
  auto job_id = [&](std::size_t flat, std::size_t instance) {
    return job_base[flat] + instance;
  };

  // ---- Event queue & PE state -------------------------------------------
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::uint64_t seq = 0;
  for (std::size_t h = 1; h <= options.hyperperiods; ++h)
    heap.push(Event{static_cast<model::Time>(h) * hyper,
                    EventKind::kHyperperiodBoundary, seq++, SIZE_MAX});
  for (std::size_t j = 0; j < jobs.size(); ++j)
    if (jobs[j].pending_inputs == 0)
      heap.push(Event{jobs[j].release_time, EventKind::kRelease, seq++, j});

  std::vector<PeState> pes(arch.processor_count() +
                           (options.bus_contention ? 1 : 0));
  SimResult result;
  result.critical_entry.assign(options.hyperperiods, -1);
  bool critical = false;
  model::Time now = 0;
  std::size_t events = 0;

  auto close_segment = [&](std::size_t pe, model::Time at) {
    PeState& state = pes[pe];
    if (state.running != SIZE_MAX && at > state.segment_start)
      result.segments.push_back(ExecSegment{
          model::ProcessorId{static_cast<std::uint32_t>(pe)}, state.running,
          state.segment_start, at});
  };

  // Deliver one finished job's outputs (forward declaration pattern via
  // std::function is avoided by queuing through the heap only).
  auto push_deliveries = [&](std::size_t j, model::Time at,
                             bool zero_delay) {
    for (const OutEdge& edge : out_edges[jobs[j].flat]) {
      heap.push(Event{at + (zero_delay ? 0 : edge.delay),
                      EventKind::kDelivery, seq++,
                      job_id(edge.dst, jobs[j].instance)});
    }
  };

  auto finish_job = [&](std::size_t j, model::Time at, JobState state,
                        bool zero_delay_outputs) {
    Job& job = jobs[j];
    job.state = state;
    job.finish_time = at;
    // Voter verdict: with too few correct executed replicas, the voted
    // result is wrong.  (Message nodes have no info entry — the is_message
    // guard keeps the lookup in bounds on bus-contention runs.)
    if (!is_message(job.flat) &&
        system.info[job.flat].role == hardening::TaskRole::kVoter &&
        !job.result_faulty) {
      std::size_t executed = 0, correct = 0;
      for (std::size_t u = 0; u < n_tasks; ++u) {
        const auto role = system.info[u].role;
        if ((role != hardening::TaskRole::kActiveReplica &&
             role != hardening::TaskRole::kPassiveReplica) ||
            system.info[u].origin != system.info[job.flat].origin)
          continue;
        const Job& replica = jobs[job_id(u, job.instance)];
        if (replica.state == JobState::kFinished) {
          ++executed;
          if (!replica.result_faulty) ++correct;
        }
      }
      if (executed > 0 && 2 * correct <= executed) job.result_faulty = true;
    }
    push_deliveries(j, at, zero_delay_outputs);
  };

  auto enter_critical = [&](model::Time at) {
    if (critical) return;
    critical = true;
    const auto h = static_cast<std::size_t>(
        std::min<model::Time>(at / hyper,
                              static_cast<model::Time>(options.hyperperiods) - 1));
    if (result.critical_entry[h] < 0) result.critical_entry[h] = at;
    const model::Time window_begin = static_cast<model::Time>(h) * hyper;
    const model::Time window_end = window_begin + hyper;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      Job& job = jobs[j];
      if (!drop[graph_of[job.flat]]) continue;
      if (job.release_time < window_begin || job.release_time >= window_end)
        continue;
      if (job.state == JobState::kFinished ||
          job.state == JobState::kCancelled ||
          job.state == JobState::kSkipped)
        continue;
      if (job.start_time >= 0) continue;  // started jobs run to completion
      if (job.state == JobState::kReady && job.in_ready_set) {
        pes[pe_of[job.flat]].ready.erase({node_prio[job.flat], j});
        job.in_ready_set = false;
      }
      job.state = JobState::kCancelled;
    }
  };

  // Declared before make_ready: a ready zero-length job finishes on the
  // spot and may cascade further readiness through zero-delay deliveries
  // (those go through the heap, so no recursion).
  auto start_attempt_duration = [&](std::size_t j) {
    Job& job = jobs[j];
    if (is_message(job.flat)) {
      // Transfers take their fixed fabric time; a skipped producer sent
      // nothing, so its message is free.
      const Job& producer =
          jobs[job_id(message_src[job.flat], job.instance)];
      job.remaining = producer.state == JobState::kSkipped
                          ? 0
                          : bounds[job.flat].wcet;
      return;
    }
    const AttemptKey key{job.flat, job.instance, job.attempts + 1};
    job.remaining = durations.attempt_duration(key, bounds[job.flat].bcet,
                                               bounds[job.flat].wcet);
  };

  auto make_ready = [&](std::size_t j, model::Time at) {
    Job& job = jobs[j];
    if (job.state != JobState::kWaiting) return;
    job.ready_time = at;

    if (!is_message(job.flat) &&
        system.info[job.flat].role ==
            hardening::TaskRole::kPassiveReplica) {
      // Activation decision: any primary with a faulty result?
      bool activated = false;
      for (std::size_t u : primaries_of[job.flat]) {
        const Job& primary = jobs[job_id(u, job.instance)];
        if (primary.state == JobState::kFinished && primary.result_faulty)
          activated = true;
      }
      if (!activated) {
        job.state = JobState::kSkipped;
        job.finish_time = at;
        push_deliveries(j, at, /*zero_delay=*/true);
        return;
      }
      enter_critical(at);
      // A cancelled standby cannot happen: standbys belong to hardened
      // (typically critical) graphs; if its graph *is* dropped and we just
      // entered critical, this very job might have been cancelled above.
      if (job.state == JobState::kCancelled) return;
    }

    job.state = JobState::kReady;
    start_attempt_duration(j);
    if (job.remaining == 0) {
      job.attempts += 1;
      finish_job(j, at, JobState::kFinished, /*zero_delay_outputs=*/false);
      return;
    }
    pes[pe_of[job.flat]].ready.insert({node_prio[job.flat], j});
    job.in_ready_set = true;
  };

  auto complete_attempt = [&](std::size_t pe_index, model::Time at) {
    PeState& pe = pes[pe_index];
    const std::size_t j = pe.running;
    Job& job = jobs[j];
    close_segment(pe_index, at);
    pe.running = SIZE_MAX;
    job.attempts += 1;

    // Fabric transfers are fault-transparent (Section 2.1); only real
    // tasks consult the fault model.
    const AttemptKey key{job.flat, job.instance, job.attempts};
    const bool faulted =
        !is_message(job.flat) && faults.attempt_faults(key);

    if (faulted) {
      const auto& info = system.info[job.flat];
      const bool reexecutable =
          info.role == hardening::TaskRole::kOriginal &&
          info.reexecutions > 0;
      if (reexecutable && job.attempts < max_attempts[job.flat]) {
        enter_critical(at);
        job.state = JobState::kReady;
        start_attempt_duration(j);
        if (job.remaining == 0) {
          job.attempts += 1;
          finish_job(j, at, JobState::kFinished, false);
          return;
        }
        pe.ready.insert({node_prio[job.flat], j});
        job.in_ready_set = true;
        return;
      }
      if (reexecutable) enter_critical(at);  // exhausted: still a transition
      job.result_faulty = true;
    }
    finish_job(j, at, JobState::kFinished, false);
  };

  auto dispatch = [&](std::size_t pe_index, model::Time at) {
    PeState& pe = pes[pe_index];
    if (pe.ready.empty()) return;
    const auto [best_prio, best_job] = *pe.ready.begin();
    if (pe.running != SIZE_MAX) {
      if (node_prio[jobs[pe.running].flat] <= best_prio) return;
      // Preempt.
      close_segment(pe_index, at);
      pe.ready.insert({node_prio[jobs[pe.running].flat], pe.running});
      jobs[pe.running].in_ready_set = true;
      pe.running = SIZE_MAX;
    }
    pe.ready.erase(pe.ready.begin());
    jobs[best_job].in_ready_set = false;
    pe.running = best_job;
    pe.segment_start = at;
    if (jobs[best_job].start_time < 0) jobs[best_job].start_time = at;
  };

  if (options.start_in_critical_state) enter_critical(0);

  // ---- Main loop ---------------------------------------------------------
  for (;;) {
    model::Time t_next = kNever;
    if (!heap.empty()) t_next = heap.top().time;
    for (const PeState& pe : pes)
      if (pe.running != SIZE_MAX)
        t_next = std::min(t_next, now + jobs[pe.running].remaining);
    if (t_next == kNever) break;

    // Advance running jobs.
    const model::Time delta = t_next - now;
    for (PeState& pe : pes)
      if (pe.running != SIZE_MAX) jobs[pe.running].remaining -= delta;
    now = t_next;

    // Hyperperiod boundaries first: the critical state resets before
    // anything else happening at the boundary instant.
    while (!heap.empty() && heap.top().time == now &&
           heap.top().kind == EventKind::kHyperperiodBoundary) {
      heap.pop();
      critical = false;
    }

    // Completions.
    for (std::size_t p = 0; p < pes.size(); ++p) {
      if (pes[p].running != SIZE_MAX && jobs[pes[p].running].remaining <= 0)
        complete_attempt(p, now);
    }

    // Releases and deliveries at `now` (may cascade through zero-length
    // jobs; all cascades re-enter via the heap).
    while (!heap.empty() && heap.top().time == now) {
      const Event event = heap.top();
      heap.pop();
      ++events;
      if (events > options.max_events)
        throw std::runtime_error("Simulator: event budget exceeded");
      switch (event.kind) {
        case EventKind::kHyperperiodBoundary:
          critical = false;
          break;
        case EventKind::kRelease: {
          Job& job = jobs[event.job];
          if (job.state != JobState::kWaiting) break;  // e.g. cancelled
          make_ready(event.job, now);
          break;
        }
        case EventKind::kDelivery: {
          Job& job = jobs[event.job];
          if (job.state == JobState::kCancelled) break;
          if (--job.pending_inputs == 0) make_ready(event.job, now);
          break;
        }
      }
    }

    for (std::size_t p = 0; p < pes.size(); ++p) dispatch(p, now);
  }

  // ---- Finalize -----------------------------------------------------------
  for (Job& job : jobs) {
    if (job.state == JobState::kWaiting || (job.state == JobState::kReady)) {
      if (drop[graph_of[job.flat]]) {
        job.state = JobState::kCancelled;
      } else {
        throw std::logic_error("Simulator: non-droppable job never finished");
      }
    }
  }

  // Message jobs are an internal artifact: drop them from the public trace
  // and remap the execution segments' job references accordingly (bus
  // segments vanish with them).
  std::vector<std::size_t> public_index(jobs.size(), SIZE_MAX);
  result.jobs.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    if (is_message(job.flat)) continue;
    public_index[j] = result.jobs.size();
    JobRecord record;
    record.flat_task = job.flat;
    record.instance = job.instance;
    record.release_time = job.release_time;
    record.ready_time = job.ready_time;
    record.start_time = job.start_time;
    record.finish_time = job.finish_time;
    record.attempts = job.attempts;
    record.result_faulty = job.result_faulty;
    record.state = job.state;
    result.jobs.push_back(record);
    if (job.result_faulty &&
        (system.info[job.flat].role == hardening::TaskRole::kOriginal ||
         system.info[job.flat].role == hardening::TaskRole::kVoter))
      result.unsafe_result = true;
  }
  std::vector<ExecSegment> public_segments;
  public_segments.reserve(result.segments.size());
  for (const ExecSegment& segment : result.segments) {
    if (public_index[segment.job] == SIZE_MAX) continue;
    ExecSegment remapped = segment;
    remapped.job = public_index[segment.job];
    public_segments.push_back(remapped);
  }
  result.segments = std::move(public_segments);

  result.graph_response.assign(apps.graph_count(), -1);
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    const auto instances =
        static_cast<std::size_t>(sim_end / graph.period());
    for (std::size_t r = 0; r < instances; ++r) {
      InstanceResponse response;
      response.graph = model::GraphId{g};
      response.instance = r;
      response.release_time =
          static_cast<model::Time>(r) * graph.period();
      model::Time finish = 0;
      bool dropped = false;
      for (std::uint32_t sink : graph.sinks()) {
        const Job& job = jobs[job_id(apps.flat_index({g, sink}), r)];
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
        response.deadline_met = response.response <= graph.deadline();
        if (!response.deadline_met) result.deadline_miss = true;
        result.graph_response[g] =
            std::max(result.graph_response[g], response.response);
      }
      result.responses.push_back(response);
    }
  }
  result.events = events;
  return result;
}

}  // namespace ftmc::oracle
