#include "oracle/holistic_oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ftmc/hardening/reliability.hpp"  // scaled_time

namespace ftmc::oracle {

namespace {

using model::Time;

struct InEdge {
  std::size_t src;
  Time delay;
};

Time ceil_div(Time a, Time b) { return (a + b - 1) / b; }

/// The flattened problem and its fixed-point state.
struct Problem {
  sched::HolisticAnalysis::Options options;
  Time horizon = 0;
  std::size_t total = 0;
  std::vector<Time> period, c_min, c_max, release_cutoff;
  std::vector<std::uint32_t> graph_of;
  std::vector<std::vector<InEdge>> in_edges;
  std::vector<std::vector<std::size_t>> interferers;
  std::vector<std::vector<bool>> related;
  std::vector<Time> min_start, min_finish, max_arrival, max_finish;
  bool diverged = false;

  /// One worst-case re-evaluation of node i; returns whether the computed
  /// window differed from the stored one (the sweep's stability test).
  bool update(std::size_t i) {
    const Time hz = horizon;
    const auto jitter = [&](std::size_t u) {
      return max_arrival[u] - min_start[u];
    };
    const auto jitter_interference = [&](Time w) {
      Time total_interference = 0;
      for (const std::size_t u : interferers[i]) {
        if (c_max[u] == 0) continue;
        total_interference += ceil_div(w + jitter(u), period[u]) * c_max[u];
      }
      return total_interference;
    };
    const auto solve_jitter_window = [&](Time base) {
      Time w = base;
      for (std::size_t iter = 0;
           iter < sched::HolisticAnalysis::kMaxInnerIterations; ++iter) {
        const Time next = base + jitter_interference(w);
        if (next == w) return w;
        w = next;
        if (w > hz) return hz + 1;
      }
      return hz + 1;
    };
    const auto jitter_fallback = [&](Time arrival) {
      const Time busy = solve_jitter_window(c_max[i]);
      const Time own_jobs =
          busy > hz ? 1 : ceil_div(busy + (arrival - min_start[i]), period[i]);
      Time best = 0;
      for (Time q = 0; q < own_jobs; ++q) {
        const Time w = solve_jitter_window((q + 1) * c_max[i]);
        if (w > hz) return hz + 1;
        best = std::max(best, w + arrival - q * period[i]);
      }
      return best;
    };
    const auto offset_interference = [&](Time start, Time w) {
      Time total_interference = 0;
      for (const std::size_t u : interferers[i]) {
        if (c_max[u] == 0) continue;
        const bool same_graph_related =
            graph_of[u] == graph_of[i] && related[i][u];
        const Time t_u = period[u];
        const Time k_end = (start + w - min_start[u] + t_u - 1) / t_u;
        for (Time k = 0; k < k_end; ++k) {
          if (same_graph_related && k == 0) continue;
          if (k * t_u + min_start[u] > release_cutoff[u]) continue;
          if (k * t_u + max_finish[u] <= start) continue;
          if (k * t_u + min_start[u] >= start + w) break;
          total_interference += c_max[u];
        }
      }
      return total_interference;
    };
    const auto solve_offset_window = [&](Time start) {
      Time w = c_max[i];
      for (std::size_t iter = 0;
           iter < sched::HolisticAnalysis::kMaxInnerIterations; ++iter) {
        const Time next = c_max[i] + offset_interference(start, w);
        if (next == w) return w;
        w = next;
        if (w > hz) return hz + 1;
      }
      return hz + 1;
    };

    Time arrival = 0;
    for (const InEdge& edge : in_edges[i])
      arrival = std::max(arrival, max_finish[edge.src] + edge.delay);
    if (arrival > hz) {
      diverged = true;
      arrival = hz + 1;
    }
    Time finish;
    if (c_max[i] == 0) {
      finish = arrival;
    } else if (arrival > hz) {
      finish = hz + 1;
    } else {
      if (options.precedence_aware) {
        const Time w = solve_offset_window(arrival);
        finish = w > hz ? hz + 1 : arrival + w;
        if (finish > period[i])
          finish = std::max(finish, jitter_fallback(arrival));
      } else {
        finish = jitter_fallback(arrival);
      }
      if (finish > hz) {
        diverged = true;
        finish = hz + 1;
      }
    }
    if (arrival == max_arrival[i] && finish == max_finish[i]) return false;
    max_arrival[i] = std::max(max_arrival[i], arrival);
    max_finish[i] = std::max(max_finish[i], finish);
    return true;
  }
};

}  // namespace

sched::AnalysisResult HolisticOracle::analyze(
    const model::Architecture& arch, const model::ApplicationSet& apps,
    const model::Mapping& mapping, std::span<const sched::ExecBounds> bounds,
    std::span<const std::uint32_t> priorities) const {
  const std::size_t n = apps.task_count();
  if (bounds.size() != n)
    throw std::invalid_argument("HolisticOracle: bounds size mismatch");
  if (priorities.size() != n)
    throw std::invalid_argument("HolisticOracle: priorities size mismatch");
  if (!mapping.within(arch.processor_count()))
    throw std::invalid_argument("HolisticOracle: mapping out of range");

  Problem p;
  p.options = options_;
  p.horizon =
      sched::HolisticAnalysis::kHorizonHyperperiods * apps.hyperperiod();

  struct Message {
    std::size_t src, dst;
    Time transfer;
  };
  std::vector<Message> messages;
  std::vector<std::vector<InEdge>> in_edges(n);
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    for (const model::Channel& channel :
         apps.graph(model::GraphId{g}).channels()) {
      const std::size_t src = apps.flat_index({g, channel.src});
      const std::size_t dst = apps.flat_index({g, channel.dst});
      const bool remote =
          mapping.processor_of_flat(src) != mapping.processor_of_flat(dst);
      const Time transfer = arch.transfer_time(channel.size_bytes);
      if (remote && options_.bus_contention && transfer > 0)
        messages.push_back({src, dst, transfer});
      else
        in_edges[dst].push_back({src, remote ? transfer : 0});
    }
  }

  const std::size_t total = n + messages.size();
  p.total = total;
  p.period.resize(total);
  p.graph_of.resize(total);
  p.c_min.resize(total);
  p.c_max.resize(total);
  p.release_cutoff.resize(total);
  in_edges.resize(total);
  std::vector<std::uint32_t> pe_of(total);
  std::vector<std::uint64_t> rank(total);
  for (std::size_t i = 0; i < n; ++i) {
    if (bounds[i].bcet < 0 || bounds[i].wcet < bounds[i].bcet)
      throw std::invalid_argument("HolisticOracle: invalid ExecBounds");
    const model::TaskRef ref = apps.task_ref(i);
    const model::Processor& pe = arch.processor(mapping.processor_of_flat(i));
    p.period[i] = apps.graph(ref.graph_id()).period();
    p.graph_of[i] = ref.graph;
    p.c_min[i] = hardening::scaled_time(pe, bounds[i].bcet);
    p.c_max[i] = hardening::scaled_time(pe, bounds[i].wcet);
    p.release_cutoff[i] = bounds[i].release_cutoff;
    pe_of[i] = mapping.processor_of_flat(i).value;
    rank[i] = priorities[i];
  }
  for (std::size_t q = 0; q < messages.size(); ++q) {
    const std::size_t node = n + q;
    const Message& message = messages[q];
    p.period[node] = p.period[message.src];
    p.graph_of[node] = p.graph_of[message.src];
    p.c_min[node] = p.c_min[message.src] == 0 ? 0 : message.transfer;
    p.c_max[node] = p.c_max[message.src] == 0 ? 0 : message.transfer;
    p.release_cutoff[node] = p.release_cutoff[message.src];
    pe_of[node] = static_cast<std::uint32_t>(arch.processor_count());
    rank[node] =
        (static_cast<std::uint64_t>(priorities[message.src]) << 16) | q;
    in_edges[node].push_back({message.src, 0});
    in_edges[message.dst].push_back({node, 0});
  }
  p.in_edges = std::move(in_edges);

  p.interferers.resize(total);
  for (std::size_t i = 0; i < total; ++i)
    for (std::size_t u = 0; u < total; ++u)
      if (u != i && pe_of[u] == pe_of[i] && rank[u] < rank[i])
        p.interferers[i].push_back(u);

  std::vector<std::vector<std::size_t>> succs(total);
  for (std::size_t i = 0; i < total; ++i)
    for (const InEdge& edge : p.in_edges[i]) succs[edge.src].push_back(i);
  p.related.assign(total, std::vector<bool>(total, false));
  for (std::size_t s = 0; s < total; ++s) {
    std::vector<bool> seen(total, false);
    std::vector<std::size_t> stack{s};
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      for (const std::size_t w : succs[v]) {
        if (seen[w]) continue;
        seen[w] = true;
        p.related[s][w] = true;
        p.related[w][s] = true;
        stack.push_back(w);
      }
    }
  }

  // Best case: interference-free longest path, swept to stability (the
  // graph is a DAG, so this terminates within depth + 1 sweeps).
  p.min_start.assign(total, 0);
  p.min_finish.assign(p.c_min.begin(), p.c_min.end());
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < total; ++i) {
      Time ready = 0;
      for (const InEdge& edge : p.in_edges[i])
        ready = std::max(ready, p.min_finish[edge.src] + edge.delay);
      if (ready != p.min_start[i] || ready + p.c_min[i] != p.min_finish[i]) {
        p.min_start[i] = ready;
        p.min_finish[i] = ready + p.c_min[i];
        changed = true;
      }
    }
  }

  // Worst case: full sweeps in flat order from the best-case solution until
  // a sweep changes nothing, or the round budget runs out (divergence).
  p.max_arrival = p.min_start;
  p.max_finish = p.min_finish;
  bool stable = false;
  for (std::size_t outer = 0;
       outer < sched::HolisticAnalysis::kMaxOuterIterations && !stable;
       ++outer) {
    stable = true;
    for (std::size_t i = 0; i < total; ++i)
      if (p.update(i)) stable = false;
  }
  if (!stable) {
    p.diverged = true;
    std::fill(p.max_finish.begin(), p.max_finish.end(), p.horizon + 1);
  }

  sched::AnalysisResult result;
  result.windows.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sched::TaskWindow& window = result.windows[i];
    window.min_start = p.min_start[i];
    window.min_finish = p.min_finish[i];
    window.max_start = p.max_arrival[i];
    window.max_finish = p.max_finish[i];
    window.schedulable = p.max_finish[i] <= p.horizon;
    if (!window.schedulable) window.max_finish = sched::kUnschedulable;
  }
  result.schedulable = !p.diverged;
  return result;
}

}  // namespace ftmc::oracle
