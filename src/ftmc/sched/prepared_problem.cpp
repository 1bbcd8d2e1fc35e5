#include "ftmc/sched/prepared_problem.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "ftmc/hardening/reliability.hpp"  // scaled_time
#include "ftmc/obs/metrics.hpp"
#include "ftmc/util/hash.hpp"

namespace ftmc::sched {

namespace {

/// ceil(a / b) for non-negative a, positive b.
constexpr model::Time ceil_div(model::Time a, model::Time b) noexcept {
  return (a + b - 1) / b;
}

/// Folds a release cutoff onto the last release time at or below it.  The
/// operator probes the cutoff only through "k*period + min_start > cutoff",
/// and no release lies strictly between the fold result and the raw value,
/// so every probe answers identically — the fold is behavior-preserving.
/// It maps all cutoffs within one inter-release gap onto one value, which
/// is what lets the batch solver's sharing tests recognize scenarios with
/// different trigger windows as equivalent inputs.  Cutoffs before the
/// first release (nothing ever runs) all fold to -1.
constexpr model::Time canonical_cutoff(model::Time cutoff,
                                       model::Time min_start,
                                       model::Time period,
                                       model::Time horizon) noexcept {
  if (cutoff < min_start) return model::Time{-1};
  const model::Time folded =
      min_start + (cutoff - min_start) / period * period;
  // Every probe "k*period + min_start" the operator makes stays within a
  // small multiple of the horizon (window magnitudes are capped by the
  // horizon ratchet), so whenever the horizon sits far below the sentinel
  // range, every cutoff up there answers all probes false — one behavior
  // class.  Collapse it onto kUnschedulable so scenarios that differ only
  // in unreachable cutoffs also compare bitwise equal.
  if (horizon < kUnschedulable / 16 && folded >= kUnschedulable / 2)
    return kUnschedulable;
  return folded;
}

/// Kernel counters, tallied in plain locals during a solve and flushed once
/// at the end — the fixed point itself never reads them, so instrumented
/// and uninstrumented runs are bitwise identical.
struct KernelCounters {
  obs::Counter solves{"sched.solves"};
  obs::Counter diverged{"sched.solve_divergences"};
  // Operator evaluations of the scalar worklist solver only; skipped
  // positions and sticky hits include the batched solver's lanes.
  obs::Counter worklist_evals{"sched.worklist.node_evals"};
  obs::Counter worklist_skips{"sched.worklist.skipped_evals"};
  obs::Counter sticky_hits{"sched.worklist.sticky_hits"};
  // Batched solver: invocations, total lanes, operator evaluations it ran,
  // evaluations answered by copying a sibling lane's outcome, and lanes
  // retired by the post-fold dedup (solved by copying a sibling lane).
  obs::Counter batch_solves{"sched.batch.solves"};
  obs::Counter batch_lanes{"sched.batch.lanes"};
  obs::Counter batch_evals{"sched.batch.node_evals"};
  obs::Counter batch_shared{"sched.batch.shared_evals"};
  obs::Counter batch_dups{"sched.batch.dup_lanes"};
};

KernelCounters& kernel_counters() {
  static KernelCounters counters;
  return counters;
}

}  // namespace

PreparedProblem::PreparedProblem(const model::Architecture& arch,
                                 const model::ApplicationSet& apps,
                                 const model::Mapping& mapping,
                                 std::span<const std::uint32_t> priorities,
                                 const HolisticAnalysis::Options& options)
    : options_(options) {
  if (mapping.task_count() != apps.task_count())
    throw std::out_of_range("HolisticAnalysis: mapping size mismatch");
  std::vector<model::Channel> channels;
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g)
    for (const model::Channel& channel :
         apps.graph(model::GraphId{g}).channels())
      channels.push_back(
          {static_cast<std::uint32_t>(apps.flat_index({g, channel.src})),
           static_cast<std::uint32_t>(apps.flat_index({g, channel.dst})),
           channel.size_bytes});
  build(
      arch, mapping.flat(), channels,
      [&](std::size_t i) {
        return apps.graph(apps.task_ref(i).graph_id()).period();
      },
      apps.hyperperiod(), priorities);
}

PreparedProblem::PreparedProblem(const model::Architecture& arch,
                                 const hardening::HardenedView& view,
                                 std::span<const std::uint32_t> priorities,
                                 const HolisticAnalysis::Options& options)
    : options_(options) {
  build(
      arch, view.pe, view.channels,
      [&](std::size_t i) { return view.period[view.graph_of(i)]; },
      view.hyperperiod, priorities);
}

template <class PeriodOf>
void PreparedProblem::build(const model::Architecture& arch,
                            std::span<const model::ProcessorId> pe,
                            std::span<const model::Channel> channels,
                            PeriodOf period_of, model::Time hyperperiod,
                            std::span<const std::uint32_t> priorities) {
  n_ = pe.size();
  if (priorities.size() != n_)
    throw std::invalid_argument("HolisticAnalysis: priorities size mismatch");
  for (const model::ProcessorId p : pe)
    if (p.value >= arch.processor_count())
      throw std::invalid_argument("HolisticAnalysis: mapping out of range");

  // Remote channels: plain added latency by default, or explicit message
  // nodes scheduled on a shared-bus pseudo-PE when contention is modeled.
  struct Edge {
    std::uint32_t src, dst;
    model::Time delay;
  };
  std::vector<Edge> edges;
  std::vector<Edge> messages;  // delay = transfer time on the bus
  for (const model::Channel& channel : channels) {
    const bool remote = pe[channel.src] != pe[channel.dst];
    const model::Time transfer =
        remote ? arch.transfer_time(channel.size_bytes) : 0;
    if (remote && options_.bus_contention && transfer > 0)
      messages.push_back({channel.src, channel.dst, transfer});
    else
      edges.push_back({channel.src, channel.dst, transfer});
  }

  total_ = n_ + messages.size();
  const std::uint32_t bus_pe =
      static_cast<std::uint32_t>(arch.processor_count());

  pe_ref_.resize(n_);
  period_.resize(total_);
  std::vector<std::uint32_t> pe_of(total_);
  std::vector<std::uint64_t> rank(total_);

  for (std::size_t i = 0; i < n_; ++i) {
    pe_ref_[i] = &arch.processor(pe[i]);
    period_[i] = period_of(i);
    pe_of[i] = pe[i].value;
    rank[i] = priorities[i];
  }
  message_src_.resize(messages.size());
  message_transfer_.resize(messages.size());
  for (std::size_t q = 0; q < messages.size(); ++q) {
    const auto node = static_cast<std::uint32_t>(n_ + q);
    const Edge& message = messages[q];
    message_src_[q] = message.src;
    message_transfer_[q] = message.delay;
    period_[node] = period_[message.src];
    pe_of[node] = bus_pe;
    // Messages inherit the producer's priority; the edge index keeps bus
    // ranks unique (only bus nodes are ever compared with each other).
    rank[node] = (static_cast<std::uint64_t>(priorities[message.src]) << 16) |
                 q;
    edges.push_back({message.src, node, 0});
    edges.push_back({node, message.dst, 0});
  }

  // Precedence edges as CSR, both directions.
  in_offsets_.assign(total_ + 1, 0);
  succ_offsets_.assign(total_ + 1, 0);
  for (const Edge& edge : edges) {
    ++in_offsets_[edge.dst + 1];
    ++succ_offsets_[edge.src + 1];
  }
  for (std::size_t i = 0; i < total_; ++i) {
    in_offsets_[i + 1] += in_offsets_[i];
    succ_offsets_[i + 1] += succ_offsets_[i];
  }
  in_edges_.resize(edges.size());
  succ_nodes_.resize(edges.size());
  {
    std::vector<std::uint32_t> in_fill(in_offsets_.begin(),
                                       in_offsets_.end() - 1);
    std::vector<std::uint32_t> succ_fill(succ_offsets_.begin(),
                                         succ_offsets_.end() - 1);
    for (const Edge& edge : edges) {
      in_edges_[in_fill[edge.dst]++] = InEdge{edge.src, edge.delay};
      succ_nodes_[succ_fill[edge.src]++] = edge.dst;
    }
  }

  // Per-PE priority order: node u interferes with node i iff both sit on
  // one PE and rank[u] < rank[i], so i's interferers are the prefix of its
  // PE's group that outranks it, and the nodes it interferes with are the
  // suffix it outranks.
  pe_order_.resize(total_);
  for (std::uint32_t i = 0; i < total_; ++i) pe_order_[i] = i;
  std::sort(pe_order_.begin(), pe_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::tie(pe_of[a], rank[a], a) <
                     std::tie(pe_of[b], rank[b], b);
            });
  pe_ranges_.resize(total_);
  for (std::uint32_t begin = 0; begin < total_;) {
    const std::uint32_t pe = pe_of[pe_order_[begin]];
    std::uint32_t end = begin;
    while (end < total_ && pe_of[pe_order_[end]] == pe) ++end;
    for (std::uint32_t tie = begin; tie < end;) {
      const std::uint64_t r = rank[pe_order_[tie]];
      std::uint32_t next = tie;
      while (next < end && rank[pe_order_[next]] == r) ++next;
      for (std::uint32_t p = tie; p < next; ++p)
        pe_ranges_[pe_order_[p]] = PeRanges{begin, tie, next, end};
      tie = next;
    }
    begin = end;
  }

  // Kahn topological order over the precedence DAG (task graphs are
  // validated acyclic at construction; message nodes split existing edges,
  // so the flattened graph stays a DAG — the throw is a safety net).
  std::vector<std::uint32_t> indegree(total_);
  topo_order_.clear();
  topo_order_.reserve(total_);
  for (std::uint32_t i = 0; i < total_; ++i) {
    indegree[i] = in_offsets_[i + 1] - in_offsets_[i];
    if (indegree[i] == 0) topo_order_.push_back(i);
  }
  for (std::size_t head = 0; head < topo_order_.size(); ++head) {
    const std::uint32_t v = topo_order_[head];
    for (std::uint32_t e = succ_offsets_[v]; e < succ_offsets_[v + 1]; ++e)
      if (--indegree[succ_nodes_[e]] == 0)
        topo_order_.push_back(succ_nodes_[e]);
  }
  if (topo_order_.size() != total_)
    throw std::invalid_argument("HolisticAnalysis: precedence cycle");

  // Transitive reachability over the precedence edges (u ~ i iff u reaches
  // i or i reaches u), packed as one bitset row per node: ancestors
  // accumulate along the topological order, descendants against it.  Edges
  // only exist within a graph, so this is the same-graph relation the
  // interference refinement needs; it also covers message nodes under bus
  // contention.
  words_ = (total_ + 63) / 64;
  related_bits_.assign(total_ * words_, 0);
  std::vector<std::uint64_t> descendants(total_ * words_, 0);
  const auto absorb = [&](std::uint64_t* row, const std::uint64_t* from,
                          std::uint32_t node) {
    row[node >> 6] |= std::uint64_t{1} << (node & 63);
    for (std::size_t w = 0; w < words_; ++w) row[w] |= from[w];
  };
  for (const std::uint32_t v : topo_order_)
    for (std::uint32_t e = in_offsets_[v]; e < in_offsets_[v + 1]; ++e) {
      const std::uint32_t u = in_edges_[e].src;
      absorb(related_bits_.data() + v * words_,
             related_bits_.data() + u * words_, u);
    }
  for (auto it = topo_order_.rbegin(); it != topo_order_.rend(); ++it)
    for (std::uint32_t e = succ_offsets_[*it]; e < succ_offsets_[*it + 1];
         ++e) {
      const std::uint32_t w = succ_nodes_[e];
      absorb(descendants.data() + *it * words_,
             descendants.data() + w * words_, w);
    }
  for (std::size_t k = 0; k < related_bits_.size(); ++k)
    related_bits_[k] |= descendants[k];

  horizon_ = options_.horizon_hyperperiods * hyperperiod;
}

void PreparedProblem::load_bounds(std::span<const ExecBounds> bounds,
                                  model::Time* c_min, model::Time* c_max,
                                  model::Time* release_cutoff) const {
  if (bounds.size() != n_)
    throw std::invalid_argument("HolisticAnalysis: bounds size mismatch");
  for (std::size_t i = 0; i < n_; ++i) {
    if (bounds[i].bcet < 0 || bounds[i].wcet < bounds[i].bcet)
      throw std::invalid_argument("HolisticAnalysis: invalid ExecBounds");
    c_min[i] = hardening::scaled_time(*pe_ref_[i], bounds[i].bcet);
    c_max[i] = hardening::scaled_time(*pe_ref_[i], bounds[i].wcet);
    // Cutoffs at or beyond kUnschedulable are indistinguishable from "no
    // cutoff": release times the operator can actually probe are bounded by
    // start + window + period, far below the sentinel band.  Folding them
    // onto one value keeps results bitwise identical while letting the
    // batch solver's sharing tests recognize kNoCutoff and a diverged
    // trigger window (kUnschedulable) as the same parameter.
    release_cutoff[i] = std::min(bounds[i].release_cutoff, kUnschedulable);
  }
  for (std::size_t q = 0; q < message_src_.size(); ++q) {
    const std::size_t node = n_ + q;
    const std::size_t src = message_src_[q];
    // A message exists exactly when its producer runs; zero-size producer
    // bounds (dropped / inactive tasks) silence the message too.
    c_min[node] = c_min[src] == 0 ? 0 : message_transfer_[q];
    c_max[node] = c_max[src] == 0 ? 0 : message_transfer_[q];
    release_cutoff[node] = release_cutoff[src];
  }
}

void PreparedProblem::best_case(const model::Time* c_min,
                                model::Time* release_cutoff,
                                model::Time* min_start,
                                model::Time* min_finish,
                                model::Time* max_arrival,
                                model::Time* max_finish) const {
  // Interference-free longest path: exact in one topological pass (the
  // original swept to stability, but the DAG fixed point is unique and a
  // topo pass reaches it directly).
  for (const std::uint32_t i : topo_order_) {
    model::Time ready = 0;
    for (std::uint32_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e)
      ready = std::max(ready,
                       min_finish[in_edges_[e].src] + in_edges_[e].delay);
    min_start[i] = ready;
    min_finish[i] = ready + c_min[i];
  }
  for (std::size_t i = 0; i < total_; ++i) {
    // Release grids are fixed once min_start is pinned, so cutoffs can be
    // folded onto their canonical (last-release) values — behavior-
    // preserving, see canonical_cutoff.
    release_cutoff[i] =
        canonical_cutoff(release_cutoff[i], min_start[i], period_[i], horizon_);
    // Worst-case iteration starts from the best-case solution, exactly like
    // the reference sweep (every solver replays its evaluation order, so
    // the whole trajectory — including the divergence verdict — is
    // identical).
    max_arrival[i] = min_start[i];
    max_finish[i] = min_finish[i];
  }
}

// One worst-case re-evaluation of node i — the operator of the original
// monolithic kernel (see holistic.hpp for the formulation):
//
// Offset-aware: all graphs release in phase, so every job of every task
// lives in an absolute window [k*T_u + minStart_u, k*T_u + maxFinish_u]
// relative to the common release.  A job (u, k) can steal CPU inside
// [S, S + w) only if it may be unfinished at S and may arrive before the
// window closes; same-graph precedence excludes the k = 0 job of transitive
// predecessors and successors.  If the single-instance response exceeds the
// task's own period, the offset argument for self-interference breaks and
// the task falls back to the classical jitter-based busy window, which is
// unconditionally safe.  Note the operator is NOT monotone in the node's
// arrival (a later window start can exclude whole interfering jobs), so the
// global fixed point depends on evaluation order; every solver below
// preserves the reference sweep's flat evaluation order exactly.
PreparedProblem::UpdateOutcome PreparedProblem::update_node(
    std::size_t i, const Rows& s) const {
  const model::Time horizon = horizon_;
  const model::Time c_i = s.c_max[i];
  const std::span<const std::uint32_t> higher = interferers(i);
  UpdateOutcome outcome;

  // --- Classical jitter-based bound (fallback / precedence_aware off) ---
  // Release jitter of an interferer is the width of its ready-time band.
  const auto jitter_interference = [&](model::Time w) {
    model::Time total = 0;
    for (const std::uint32_t u : higher) {
      if (s.c_max[u] == 0) continue;
      const model::Time jitter = s.max_arrival[u] - s.min_start[u];
      total += ceil_div(w + jitter, period_[u]) * s.c_max[u];
    }
    return total;
  };

  const auto solve_jitter_window = [&](model::Time base) {
    model::Time w = base;
    for (std::size_t iter = 0; iter < options_.max_inner_iterations; ++iter) {
      const model::Time next = base + jitter_interference(w);
      if (next == w) return w;
      w = next;
      if (w > horizon) return horizon + 1;
    }
    return horizon + 1;
  };

  const auto jitter_fallback = [&](model::Time arrival) {
    // q = 0: the level-i busy window itself.  Past the horizon it is also
    // the only job, and the bound diverges.
    const model::Time busy = solve_jitter_window(c_i);
    if (busy > horizon) return horizon + 1;
    const model::Time own_jobs =
        ceil_div(busy + (arrival - s.min_start[i]), period_[i]);
    model::Time best = busy + arrival;
    for (model::Time q = 1; q < own_jobs; ++q) {
      const model::Time w = solve_jitter_window((q + 1) * c_i);
      if (w > horizon) return horizon + 1;
      best = std::max(best, w + arrival - q * period_[i]);
    }
    return best;
  };

  // --- Offset-aware bound: interference on i inside [start, start + w). ---
  const std::uint64_t* related_row = related_bits_.data() + i * words_;
  const auto offset_interference = [&](model::Time start, model::Time w) {
    const model::Time end = start + w;
    model::Time total = 0;
    for (const std::uint32_t u : higher) {
      const model::Time c = s.c_max[u];
      if (c == 0) continue;
      const model::Time t_u = period_[u];
      // Job k is released at k*t_u + minStart_u and done by
      // k*t_u + maxFinish_u; precedence excludes job 0 of related nodes
      // (edges never cross graphs, so related implies same graph).
      model::Time release = s.min_start[u];
      model::Time finish = s.max_finish[u];
      if ((related_row[u >> 6] >> (u & 63)) & 1u) {
        release += t_u;
        finish += t_u;
      }
      // Jobs released past the cutoff (dropped applications release no
      // further instances once the transition is complete) or at or after
      // the window's end cannot interfere; both tests are monotone in k.
      const model::Time last = std::min(s.release_cutoff[u], end - 1);
      for (; release <= last; release += t_u, finish += t_u)
        if (finish > start) total += c;
    }
    return total;
  };

  const auto solve_offset_window = [&](model::Time start) {
    model::Time w = c_i;
    for (std::size_t iter = 0; iter < options_.max_inner_iterations; ++iter) {
      const model::Time next = c_i + offset_interference(start, w);
      if (next == w) return w;
      w = next;
      if (w > horizon) return horizon + 1;
    }
    return horizon + 1;
  };

  const auto offset_finish = [&](model::Time arrival) {
    // For preemptive fixed priorities the completion of a job is monotone
    // in its arrival (a later arrival can only see less available CPU), so
    // the latest ready time is the worst-case window start.
    const model::Time w = solve_offset_window(arrival);
    if (w > horizon) return horizon + 1;
    return arrival + w;
  };

  model::Time arrival = 0;
  for (std::uint32_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e)
    arrival = std::max(arrival,
                       s.max_finish[in_edges_[e].src] + in_edges_[e].delay);
  if (arrival > horizon) {
    outcome.diverged = true;
    arrival = horizon + 1;
  }

  const bool offset_aware = options_.precedence_aware;
  model::Time finish;
  if (c_i == 0) {
    // Zero-length (dropped / inactive) tasks complete upon readiness.
    finish = arrival;
  } else if (arrival > horizon) {
    finish = horizon + 1;
  } else {
    finish = offset_aware ? offset_finish(arrival) : jitter_fallback(arrival);
    // Self re-arrival: beyond one period the offset argument for the
    // analyzed job no longer holds; use the jitter-based bound.  A finish
    // already past the horizon diverges below whatever the fallback
    // returns, so the fallback is not run for it.
    if (offset_aware && finish > period_[i] && finish <= horizon)
      finish = std::max(finish, jitter_fallback(arrival));
    if (finish > horizon) {
      outcome.diverged = true;
      finish = horizon + 1;
    }
  }

  outcome.raw_changed = arrival != s.max_arrival[i] || finish != s.max_finish[i];
  if (outcome.raw_changed) {
    // Non-decreasing updates only (guarded max), as in the reference sweep.
    const model::Time new_arrival = std::max(s.max_arrival[i], arrival);
    const model::Time new_finish = std::max(s.max_finish[i], finish);
    outcome.stored_changed =
        new_arrival != s.max_arrival[i] || new_finish != s.max_finish[i];
    s.max_arrival[i] = new_arrival;
    s.max_finish[i] = new_finish;
    // Computed window still below the ratcheted state: with unchanged
    // inputs this node will report raw_changed on every future visit.
    outcome.sticky = arrival != new_arrival || finish != new_finish;
  }
  return outcome;
}

void PreparedProblem::worst_case_worklist(Scratch& s) const {
  // Change-driven rounds in the reference sweep's flat order: a round
  // re-evaluates only the nodes whose inputs (the stored windows of their
  // precedence predecessors and interferers) changed since their last
  // visit.  Skipped evaluations are exactly the ones that are no-ops in the
  // reference sweep — unchanged inputs reproduce the previous computed
  // window, which the guarded max already absorbed — so the stored-state
  // trajectory, round for round, is identical to sweeping every node.
  // Within a round the ascending scan preserves the sweep's Gauss-Seidel
  // visibility: when node u's stored window changes, readers with a higher
  // flat index are picked up later in the same round, lower ones next
  // round, exactly as the full sweep would see them.
  //
  // "Sticky" nodes (computed window below the ratcheted stored state) are
  // the one case where the reference sweep re-reports instability without
  // changing any value; once only sticky nodes remain the sweep burns its
  // remaining round budget and lands on the diverged path, which we can
  // take immediately.
  const Rows rows{s.c_max.data(), s.release_cutoff.data(), s.min_start.data(),
                  s.max_arrival.data(), s.max_finish.data()};
  s.dirty.assign(total_, 1);
  s.sticky.assign(total_, 0);
  std::size_t dirty_count = total_;
  std::size_t sticky_count = 0;
  std::uint64_t evals = 0, skips = 0, sticky_hits = 0;
  bool stable = false;
  for (std::size_t outer = 0;
       outer < options_.max_outer_iterations && !stable; ++outer) {
    stable = true;
    for (std::size_t i = 0; i < total_; ++i) {
      if (!s.dirty[i]) {
        ++skips;
        if (s.sticky[i]) {
          ++sticky_hits;
          stable = false;
        }
        continue;
      }
      s.dirty[i] = 0;
      --dirty_count;
      ++evals;
      const UpdateOutcome outcome = update_node(i, rows);
      if (outcome.diverged) s.diverged = true;
      if (outcome.raw_changed) stable = false;
      if (outcome.sticky != static_cast<bool>(s.sticky[i])) {
        s.sticky[i] = outcome.sticky ? 1 : 0;
        outcome.sticky ? ++sticky_count : --sticky_count;
      }
      if (outcome.stored_changed) {
        for_each_dependent(i, [&](std::uint32_t dep) {
          if (!s.dirty[dep]) {
            s.dirty[dep] = 1;
            ++dirty_count;
          }
        });
      }
    }
    // Keep iterating even after a divergence: values clamp at horizon + 1,
    // so the rounds still stabilize, and tasks not involved in the overload
    // (e.g. high-priority critical graphs above diverging dropped ones)
    // retain trustworthy fixed-point bounds.
    //
    // Only sticky nodes left: no stored value can ever change again, so
    // every remaining reference round is a no-op with stable == false — the
    // reference sweep burns its whole round budget and diverges.  (With no
    // sticky nodes the next round is the cheap stability confirmation.)
    if (!stable && dirty_count == 0 && sticky_count > 0) break;
  }
  if (!stable) {
    // Could not certify a fixed point: no value is trustworthy.
    s.diverged = true;
    std::fill(s.max_finish.begin(), s.max_finish.end(), horizon_ + 1);
  }
  KernelCounters& counters = kernel_counters();
  counters.worklist_evals.add(evals);
  counters.worklist_skips.add(skips);
  counters.sticky_hits.add(sticky_hits);
}

void PreparedProblem::solve(std::span<const ExecBounds> bounds,
                            Scratch& s) const {
  s.c_min.resize(total_);
  s.c_max.resize(total_);
  s.release_cutoff.resize(total_);
  s.min_start.resize(total_);
  s.min_finish.resize(total_);
  s.max_arrival.resize(total_);
  s.max_finish.resize(total_);
  load_bounds(bounds, s.c_min.data(), s.c_max.data(), s.release_cutoff.data());
  s.diverged = false;
  best_case(s.c_min.data(), s.release_cutoff.data(), s.min_start.data(),
            s.min_finish.data(), s.max_arrival.data(), s.max_finish.data());
  worst_case_worklist(s);
  KernelCounters& counters = kernel_counters();
  counters.solves.add(1);
  if (s.diverged) counters.diverged.add(1);
}

void PreparedProblem::write_result(const model::Time* min_start,
                                   const model::Time* min_finish,
                                   const model::Time* max_arrival,
                                   const model::Time* max_finish,
                                   bool diverged,
                                   AnalysisResult& result) const {
  result.windows.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    TaskWindow& window = result.windows[i];
    window.min_start = min_start[i];
    window.min_finish = min_finish[i];
    window.max_start = max_arrival[i];
    window.schedulable = max_finish[i] <= horizon_;
    window.max_finish = window.schedulable ? max_finish[i] : kUnschedulable;
  }
  result.schedulable = !diverged;
}

AnalysisResult PreparedProblem::materialize(const Scratch& s) const {
  AnalysisResult result;
  write_result(s.min_start.data(), s.min_finish.data(), s.max_arrival.data(),
               s.max_finish.data(), s.diverged, result);
  return result;
}

AnalysisResult PreparedProblem::solve(
    std::span<const ExecBounds> bounds) const {
  Scratch& scratch = thread_scratch();
  solve(bounds, scratch);
  return materialize(scratch);
}

void PreparedProblem::solve_many(
    std::span<const std::span<const ExecBounds>> scenarios,
    std::span<AnalysisResult> results) const {
  if (scenarios.size() != results.size())
    throw std::invalid_argument("solve_many: scenario/result size mismatch");
  // A single scenario gains nothing from the lane machinery.
  if (scenarios.size() < 2) {
    for (std::size_t k = 0; k < scenarios.size(); ++k)
      results[k] = solve(scenarios[k]);
    return;
  }
  solve_batch(scenarios, thread_batch_scratch(), results);
}

void PreparedProblem::solve_batch(
    std::span<const std::span<const ExecBounds>> scenarios, BatchScratch& b,
    std::span<AnalysisResult> results) const {
  const std::size_t lanes = scenarios.size();

  // ---- SoA state, [lane * total + node] ----------------------------------
  // Lane-major: each lane's cells are contiguous, so one lane's evaluation
  // walks memory exactly like the scalar solver (the dominant access
  // pattern).  Cross-lane compares touch two contiguous regions instead.
  const std::size_t cells = total_ * lanes;
  b.c_min.resize(cells);
  b.c_max.resize(cells);
  b.release_cutoff.resize(cells);
  b.min_start.resize(cells);
  b.min_finish.resize(cells);
  b.max_arrival.resize(cells);
  b.max_finish.resize(cells);
  // Every lane starts all-dirty, exactly like the scalar worklist solver.
  b.dirty.assign(cells, 1);
  b.sticky.assign(cells, 0);
  b.lane_active.assign(lanes, 1);
  b.lane_round_stable.assign(lanes, 1);
  b.lane_diverged.assign(lanes, 0);
  b.lane_exhausted.assign(lanes, 0);
  b.dirty_count.assign(lanes, total_);
  b.sticky_count.assign(lanes, 0);
  b.node_sticky.assign(total_, 0);
  const auto rows_of = [&](std::size_t lane) {
    const std::size_t off = lane * total_;
    return Rows{b.c_max.data() + off, b.release_cutoff.data() + off,
                b.min_start.data() + off, b.max_arrival.data() + off,
                b.max_finish.data() + off};
  };

  // ---- Load, best-case topo pass, and worst-case seed, per lane ----------
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t off = lane * total_;
    load_bounds(scenarios[lane], b.c_min.data() + off, b.c_max.data() + off,
                b.release_cutoff.data() + off);
    best_case(b.c_min.data() + off, b.release_cutoff.data() + off,
              b.min_start.data() + off, b.min_finish.data() + off,
              b.max_arrival.data() + off, b.max_finish.data() + off);
  }

  // ---- Post-fold lane dedup ----------------------------------------------
  // The canonical fold collapses scenarios that differed only in
  // behavior-equivalent cutoffs onto bitwise-equal parameter sets, and the
  // solve is a pure function of (c_min, c_max, release_cutoff): equal
  // parameters mean an identical solution.  Solve the first lane of each
  // class and copy its finished solution into the others at finalization.
  // Signatures gate the quadratic scan so distinct lanes cost one hash.
  constexpr std::uint32_t kNoDup = std::numeric_limits<std::uint32_t>::max();
  b.dup_of.assign(lanes, kNoDup);
  b.lane_sig.resize(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t off = lane * total_;
    util::WordHasher hasher;
    for (std::size_t i = off; i < off + total_; ++i) {
      hasher.feed(b.c_min[i]);
      hasher.feed(b.c_max[i]);
      hasher.feed(b.release_cutoff[i]);
    }
    b.lane_sig[lane] = hasher.digest();
  }
  std::size_t active_count = lanes;
  std::uint64_t dup_lanes = 0;
  const auto same_rows = [&](const std::vector<model::Time>& v,
                             std::size_t off, std::size_t poff) {
    return std::equal(v.begin() + static_cast<std::ptrdiff_t>(off),
                      v.begin() + static_cast<std::ptrdiff_t>(off + total_),
                      v.begin() + static_cast<std::ptrdiff_t>(poff));
  };
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    const std::size_t off = lane * total_;
    for (std::size_t prev = 0; prev < lane; ++prev) {
      if (!b.lane_active[prev] || b.lane_sig[prev] != b.lane_sig[lane])
        continue;
      const std::size_t poff = prev * total_;
      if (!same_rows(b.c_min, off, poff) || !same_rows(b.c_max, off, poff) ||
          !same_rows(b.release_cutoff, off, poff))
        continue;
      b.dup_of[lane] = static_cast<std::uint32_t>(prev);
      b.lane_active[lane] = 0;
      b.dirty_count[lane] = 0;
      --active_count;
      ++dup_lanes;
      break;
    }
  }
  // Retired lanes' never-visited dirty bits are not counted, or the
  // per-node totals would never reach the all-clear fast path.
  b.node_dirty.assign(total_, static_cast<std::uint32_t>(active_count));

  // Cross-lane sharing test: would node i compute the same outcome in lanes
  // `a` and `r`?  The operator reads i's own WCET, best-case start and
  // stored window (the caller compares the pre-visit windows), the stored
  // finish of its precedence sources, and the parameters and stored window
  // of its interferers.
  const auto same_inputs = [&](std::size_t i, const Rows& a, const Rows& r) {
    if (a.c_max[i] != r.c_max[i] || a.min_start[i] != r.min_start[i])
      return false;
    for (std::uint32_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e) {
      const std::uint32_t u = in_edges_[e].src;
      if (a.max_finish[u] != r.max_finish[u]) return false;
    }
    for (const std::uint32_t u : interferers(i)) {
      // Stored windows first: they diverge between lanes far more often
      // than the load-time parameters, so mismatches exit here.
      if (a.max_finish[u] != r.max_finish[u] ||
          a.max_arrival[u] != r.max_arrival[u] || a.c_max[u] != r.c_max[u] ||
          a.release_cutoff[u] != r.release_cutoff[u] ||
          a.min_start[u] != r.min_start[u])
        return false;
    }
    return true;
  };

  // ---- Joint round loop ---------------------------------------------------
  // All lanes advance through the same round index; a lane whose round
  // certifies stability retires.  Each lane runs the scalar worklist body
  // verbatim; the only shortcut is HOW a dirty evaluation is produced: when
  // the last lane evaluated at this (round, node) saw bitwise-equal inputs,
  // its outcome is copied instead of recomputed (the operator is a pure
  // function of those inputs, so the copy is bitwise what the evaluation
  // would return).  During one position only node i's own cells mutate, so
  // the reference lane's pre-visit window is kept aside for the compare.
  std::uint64_t evals = 0, skips = 0, sticky_hits = 0, shared = 0;
  for (std::size_t outer = 0;
       outer < options_.max_outer_iterations && active_count > 0; ++outer) {
    for (std::size_t lane = 0; lane < lanes; ++lane)
      if (b.lane_active[lane]) b.lane_round_stable[lane] = 1;
    for (std::size_t i = 0; i < total_; ++i) {
      // All-clear fast path: when no lane has a dirty or sticky bit here,
      // every active lane would take the skip branch with no side effect
      // beyond the `skips` tally — take it for all of them in one test.
      if (b.node_dirty[i] == 0 && b.node_sticky[i] == 0) {
        skips += active_count;
        continue;
      }
      bool have_ref = false;
      Rows ref{};
      model::Time ref_pre_arrival = 0, ref_pre_finish = 0;
      UpdateOutcome ref_outcome;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (!b.lane_active[lane]) continue;
        const std::size_t x = lane * total_ + i;
        if (!b.dirty[x]) {
          ++skips;
          if (b.sticky[x]) {
            ++sticky_hits;
            b.lane_round_stable[lane] = 0;
          }
          continue;
        }
        b.dirty[x] = 0;
        --b.dirty_count[lane];
        --b.node_dirty[i];
        const Rows rows = rows_of(lane);
        const model::Time pre_arrival = rows.max_arrival[i];
        const model::Time pre_finish = rows.max_finish[i];
        UpdateOutcome outcome;
        if (have_ref && pre_arrival == ref_pre_arrival &&
            pre_finish == ref_pre_finish && same_inputs(i, rows, ref)) {
          outcome = ref_outcome;
          rows.max_arrival[i] = ref.max_arrival[i];
          rows.max_finish[i] = ref.max_finish[i];
          ++shared;
        } else {
          ++evals;
          outcome = update_node(i, rows);
        }
        have_ref = true;
        ref = rows;
        ref_pre_arrival = pre_arrival;
        ref_pre_finish = pre_finish;
        ref_outcome = outcome;
        if (outcome.diverged) b.lane_diverged[lane] = 1;
        if (outcome.raw_changed) b.lane_round_stable[lane] = 0;
        if (outcome.sticky != (b.sticky[x] != 0)) {
          b.sticky[x] = outcome.sticky ? 1 : 0;
          outcome.sticky ? ++b.sticky_count[lane] : --b.sticky_count[lane];
          outcome.sticky ? ++b.node_sticky[i] : --b.node_sticky[i];
        }
        if (outcome.stored_changed) {
          const std::size_t off = lane * total_;
          for_each_dependent(i, [&](std::uint32_t dep) {
            if (!b.dirty[off + dep]) {
              b.dirty[off + dep] = 1;
              ++b.dirty_count[lane];
              ++b.node_dirty[dep];
            }
          });
        }
      }
    }
    // Round verdicts — the scalar solver's exit tests, per lane.  A retired
    // lane's leftover dirty/sticky bits are released from the per-node
    // totals (they would never be visited again) so the all-clear fast
    // path keeps firing for the lanes still running.
    const auto retire = [&](std::size_t lane) {
      b.lane_active[lane] = 0;
      --active_count;
      const std::size_t off = lane * total_;
      for (std::size_t i = 0; i < total_; ++i) {
        if (b.dirty[off + i]) {
          b.dirty[off + i] = 0;
          --b.node_dirty[i];
        }
        if (b.sticky[off + i]) {
          b.sticky[off + i] = 0;
          --b.node_sticky[i];
        }
      }
    };
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (!b.lane_active[lane]) continue;
      if (b.lane_round_stable[lane] != 0) {
        retire(lane);
        continue;
      }
      if (b.dirty_count[lane] != 0) continue;
      // No dirty work left: with sticky nodes the scalar loop would burn
      // its remaining rounds re-reporting them and diverge (its early
      // break); without, the next round is the cheap all-skip confirmation
      // — certifying iff it still fits the budget.
      if (b.sticky_count[lane] != 0 ||
          outer + 1 >= options_.max_outer_iterations)
        b.lane_exhausted[lane] = 1;
      retire(lane);
    }
  }

  // ---- Per-lane finalization ---------------------------------------------
  std::uint64_t diverged_lanes = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t off = lane * total_;
    if (b.dup_of[lane] != kNoDup) {
      // The class primary has a lower index, so its state (including any
      // divergence fill) is already final — copy it wholesale.
      const std::size_t p = b.dup_of[lane];
      const std::size_t poff = p * total_;
      std::copy_n(b.max_arrival.begin() + static_cast<std::ptrdiff_t>(poff),
                  total_,
                  b.max_arrival.begin() + static_cast<std::ptrdiff_t>(off));
      std::copy_n(b.max_finish.begin() + static_cast<std::ptrdiff_t>(poff),
                  total_,
                  b.max_finish.begin() + static_cast<std::ptrdiff_t>(off));
      b.lane_diverged[lane] = b.lane_diverged[p];
    } else if (b.lane_active[lane] || b.lane_exhausted[lane]) {
      // Round budget exhausted (or provably would be) without certifying a
      // fixed point.
      b.lane_diverged[lane] = 1;
      std::fill_n(b.max_finish.begin() + static_cast<std::ptrdiff_t>(off),
                  total_, horizon_ + 1);
    }
    if (b.lane_diverged[lane]) ++diverged_lanes;
    write_result(b.min_start.data() + off, b.min_finish.data() + off,
                 b.max_arrival.data() + off, b.max_finish.data() + off,
                 b.lane_diverged[lane] != 0, results[lane]);
  }

  KernelCounters& counters = kernel_counters();
  counters.solves.add(lanes);
  counters.diverged.add(diverged_lanes);
  counters.worklist_skips.add(skips);
  counters.sticky_hits.add(sticky_hits);
  counters.batch_solves.add(1);
  counters.batch_lanes.add(lanes);
  counters.batch_evals.add(evals);
  counters.batch_shared.add(shared);
  counters.batch_dups.add(dup_lanes);
}

PreparedProblem::Scratch& PreparedProblem::thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

PreparedProblem::BatchScratch& PreparedProblem::thread_batch_scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

}  // namespace ftmc::sched
