#include "ftmc/core/mc_analysis.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "ftmc/obs/metrics.hpp"
#include "ftmc/obs/trace.hpp"
#include "ftmc/util/hash.hpp"
#include "ftmc/util/lease.hpp"
#include "ftmc/util/thread_pool.hpp"

namespace ftmc::core {

namespace {

/// Algorithm-1 orchestration counters (flushed with plain adds; nothing the
/// analysis computes ever reads them back).
struct AnalysisCounters {
  obs::Counter prepares{"analysis.prepares"};
  obs::Counter scenarios{"analysis.scenarios"};
  obs::Counter dedup_hits{"analysis.scenario_dedup_hits"};
  obs::Counter solves{"analysis.scenario_solves"};
  /// Unique scenarios left unsolved because the saturation probe already
  /// pinned the bound at Naive everywhere.
  obs::Counter saturation_skips{"analysis.saturation_skips"};
  /// Sparse scenario edits recorded (each is one task whose bounds differ
  /// from the all-critical template).
  obs::Counter bounds_edits{"analysis.bounds_edits"};
};

AnalysisCounters& analysis_counters() {
  static AnalysisCounters counters;
  return counters;
}

/// One sparse scenario edit: replace the template bounds at `index`.
struct ScenarioEdit {
  std::uint32_t index;
  sched::ExecBounds bounds;
  bool operator==(const ScenarioEdit&) const = default;
};

/// Per-candidate scenario scratch.  Every container is cleared (never
/// shrunk) between analyze() calls, so a warmed-up arena builds, dedupes,
/// sorts, solves, and merges all scenarios of a candidate without touching
/// the allocator.  Leased per call (util::ThreadLease): a nested analyze()
/// on this thread gets an arena of its own.
struct ScenarioArena {
  struct Slice {
    std::size_t begin = 0;
    std::size_t count = 0;
    std::uint64_t hash = 0;
  };
  // Per-task tables, built once per candidate; scenario classification
  // reads only these and the normal-state windows.
  std::vector<sched::ExecBounds> nominal;  ///< normal-state bounds
  std::vector<sched::ExecBounds> base;     ///< all-critical template
  std::vector<std::uint8_t> dropped;       ///< task's graph is in T_d
  std::vector<ScenarioEdit> edits;       ///< slices of per-scenario edits
  std::vector<Slice> slices;             ///< one per unique scenario
  /// Dedup table, open addressing with linear probing: 1 + the index of a
  /// unique scenario's slice, or 0 for an empty slot.
  std::vector<std::uint32_t> dedup_slots;
  std::vector<std::size_t> order;        ///< similarity-sorted slice indices
  std::vector<sched::ExecBounds> lanes;  ///< materialized unique scenarios
  std::vector<std::span<const sched::ExecBounds>> lane_views;
  std::vector<sched::ExecBounds> naive_bounds;
  std::vector<sched::AnalysisResult> results;
  std::vector<model::Time> scenario_part;
  std::vector<model::Time> naive_part;
};

}  // namespace

void validate_drop_set(const model::ApplicationSet& apps,
                       const DropSet& drop) {
  if (drop.size() != apps.graph_count())
    throw std::invalid_argument("DropSet: size does not match graph count");
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    if (drop[g] && !apps.graph(model::GraphId{g}).droppable())
      throw std::invalid_argument("DropSet: graph '" +
                                  apps.graph(model::GraphId{g}).name() +
                                  "' is not droppable");
  }
}

void validate_drop_set(const hardening::HardenedView& view,
                       const DropSet& drop) {
  if (drop.size() != view.graph_count())
    throw std::invalid_argument("DropSet: size does not match graph count");
  for (std::uint32_t g = 0; g < view.graph_count(); ++g) {
    if (drop[g] && view.droppable[g] == 0)
      throw std::invalid_argument(
          "DropSet: graph '" + view.source->graph(model::GraphId{g}).name() +
          "' is not droppable");
  }
}

model::Time McAnalysisResult::graph_wcrt(const hardening::HardenedView& view,
                                         model::GraphId graph) const {
  model::Time result = 0;
  for (std::uint32_t s = view.sink_offsets[graph.value];
       s < view.sink_offsets[graph.value + 1]; ++s)
    result = std::max(result, wcrt.at(view.sinks[s]));
  return result;
}

model::Time McAnalysisResult::graph_wcrt(const model::ApplicationSet& apps,
                                         model::GraphId graph) const {
  const model::TaskGraph& g = apps.graph(graph);
  model::Time result = 0;
  for (std::uint32_t sink : g.sinks())
    result = std::max(result, wcrt.at(apps.flat_index({graph.value, sink})));
  return result;
}

namespace {

/// Deadline verdict for one backend run, restricted to non-dropped graphs
/// (dropped applications have no guarantee in the critical state).
bool non_dropped_meet_deadlines(const hardening::HardenedView& view,
                                const sched::AnalysisResult& result,
                                const DropSet& drop) {
  for (std::uint32_t g = 0; g < view.graph_count(); ++g) {
    if (drop[g]) continue;
    if (result.graph_wcrt(view, model::GraphId{g}) > view.period[g])
      return false;
  }
  return true;
}

void merge_wcrt(std::vector<model::Time>& wcrt,
                const sched::AnalysisResult& result) {
  for (std::size_t i = 0; i < wcrt.size(); ++i)
    wcrt[i] = std::max(wcrt[i], result.windows[i].max_finish);
}

/// Naive bounds: every hardened task at its critical bounds, and every task
/// of a dropped application with a zero BCET (it may vanish at any point).
const std::vector<sched::ExecBounds>& naive_bounds(ScenarioArena& arena) {
  arena.naive_bounds.assign(arena.base.begin(), arena.base.end());
  for (std::size_t i = 0; i < arena.naive_bounds.size(); ++i)
    if (arena.dropped[i]) arena.naive_bounds[i].bcet = 0;
  return arena.naive_bounds;
}

}  // namespace

McAnalysisResult McAnalysis::analyze(const model::Architecture& arch,
                                     const hardening::HardenedView& view,
                                     const DropSet& drop, Mode mode,
                                     util::ThreadPool* pool) const {
  validate_drop_set(view, drop);
  const std::size_t n = view.node_count();
  const auto priorities = sched::assign_priorities(view, policy_);
  util::ThreadLease<ScenarioArena> lease;
  ScenarioArena& arena = *lease;

  // Every backend run below analyzes the same candidate (mapping +
  // priorities) against a different bounds vector, so the problem build is
  // done once here and amortized over the normal state, the Naive pass, and
  // every transition scenario (prepare-once/solve-N; the fallback adapter
  // keeps third-party backends working unchanged).
  const std::unique_ptr<sched::PreparedAnalysis> prepared = [&] {
    obs::Span span("analysis.prepare");
    analysis_counters().prepares.add(1);
    return backend_->prepare(arch, view, priorities);
  }();

  arena.nominal.resize(n);
  arena.base.resize(n);
  arena.dropped.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    arena.nominal[i] = nominal_bounds(view, i);
    arena.base[i] = critical_bounds(view, i);
    arena.dropped[i] = drop[view.graph_of(i)] ? 1 : 0;
  }

  McAnalysisResult result;

  // --- Normal state (lines 2-9): passive standbys at [0,0], no faults. ---
  result.normal = prepared->solve(arena.nominal);
  result.scenario_solves = 1;
  // Divergent tasks carry kUnschedulable finishes, so the deadline check
  // subsumes the global schedulability flag per graph.
  result.normal_schedulable = result.normal.meets_deadlines(view);
  result.wcrt.assign(n, 0);
  merge_wcrt(result.wcrt, result.normal);

  if (mode == Mode::kNaive) {
    // Single pessimistic pass: every task of a dropped application gets a
    // zero BCET (it may silently vanish at any point of the hyperperiod),
    // every hardened task its full critical bounds.  No chronological
    // reasoning — this is the estimator Table 2 calls "Naive".
    const auto run = prepared->solve(naive_bounds(arena));
    merge_wcrt(result.wcrt, run);
    result.critical_schedulable = non_dropped_meet_deadlines(view, run, drop);
    result.scenario_count = 1;
    result.scenario_solves = 2;
    return result;
  }

  // --- Algorithm 1, lines 10-34: one scenario per possible trigger. ------
  //
  // Each scenario bound and the Naive single-pass bound are independently
  // safe, so the reported WCRT takes the pointwise minimum of
  // max-over-scenarios and Naive.  (The backend's offset-aware interference
  // test is not monotone in the input bounds — a later arrival excludes
  // more already-finished jobs — so Naive >= scenario-max is not structural;
  // intersecting the two keeps Algorithm 1 at least as tight as Naive
  // everywhere, which is also how the paper presents it.)
  //
  // The Naive pass and every scenario depend only on the normal-state
  // windows computed above, never on each other, so they form independent
  // work units.  Three optimizations, all observationally invisible:
  //
  //  1. Dedup: a scenario's bounds vector is a pure function of the
  //     trigger's normal-state window (the trigger keeps critical_bounds),
  //     so triggers whose windows classify every task identically produce
  //     byte-identical backend invocations.  The backend is a deterministic
  //     pure function, so each distinct bounds vector is analyzed once and
  //     its result stands in for all its triggers.
  //  2. Saturation probe: the final bound is max(normal, min(S, Naive)),
  //     S the pointwise max over the scenarios.  Once S >= Naive at every
  //     task, further scenarios can only raise S and min(S, Naive) stays
  //     Naive, so they cannot change any output.  The Naive pass runs
  //     first, then the last scenario of the similarity order (the most
  //     pessimistic one) alone; when it saturates, the others are never
  //     materialized or solved.  The argument uses only this merge
  //     algebra, nothing about the backend — unlike pruning a scenario
  //     whose *input* bounds are dominated, which the non-monotone
  //     operator above makes unsound.
  //  3. Parallelism + batching: the remaining unique scenarios go to
  //     solve_many() — all of them in one batch, or one chunk per worker
  //     when a pool is given.  Each chunk writes into its own result slots
  //     and the merge below is a pointwise max over integers, so chunk
  //     width and thread count are bitwise irrelevant.
  std::vector<std::size_t> triggers;
  for (std::size_t v = 0; v < n; ++v)
    if (view.info[v].triggers_critical_state) triggers.push_back(v);
  result.scenario_count = triggers.size();

  // No trigger means no critical-state transition: the normal-state bound
  // already is the final WCRT and the Naive intersection pass would be
  // discarded unread — skip all of it.
  if (triggers.empty()) return result;

  // Construction: each scenario is the all-critical template plus a sparse
  // edit list (tasks finished before the trigger, drop-set zeroing,
  // release cutoffs).  An edit is recorded only when the classified
  // bounds differ from the template, so two scenarios have equal full
  // bounds vectors exactly when their edit lists are equal — dedup over
  // edit lists is equivalent to dedup over full vectors, at a fraction
  // of the bytes hashed and compared.
  //
  // Classification of task w in the scenario triggered by v (Algorithm 1
  // lines 12-27) reads the per-task tables: the trigger certainly
  // re-executes or is activated, Eq. (1) (it keeps its
  // critical_bounds, no edit); a task finished before the trigger's window
  // opens runs in the normal state (lines 14-17; nominal bounds are [0, 0]
  // for passive standbys); a dropped task that starts only after the
  // transition completed is certainly dropped (lines 20-21); a dropped task
  // inside the window either runs or is dropped (line 23) — the paper
  // writes [0, wcet], we use the critical WCET so the bound stays safe for
  // hardened droppable tasks too, and the release cutoff at the
  // transition's end keeps later instances from releasing (Figure 3, task
  // w2); every other task may run in the critical state (line 26) and
  // keeps its critical bounds (no edit).  The test-only oracle
  // (tests/oracle/mc_analysis_oracle.hpp) applies the same rules one full
  // bounds vector at a time.
  arena.edits.clear();
  arena.slices.clear();
  const std::size_t table_size = std::bit_ceil(2 * triggers.size());
  const std::size_t mask = table_size - 1;
  arena.dedup_slots.assign(table_size, 0);
  std::uint64_t edit_count = 0;
  for (const std::size_t v : triggers) {
    const model::Time v_min_start = result.normal.windows[v].min_start;
    const model::Time v_max_finish = result.normal.windows[v].max_finish;
    const std::size_t begin = arena.edits.size();
    util::WordHasher hasher;
    auto edit = [&](std::size_t w, const sched::ExecBounds& bounds) {
      if (bounds == arena.base[w]) return;
      arena.edits.push_back({static_cast<std::uint32_t>(w), bounds});
      hasher.feed(w);
      hasher.feed(bounds.bcet);
      hasher.feed(bounds.wcet);
      hasher.feed(bounds.release_cutoff);
    };
    for (std::size_t w = 0; w < n; ++w) {
      if (w == v) continue;
      const sched::TaskWindow& window = result.normal.windows[w];
      if (window.max_finish < v_min_start)
        edit(w, arena.nominal[w]);
      else if (arena.dropped[w] && window.min_start > v_max_finish)
        edit(w, {0, 0});
      else if (arena.dropped[w])
        edit(w, {0, arena.base[w].wcet, v_max_finish});
    }
    const std::size_t count = arena.edits.size() - begin;
    // Hash-keyed dedup, first-occurrence order preserved; exact equality
    // is verified against every same-hash entry (degrade-to-miss, same
    // contract as EvaluationCache).  Nothing is ever removed from the
    // table, so every same-hash entry lies on the probe run before the
    // first empty slot.
    const std::uint64_t hash = hasher.digest();
    std::size_t slot = static_cast<std::size_t>(hash) & mask;
    bool seen = false;
    for (; arena.dedup_slots[slot] != 0; slot = (slot + 1) & mask) {
      const ScenarioArena::Slice& slice =
          arena.slices[arena.dedup_slots[slot] - 1];
      if (slice.hash == hash && slice.count == count &&
          std::equal(arena.edits.begin() +
                         static_cast<std::ptrdiff_t>(slice.begin),
                     arena.edits.begin() +
                         static_cast<std::ptrdiff_t>(slice.begin + count),
                     arena.edits.begin() +
                         static_cast<std::ptrdiff_t>(begin))) {
        seen = true;
        break;
      }
    }
    if (seen) {
      arena.edits.resize(begin);
      continue;
    }
    arena.slices.push_back({begin, count, hash});
    arena.dedup_slots[slot] = static_cast<std::uint32_t>(arena.slices.size());
    edit_count += count;
  }
  analysis_counters().bounds_edits.add(edit_count);
  const std::size_t unique = arena.slices.size();

  // Similarity sort (order is observationally free; it clusters nearby
  // scenarios into the same solve_many chunk for the batched kernel's
  // cross-lane sharing, and its last entry, which against every other
  // scenario has the larger bounds at the first task where the two differ,
  // is the saturation probe).  The comparator merge-walks the two edit lists
  // and compares *effective* values in (wcet, release_cutoff, bcet)
  // field order; positions edited in neither scenario hold the template
  // value in both, so skipping them reproduces exactly the order the
  // full-vector lexicographic sort would produce.
  arena.order.resize(unique);
  std::iota(arena.order.begin(), arena.order.end(), std::size_t{0});
  constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();
  std::sort(arena.order.begin(), arena.order.end(),
            [&](std::size_t ia, std::size_t ib) {
              const ScenarioArena::Slice& sa = arena.slices[ia];
              const ScenarioArena::Slice& sb = arena.slices[ib];
              const ScenarioEdit* a = arena.edits.data() + sa.begin;
              const ScenarioEdit* const ae = a + sa.count;
              const ScenarioEdit* b = arena.edits.data() + sb.begin;
              const ScenarioEdit* const be = b + sb.count;
              while (a != ae || b != be) {
                const std::uint32_t ai = a != ae ? a->index : kEnd;
                const std::uint32_t bi = b != be ? b->index : kEnd;
                const std::uint32_t i = std::min(ai, bi);
                const sched::ExecBounds& va =
                    ai == i ? (a++)->bounds : arena.base[i];
                const sched::ExecBounds& vb =
                    bi == i ? (b++)->bounds : arena.base[i];
                if (va.wcet != vb.wcet) return va.wcet < vb.wcet;
                if (va.release_cutoff != vb.release_cutoff)
                  return va.release_cutoff < vb.release_cutoff;
                if (va.bcet != vb.bcet) return va.bcet < vb.bcet;
              }
              return false;
            });

  analysis_counters().scenarios.add(triggers.size());
  analysis_counters().dedup_hits.add(triggers.size() - unique);
  result.scenario_solves = 2 + unique;

  arena.naive_part.assign(n, 0);
  {
    obs::Span span("analysis.solve");
    analysis_counters().solves.add(1);
    const auto run = prepared->solve(naive_bounds(arena));
    for (std::size_t i = 0; i < n; ++i)
      arena.naive_part[i] = run.windows[i].max_finish;
  }

  // Scenario p of the similarity order is materialized into lane p of a
  // contiguous lane buffer (template copy + sparse edits); the solvers
  // read the views in place, with no per-scenario vector ever built.
  arena.lanes.resize(unique * n);
  arena.lane_views.resize(unique);
  const auto materialize = [&](std::size_t p) {
    sched::ExecBounds* const lane = arena.lanes.data() + p * n;
    std::copy(arena.base.begin(), arena.base.end(), lane);
    const ScenarioArena::Slice& slice = arena.slices[arena.order[p]];
    for (std::size_t e = 0; e < slice.count; ++e) {
      const ScenarioEdit& edit = arena.edits[slice.begin + e];
      lane[edit.index] = edit.bounds;
    }
    arena.lane_views[p] = std::span<const sched::ExecBounds>(lane, n);
  };
  arena.scenario_part.assign(n, 0);
  const auto merge_scenario = [&](const sched::AnalysisResult& run) {
    for (std::size_t i = 0; i < n; ++i)
      arena.scenario_part[i] =
          std::max(arena.scenario_part[i], run.windows[i].max_finish);
  };

  // Saturation probe: the last scenario of the order, solved alone.  Its
  // lane index is also the number of scenarios before it (`rest`).
  const std::size_t rest = unique - 1;
  materialize(rest);
  {
    obs::Span span("analysis.solve");
    analysis_counters().solves.add(1);
    merge_scenario(prepared->solve(arena.lane_views[rest]));
  }
  bool saturated = true;
  for (std::size_t i = 0; i < n && saturated; ++i)
    saturated = arena.scenario_part[i] >= arena.naive_part[i];

  if (saturated) {
    analysis_counters().saturation_skips.add(rest);
  } else if (rest > 0) {
    // Scenario fan-out: the other unique scenarios in one solve_many()
    // batch, or one chunk per worker when a pool is given.  Each chunk
    // solves against the shared immutable prepared problem on this
    // worker's thread-local arenas, so the fan-out allocates nothing per
    // scenario in the kernel; the result slots come from this arena too
    // (the batched solver finalizes in place, so warmed slots keep their
    // capacity).
    for (std::size_t p = 0; p < rest; ++p) materialize(p);
    const std::size_t workers =
        pool != nullptr ? std::max<std::size_t>(1, pool->thread_count()) : 1;
    const std::size_t width = (rest + workers - 1) / workers;
    const std::size_t chunks = (rest + width - 1) / width;
    arena.results.resize(rest);
    auto run_chunk = [&](std::size_t chunk) {
      obs::Span span("analysis.solve");
      const std::size_t begin = chunk * width;
      const std::size_t count = std::min(width, rest - begin);
      analysis_counters().solves.add(count);
      prepared->solve_many(
          std::span<const std::span<const sched::ExecBounds>>(
              arena.lane_views)
              .subspan(begin, count),
          std::span<sched::AnalysisResult>(arena.results)
              .subspan(begin, count));
    };
    if (pool != nullptr && chunks > 1) {
      pool->parallel_for(chunks, run_chunk);
    } else {
      for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
    }
    for (std::size_t k = 0; k < rest; ++k) merge_scenario(arena.results[k]);
  }

  for (std::size_t i = 0; i < n; ++i)
    result.wcrt[i] = std::max(
        result.wcrt[i], std::min(arena.scenario_part[i], arena.naive_part[i]));

  // Critical-state verdict from the combined bound: every non-dropped graph
  // must meet its deadline under the final WCRT.
  result.critical_schedulable = true;
  for (std::uint32_t g = 0; g < view.graph_count(); ++g) {
    if (drop[g]) continue;
    if (result.graph_wcrt(view, model::GraphId{g}) > view.period[g])
      result.critical_schedulable = false;
  }
  return result;
}

}  // namespace ftmc::core
