// Prepared holistic analysis kernel: build the problem once, solve N times.
//
// Algorithm 1 analyzes one candidate (mapping + priorities) against many
// exec-bounds vectors — one per transition scenario.  Everything except the
// bounds is scenario-invariant: the flattened node set (tasks + bus message
// nodes), the precedence edges, the per-PE priority order, the transitive
// same-graph relation matrix, and the analysis horizon.  PreparedProblem
// captures all of that once, in flat arrays (CSR edge lists; each node's
// interferers and lower-priority neighbours are ranges of its PE's priority
// order); solve(bounds, scratch) then runs the best-case and worst-case fixed
// points against caller-owned scratch buffers with no per-scenario
// allocation (scratch grows on first use and is reused across scenarios and
// candidates).
//
// Beyond amortizing construction, the kernel is faster than the seed
// kernel (kept as the test-only oracle in tests/oracle/) in four ways:
//   - the relation matrix is a packed 64-bit bitset row matrix instead of
//     vector<vector<bool>> (one load + mask per membership test, rows hot in
//     cache during the interference inner loop);
//   - the best-case bound is a single topological pass (it is an exact DAG
//     longest path, so sweeping to stability is redundant);
//   - the offset-aware interference scan steps each interferer's release
//     grid instead of dividing for its job count;
//   - the worst-case global fixed point, after the first round, only
//     re-evaluates nodes whose inputs changed (change-driven worklist)
//     instead of every node every sweep.
//
// Batched scenario solving sits on top: solve_many() lays the scenarios out
// as structure-of-arrays lanes (state indexed [lane * total + node], so each
// lane's evaluation walks memory exactly like the scalar solver) and runs
// them through one joint round loop.  Visiting the same (round, node) across
// all lanes back to back is what lets one lane's evaluation stand in for the
// next one's when their operator inputs are equal (cross-lane sharing), and
// lanes whose folded parameters are equal are solved once.  Lanes are fully
// independent, so the interleaving is trivially bit-identical to solving
// them one by one.
//
// The scalar solve() (one scenario) and the batched solve_many() return
// bit-identical results to each other and to the reference full sweep that
// the test-only oracle runs (tests/oracle/, pinned by
// tests/test_kernel_fuzz.cpp and tests/test_prepared_problem.cpp).  That
// identity is by trajectory, not by fixed-point theory: the offset-aware
// worst-case operator is NOT monotone in a node's arrival (shifting a busy
// window right can drop whole interfering jobs), so different evaluation
// orders can ratchet the guarded-max state to different fixed points.  The
// worklist therefore visits dirty nodes in the reference sweep's flat order
// and skips exactly the evaluations that are provably no-ops there — same
// inputs as the previous visit implies the same computed window, which the
// guarded max already absorbed.  Nodes whose computed window stays below the
// ratcheted state ("sticky") keep the reference sweep unstable until its
// round budget exhausts; the worklist tracks them and reproduces that
// divergence verdict without burning the rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "ftmc/sched/holistic.hpp"

namespace ftmc::sched {

class PreparedProblem final : public PreparedAnalysis {
 public:
  /// Caller-owned solve state.  All vectors are resized on demand and keep
  /// their capacity, so reusing one Scratch across solve() calls (and across
  /// PreparedProblems) makes the per-scenario allocation count zero.
  struct Scratch {
    // Per-solve problem inputs (bounds-dependent node parameters).
    std::vector<model::Time> c_min, c_max, release_cutoff;
    // Fixed-point state: best-case ready/finish, worst-case ready/finish.
    std::vector<model::Time> min_start, min_finish, max_arrival, max_finish;
    // Worklist: nodes whose inputs changed since their last visit, and
    // nodes whose last computed window differs from the ratcheted state
    // (these keep the reference sweep unstable; see worst_case_worklist).
    std::vector<std::uint8_t> dirty;
    std::vector<std::uint8_t> sticky;
    bool diverged = false;
  };

  /// Builds the bounds-independent problem structure.  All references are
  /// borrowed: arch and apps (and the backing mapping) must outlive this
  /// object; `priorities` is copied.  Throws std::invalid_argument on a
  /// mapping/priorities shape mismatch, exactly like the monolithic entry.
  PreparedProblem(const model::Architecture& arch,
                  const model::ApplicationSet& apps,
                  const model::Mapping& mapping,
                  std::span<const std::uint32_t> priorities,
                  const HolisticAnalysis::Options& options);

  /// The same problem for a hardened T' given as a flat view; bitwise
  /// equal to building it from the materialized (apps, mapping).  Only
  /// `arch` is borrowed past construction.
  PreparedProblem(const model::Architecture& arch,
                  const hardening::HardenedView& view,
                  std::span<const std::uint32_t> priorities,
                  const HolisticAnalysis::Options& options);

  /// Application tasks (result windows cover exactly these).
  std::size_t task_count() const noexcept { return n_; }
  /// Tasks plus bus message nodes (internal fixed-point width).
  std::size_t node_count() const noexcept { return total_; }

  /// Runs both fixed points for one bounds vector, leaving the solution in
  /// `scratch` (read it back via materialize).  Zero allocation once the
  /// scratch has reached this problem's size.  Thread-safe: `this` is
  /// immutable after construction; concurrent callers need distinct scratch.
  void solve(std::span<const ExecBounds> bounds, Scratch& scratch) const;

  /// Packages a solved scratch into the public result form.
  AnalysisResult materialize(const Scratch& scratch) const;

  /// PreparedAnalysis entry: solve on this worker's arena scratch.
  AnalysisResult solve(std::span<const ExecBounds> bounds) const override;

  /// Batched scenario fan-out (see header notes): two or more scenarios
  /// run as lanes of one round loop; a single scenario takes the scalar
  /// path.  Bitwise identical to per-scenario solve().
  void solve_many(std::span<const std::span<const ExecBounds>> scenarios,
                  std::span<AnalysisResult> results) const override;
  using PreparedAnalysis::solve_many;

  /// Per-worker scratch arena (thread-local), reused by every solve() on
  /// any PreparedProblem this thread touches — across scenarios, candidates,
  /// and GA generations.
  static Scratch& thread_scratch();

 private:
  struct InEdge {
    std::uint32_t src;
    model::Time delay;
  };

  /// Positions in pe_order_ of a node's same-PE neighbours: [higher_begin,
  /// higher_end) outrank it (its interferers), [lower_begin, lower_end) rank
  /// below it (the nodes it interferes with).  Equal ranks are in neither.
  struct PeRanges {
    std::uint32_t higher_begin, higher_end, lower_begin, lower_end;
  };

  /// Caller-owned state of one batched solve: structure-of-arrays over
  /// `lanes` scenarios, state indexed [lane * total + node].  Same reuse
  /// contract as Scratch (grows on demand, keeps capacity).
  struct BatchScratch {
    // Per (node, lane) fixed-point state.
    std::vector<model::Time> c_min, c_max, release_cutoff;
    std::vector<model::Time> min_start, min_finish, max_arrival, max_finish;
    std::vector<std::uint8_t> dirty, sticky;
    // Per-lane round state.
    std::vector<std::uint8_t> lane_active, lane_round_stable, lane_diverged;
    /// Lane proven to never certify a round within the budget (all-sticky
    /// with no dirty work left — the scalar solver's early break): retired
    /// onto the same diverged fill the exhausted-budget path produces.
    std::vector<std::uint8_t> lane_exhausted;
    std::vector<std::size_t> dirty_count, sticky_count;
    /// Per-node counts of set dirty/sticky bits across lanes: a joint-scan
    /// position with both counts zero is skipped for all lanes in one test.
    std::vector<std::uint32_t> node_dirty, node_sticky;
    /// Post-fold lane dedup: earlier lane with a bitwise-equal parameter
    /// set (solved once, its solution copied at finalization), and each
    /// lane's parameter-set signature gating the full compare.
    std::vector<std::uint32_t> dup_of;
    std::vector<std::uint64_t> lane_sig;
  };

  /// One scenario's rows (the scalar Scratch, or one lane of a batch): the
  /// worst-case operator reads the parameters and ratchets the windows.
  struct Rows {
    const model::Time* c_max;
    const model::Time* release_cutoff;
    const model::Time* min_start;
    model::Time* max_arrival;
    model::Time* max_finish;
  };

  /// Outcome of one worst-case node evaluation.  `raw_changed` mirrors the
  /// reference sweep's stability test (computed != stored before the guarded
  /// max); `stored_changed` reports whether the guarded max actually moved
  /// the stored window, i.e. whether readers of this node see new inputs;
  /// `sticky` means re-evaluating with unchanged inputs would report
  /// raw_changed again (computed window below the ratcheted state);
  /// `diverged` reports a bound past the horizon (the caller ORs it into
  /// the solve-level flag).
  struct UpdateOutcome {
    bool raw_changed = false;
    bool stored_changed = false;
    bool sticky = false;
    bool diverged = false;
  };

  /// The one construction routine both constructors feed: per task its
  /// PE and period, and the channels with flat endpoints in T' order
  /// (graph-major, each graph's channel order).  Remote channels become
  /// message nodes in the order they are met, so that order is part of
  /// the result.
  template <class PeriodOf>
  void build(const model::Architecture& arch,
             std::span<const model::ProcessorId> pe,
             std::span<const model::Channel> channels, PeriodOf period_of,
             model::Time hyperperiod,
             std::span<const std::uint32_t> priorities);

  std::span<const std::uint32_t> interferers(std::size_t i) const noexcept {
    return {pe_order_.data() + pe_ranges_[i].higher_begin,
            pe_order_.data() + pe_ranges_[i].higher_end};
  }
  /// Calls fn(dep) for every node whose worst-case equation reads u's
  /// window: precedence successors, then lower-priority same-PE nodes (a
  /// node can be both; callers tolerate the repeat).
  template <class Fn>
  void for_each_dependent(std::size_t u, Fn&& fn) const {
    for (std::uint32_t e = succ_offsets_[u]; e < succ_offsets_[u + 1]; ++e)
      fn(succ_nodes_[e]);
    const PeRanges& range = pe_ranges_[u];
    for (std::uint32_t p = range.lower_begin; p < range.lower_end; ++p)
      fn(pe_order_[p]);
  }

  /// Scales and validates one scenario into per-node parameter rows
  /// (tasks, then message nodes derived from their producers).
  void load_bounds(std::span<const ExecBounds> bounds, model::Time* c_min,
                   model::Time* c_max, model::Time* release_cutoff) const;
  /// Best-case topo pass, cutoff fold, and worst-case seed of one scenario.
  void best_case(const model::Time* c_min, model::Time* release_cutoff,
                 model::Time* min_start, model::Time* min_finish,
                 model::Time* max_arrival, model::Time* max_finish) const;
  /// Writes the task windows of one solved scenario into `result`.
  void write_result(const model::Time* min_start,
                    const model::Time* min_finish,
                    const model::Time* max_arrival,
                    const model::Time* max_finish, bool diverged,
                    AnalysisResult& result) const;
  UpdateOutcome update_node(std::size_t i, const Rows& rows) const;
  void worst_case_worklist(Scratch& s) const;
  /// The batched solver behind solve_many (>= 2 scenarios).
  void solve_batch(std::span<const std::span<const ExecBounds>> scenarios,
                   BatchScratch& scratch,
                   std::span<AnalysisResult> results) const;
  /// Per-worker batched-solve arena (thread-local), like thread_scratch().
  static BatchScratch& thread_batch_scratch();

  HolisticAnalysis::Options options_;
  std::size_t n_ = 0;      ///< application tasks
  std::size_t total_ = 0;  ///< tasks + message nodes
  std::size_t words_ = 0;  ///< 64-bit words per relation row

  // Bounds-independent node parameters.
  std::vector<const model::Processor*> pe_ref_;  ///< per task, for scaling
  std::vector<model::Time> period_;
  model::Time horizon_ = 0;

  // Message nodes (bus contention): node n_+q exists for message q.
  std::vector<std::uint32_t> message_src_;
  std::vector<model::Time> message_transfer_;

  // Graph structure, CSR: node i's in-edges are in_edges_[in_offsets_[i] ..
  // in_offsets_[i+1]), its precedence successors likewise in succ_nodes_.
  std::vector<std::uint32_t> in_offsets_;
  std::vector<InEdge> in_edges_;
  std::vector<std::uint32_t> succ_offsets_;
  std::vector<std::uint32_t> succ_nodes_;
  /// All nodes grouped by PE (bus pseudo-PE last), each group in ascending
  /// rank (descending priority); pe_ranges_ indexes into it.
  std::vector<std::uint32_t> pe_order_;
  std::vector<PeRanges> pe_ranges_;
  /// related_bits_[i]: bitset row (words_ words) over the nodes that reach
  /// i or that i reaches along precedence edges.
  std::vector<std::uint64_t> related_bits_;
  /// Nodes in dependency-respecting order (precedence edges only).
  std::vector<std::uint32_t> topo_order_;
};

}  // namespace ftmc::sched
