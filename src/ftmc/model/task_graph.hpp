// Application model: periodic task graphs with mixed criticality.
//
// Each application t = (V_t, E_t, pr_t, f_t, sv_t) is a DAG of tasks released
// every pr_t microseconds.  Non-droppable applications carry a reliability
// constraint f_t in (0,1] (maximum allowed failures per time unit); droppable
// applications have f_t = -1 and instead carry a finite service value sv_t
// that the QoS objective sums over non-dropped applications (Section 2.1).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ftmc/model/ids.hpp"
#include "ftmc/model/time.hpp"

namespace ftmc::model {

/// A task v = (bcet, wcet, ve, dt).  Times are nominal (type-1.0 PE) and
/// scaled by Processor::speed_factor at analysis/simulation time.
struct Task {
  std::string name;
  Time bcet = 0;  ///< best-case execution time
  Time wcet = 0;  ///< worst-case execution time
  Time voting_overhead = 0;    ///< ve: cost of the majority voter
  Time detection_overhead = 0; ///< dt: detect + checkpoint + rollback cost
};

/// A channel e = (src, dst) with payload size s_e in bytes.
struct Channel {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t size_bytes = 0;
};

/// Sentinel service value of non-droppable applications (sv = infinity).
inline constexpr double kNonDroppableService =
    std::numeric_limits<double>::infinity();

/// Sentinel reliability constraint of droppable applications (f_t = -1).
inline constexpr double kDroppableReliability = -1.0;

/// Immutable-after-build periodic task DAG.
class TaskGraph {
 public:
  /// Validates: non-empty, acyclic, channel endpoints in range, bcet <= wcet,
  /// non-negative overheads, positive period, and criticality consistency
  /// (droppable <=> f_t == -1 <=> finite sv).
  TaskGraph(std::string name, std::vector<Task> tasks,
            std::vector<Channel> channels, Time period,
            double reliability_constraint, double service_value);

  const std::string& name() const noexcept { return name_; }
  Time period() const noexcept { return period_; }
  /// Implicit deadline: one period.
  Time deadline() const noexcept { return period_; }

  /// f_t: maximum allowed failures per microsecond; -1 for droppable graphs.
  double reliability_constraint() const noexcept { return reliability_; }
  /// sv_t: finite for droppable graphs, +infinity otherwise.
  double service_value() const noexcept { return service_; }
  bool droppable() const noexcept {
    return reliability_ == kDroppableReliability;
  }

  std::size_t task_count() const noexcept { return tasks_.size(); }
  const Task& task(std::uint32_t index) const { return tasks_.at(index); }
  const std::vector<Task>& tasks() const noexcept { return tasks_; }
  const std::vector<Channel>& channels() const noexcept { return channels_; }

  /// Indices of channels entering / leaving a task.
  const std::vector<std::uint32_t>& in_channels(std::uint32_t task) const {
    return in_channels_.at(task);
  }
  const std::vector<std::uint32_t>& out_channels(std::uint32_t task) const {
    return out_channels_.at(task);
  }

  /// Tasks with no incoming / outgoing channels.
  const std::vector<std::uint32_t>& sources() const noexcept {
    return sources_;
  }
  const std::vector<std::uint32_t>& sinks() const noexcept { return sinks_; }

  /// A topological ordering of task indices (deterministic).
  const std::vector<std::uint32_t>& topological_order() const noexcept {
    return topo_order_;
  }

  /// Sum of task WCETs (a crude lower bound on sequential makespan).
  Time total_wcet() const noexcept;

 private:
  void build_adjacency();
  void check_acyclic_and_order();

  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Channel> channels_;
  Time period_;
  double reliability_;
  double service_;

  std::vector<std::vector<std::uint32_t>> in_channels_;
  std::vector<std::vector<std::uint32_t>> out_channels_;
  std::vector<std::uint32_t> sources_;
  std::vector<std::uint32_t> sinks_;
  std::vector<std::uint32_t> topo_order_;
};

/// Fluent builder for examples / benchmark generators.
class TaskGraphBuilder {
 public:
  explicit TaskGraphBuilder(std::string name) : name_(std::move(name)) {}

  /// Adds a task and returns its index.
  std::uint32_t add_task(Task task);
  std::uint32_t add_task(std::string name, Time bcet, Time wcet,
                         Time voting_overhead = 0,
                         Time detection_overhead = 0);
  TaskGraphBuilder& connect(std::uint32_t src, std::uint32_t dst,
                            std::uint64_t size_bytes = 0);
  TaskGraphBuilder& period(Time period);
  /// Marks the graph non-droppable with failure bound f per microsecond.
  TaskGraphBuilder& reliability(double f);
  /// Marks the graph droppable with the given service value.
  TaskGraphBuilder& droppable(double service_value);

  TaskGraph build() const;

 private:
  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Channel> channels_;
  Time period_ = 0;
  double reliability_ = kDroppableReliability;
  double service_ = kNonDroppableService;
  bool criticality_set_ = false;
};

}  // namespace ftmc::model
