#include "ftmc/model/task_graph.hpp"

#include <queue>
#include <stdexcept>
#include <unordered_set>

namespace ftmc::model {

TaskGraph::TaskGraph(std::string name, std::vector<Task> tasks,
                     std::vector<Channel> channels, Time period,
                     double reliability_constraint, double service_value)
    : name_(std::move(name)),
      tasks_(std::move(tasks)),
      channels_(std::move(channels)),
      period_(period),
      reliability_(reliability_constraint),
      service_(service_value) {
  if (name_.empty()) throw std::invalid_argument("TaskGraph: empty name");
  if (tasks_.empty())
    throw std::invalid_argument("TaskGraph '" + name_ + "': no tasks");
  if (period_ <= 0)
    throw std::invalid_argument("TaskGraph '" + name_ +
                                "': period must be positive");
  std::unordered_set<std::string> task_names;
  for (const auto& task : tasks_) {
    if (task.name.empty())
      throw std::invalid_argument("TaskGraph '" + name_ +
                                  "': task without a name");
    if (!task_names.insert(task.name).second)
      throw std::invalid_argument("TaskGraph '" + name_ +
                                  "': duplicate task name '" + task.name +
                                  "'");
    if (task.bcet < 0 || task.wcet < task.bcet)
      throw std::invalid_argument("TaskGraph '" + name_ + "': task '" +
                                  task.name +
                                  "' violates 0 <= bcet <= wcet");
    if (task.voting_overhead < 0 || task.detection_overhead < 0)
      throw std::invalid_argument("TaskGraph '" + name_ + "': task '" +
                                  task.name + "' has negative overhead");
  }
  for (const auto& channel : channels_) {
    if (channel.src >= tasks_.size() || channel.dst >= tasks_.size())
      throw std::invalid_argument("TaskGraph '" + name_ +
                                  "': channel endpoint out of range");
    if (channel.src == channel.dst)
      throw std::invalid_argument("TaskGraph '" + name_ +
                                  "': self-loop channel");
  }
  const bool droppable_marker = reliability_ == kDroppableReliability;
  if (droppable_marker) {
    if (!(service_ >= 0.0) || service_ == kNonDroppableService)
      throw std::invalid_argument(
          "TaskGraph '" + name_ +
          "': droppable graph needs a finite, non-negative service value");
  } else {
    if (!(reliability_ > 0.0 && reliability_ <= 1.0))
      throw std::invalid_argument(
          "TaskGraph '" + name_ +
          "': reliability constraint must be in (0,1] or -1 (droppable)");
    if (service_ != kNonDroppableService)
      throw std::invalid_argument("TaskGraph '" + name_ +
                                  "': non-droppable graph must have sv = inf");
  }
  build_adjacency();
  check_acyclic_and_order();
}

void TaskGraph::build_adjacency() {
  in_channels_.assign(tasks_.size(), {});
  out_channels_.assign(tasks_.size(), {});
  for (std::uint32_t c = 0; c < channels_.size(); ++c) {
    out_channels_[channels_[c].src].push_back(c);
    in_channels_[channels_[c].dst].push_back(c);
  }
  sources_.clear();
  sinks_.clear();
  for (std::uint32_t v = 0; v < tasks_.size(); ++v) {
    if (in_channels_[v].empty()) sources_.push_back(v);
    if (out_channels_[v].empty()) sinks_.push_back(v);
  }
}

void TaskGraph::check_acyclic_and_order() {
  // Kahn's algorithm with a deterministic (index-ordered) ready queue.
  std::vector<std::uint32_t> indegree(tasks_.size(), 0);
  for (const auto& channel : channels_) ++indegree[channel.dst];
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>> ready;
  for (std::uint32_t v = 0; v < tasks_.size(); ++v)
    if (indegree[v] == 0) ready.push(v);
  topo_order_.clear();
  topo_order_.reserve(tasks_.size());
  while (!ready.empty()) {
    const std::uint32_t v = ready.top();
    ready.pop();
    topo_order_.push_back(v);
    for (std::uint32_t c : out_channels_[v]) {
      const std::uint32_t w = channels_[c].dst;
      if (--indegree[w] == 0) ready.push(w);
    }
  }
  if (topo_order_.size() != tasks_.size())
    throw std::invalid_argument("TaskGraph '" + name_ + "': graph is cyclic");
}

Time TaskGraph::total_wcet() const noexcept {
  Time sum = 0;
  for (const auto& task : tasks_) sum += task.wcet;
  return sum;
}

std::uint32_t TaskGraphBuilder::add_task(Task task) {
  tasks_.push_back(std::move(task));
  return static_cast<std::uint32_t>(tasks_.size() - 1);
}

std::uint32_t TaskGraphBuilder::add_task(std::string name, Time bcet,
                                         Time wcet, Time voting_overhead,
                                         Time detection_overhead) {
  return add_task(Task{std::move(name), bcet, wcet, voting_overhead,
                       detection_overhead});
}

TaskGraphBuilder& TaskGraphBuilder::connect(std::uint32_t src,
                                            std::uint32_t dst,
                                            std::uint64_t size_bytes) {
  channels_.push_back(Channel{src, dst, size_bytes});
  return *this;
}

TaskGraphBuilder& TaskGraphBuilder::period(Time period) {
  period_ = period;
  return *this;
}

TaskGraphBuilder& TaskGraphBuilder::reliability(double f) {
  reliability_ = f;
  service_ = kNonDroppableService;
  criticality_set_ = true;
  return *this;
}

TaskGraphBuilder& TaskGraphBuilder::droppable(double service_value) {
  reliability_ = kDroppableReliability;
  service_ = service_value;
  criticality_set_ = true;
  return *this;
}

TaskGraph TaskGraphBuilder::build() const {
  if (!criticality_set_)
    throw std::logic_error("TaskGraphBuilder '" + name_ +
                           "': call reliability() or droppable() first");
  return TaskGraph(name_, tasks_, channels_, period_, reliability_, service_);
}

}  // namespace ftmc::model
