#include "ftmc/model/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"

namespace {

using ftmc::model::kDroppableReliability;
using ftmc::model::kNonDroppableService;
using ftmc::model::Task;
using ftmc::model::TaskGraph;
using ftmc::model::TaskGraphBuilder;

TaskGraph diamond() {
  TaskGraphBuilder builder("diamond");
  const auto a = builder.add_task("a", 1, 2);
  const auto b = builder.add_task("b", 2, 4);
  const auto c = builder.add_task("c", 3, 6);
  const auto d = builder.add_task("d", 1, 3);
  builder.connect(a, b, 10).connect(a, c, 20).connect(b, d, 30).connect(
      c, d, 40);
  builder.period(100).reliability(0.5);
  return builder.build();
}

TEST(TaskGraph, BasicProperties) {
  const TaskGraph graph = diamond();
  EXPECT_EQ(graph.name(), "diamond");
  EXPECT_EQ(graph.task_count(), 4u);
  EXPECT_EQ(graph.channels().size(), 4u);
  EXPECT_EQ(graph.period(), 100);
  EXPECT_EQ(graph.deadline(), 100);
  EXPECT_FALSE(graph.droppable());
  EXPECT_DOUBLE_EQ(graph.reliability_constraint(), 0.5);
  EXPECT_EQ(graph.service_value(), kNonDroppableService);
  EXPECT_EQ(graph.total_wcet(), 15);
}

TEST(TaskGraph, SourcesAndSinks) {
  const TaskGraph graph = diamond();
  EXPECT_EQ(graph.sources(), std::vector<std::uint32_t>{0});
  EXPECT_EQ(graph.sinks(), std::vector<std::uint32_t>{3});
}

TEST(TaskGraph, PredecessorsAndSuccessors) {
  using ftmc::fixtures::predecessors;
  using ftmc::fixtures::successors;
  const TaskGraph graph = diamond();
  EXPECT_EQ(predecessors(graph, 3), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(successors(graph, 0), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_TRUE(predecessors(graph, 0).empty());
  EXPECT_TRUE(successors(graph, 3).empty());
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  const TaskGraph graph = diamond();
  const auto& order = graph.topological_order();
  ASSERT_EQ(order.size(), 4u);
  auto position = [&](std::uint32_t v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  for (const auto& channel : graph.channels())
    EXPECT_LT(position(channel.src), position(channel.dst));
}

TEST(TaskGraph, DroppableGraph) {
  TaskGraphBuilder builder("logger");
  builder.add_task("t", 1, 2);
  builder.period(10).droppable(3.5);
  const TaskGraph graph = builder.build();
  EXPECT_TRUE(graph.droppable());
  EXPECT_DOUBLE_EQ(graph.service_value(), 3.5);
  EXPECT_DOUBLE_EQ(graph.reliability_constraint(), kDroppableReliability);
}

TEST(TaskGraph, RejectsCycle) {
  TaskGraphBuilder builder("cycle");
  const auto a = builder.add_task("a", 1, 2);
  const auto b = builder.add_task("b", 1, 2);
  builder.connect(a, b).connect(b, a).period(10).reliability(0.1);
  EXPECT_THROW(builder.build(), std::invalid_argument);
}

TEST(TaskGraph, RejectsSelfLoop) {
  TaskGraphBuilder builder("loop");
  const auto a = builder.add_task("a", 1, 2);
  builder.connect(a, a).period(10).reliability(0.1);
  EXPECT_THROW(builder.build(), std::invalid_argument);
}

TEST(TaskGraph, RejectsChannelOutOfRange) {
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, 0}},
                         {ftmc::model::Channel{0, 5, 0}}, 10, 0.1,
                         kNonDroppableService),
               std::invalid_argument);
}

TEST(TaskGraph, RejectsEmptyOrUnnamed) {
  EXPECT_THROW(TaskGraph("g", {}, {}, 10, 0.1, kNonDroppableService),
               std::invalid_argument);
  EXPECT_THROW(TaskGraph("", {Task{"a", 1, 2, 0, 0}}, {}, 10, 0.1,
                         kNonDroppableService),
               std::invalid_argument);
  EXPECT_THROW(TaskGraph("g", {Task{"", 1, 2, 0, 0}}, {}, 10, 0.1,
                         kNonDroppableService),
               std::invalid_argument);
}

TEST(TaskGraph, RejectsDuplicateTaskNames) {
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, 0}, Task{"a", 1, 2, 0, 0}},
                         {}, 10, 0.1, kNonDroppableService),
               std::invalid_argument);
}

TEST(TaskGraph, RejectsBadExecutionTimes) {
  EXPECT_THROW(TaskGraph("g", {Task{"a", 5, 2, 0, 0}}, {}, 10, 0.1,
                         kNonDroppableService),
               std::invalid_argument);
  EXPECT_THROW(TaskGraph("g", {Task{"a", -1, 2, 0, 0}}, {}, 10, 0.1,
                         kNonDroppableService),
               std::invalid_argument);
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, -1, 0}}, {}, 10, 0.1,
                         kNonDroppableService),
               std::invalid_argument);
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, -1}}, {}, 10, 0.1,
                         kNonDroppableService),
               std::invalid_argument);
}

TEST(TaskGraph, RejectsBadPeriod) {
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, 0}}, {}, 0, 0.1,
                         kNonDroppableService),
               std::invalid_argument);
}

TEST(TaskGraph, RejectsBadCriticalityCombos) {
  // Non-droppable with out-of-range f.
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, 0}}, {}, 10, 1.5,
                         kNonDroppableService),
               std::invalid_argument);
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, 0}}, {}, 10, 0.0,
                         kNonDroppableService),
               std::invalid_argument);
  // Non-droppable with finite service.
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, 0}}, {}, 10, 0.1, 3.0),
               std::invalid_argument);
  // Droppable with infinite service.
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, 0}}, {}, 10,
                         kDroppableReliability, kNonDroppableService),
               std::invalid_argument);
  // Droppable with negative service.
  EXPECT_THROW(TaskGraph("g", {Task{"a", 1, 2, 0, 0}}, {}, 10,
                         kDroppableReliability, -1.0),
               std::invalid_argument);
}

TEST(TaskGraphBuilder, RequiresCriticality) {
  TaskGraphBuilder builder("g");
  builder.add_task("a", 1, 2);
  builder.period(10);
  EXPECT_THROW(builder.build(), std::logic_error);
}

TEST(TaskGraph, ParallelChainsHaveMultipleSourcesAndSinks) {
  TaskGraphBuilder builder("parallel");
  const auto a = builder.add_task("a", 1, 1);
  const auto b = builder.add_task("b", 1, 1);
  const auto c = builder.add_task("c", 1, 1);
  const auto d = builder.add_task("d", 1, 1);
  builder.connect(a, c).connect(b, d).period(10).reliability(0.1);
  const TaskGraph graph = builder.build();
  EXPECT_EQ(graph.sources().size(), 2u);
  EXPECT_EQ(graph.sinks().size(), 2u);
}

}  // namespace
