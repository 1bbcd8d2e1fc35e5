#include "ftmc/model/mapping.hpp"

#include <gtest/gtest.h>

namespace {

using ftmc::model::ApplicationSet;
using ftmc::model::Mapping;
using ftmc::model::ProcessorId;
using ftmc::model::TaskGraphBuilder;
using ftmc::model::TaskRef;

ApplicationSet two_graphs() {
  TaskGraphBuilder a("a");
  a.add_task("a0", 1, 2);
  a.add_task("a1", 1, 2);
  a.period(10).reliability(0.5);
  TaskGraphBuilder b("b");
  b.add_task("b0", 1, 2);
  b.period(10).droppable(1.0);
  std::vector<ftmc::model::TaskGraph> graphs;
  graphs.push_back(a.build());
  graphs.push_back(b.build());
  return ApplicationSet(std::move(graphs));
}

TEST(Mapping, DefaultsToProcessorZero) {
  const ApplicationSet apps = two_graphs();
  const Mapping mapping(apps);
  EXPECT_EQ(mapping.task_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(mapping.processor_of_flat(i), ProcessorId{0});
}

TEST(Mapping, AssignByRefAndFlatAgree) {
  const ApplicationSet apps = two_graphs();
  Mapping mapping(apps);
  mapping.assign(apps, TaskRef{1, 0}, ProcessorId{2});
  EXPECT_EQ(mapping.processor_of(apps, TaskRef{1, 0}), ProcessorId{2});
  EXPECT_EQ(mapping.processor_of_flat(2), ProcessorId{2});
  mapping.assign_flat(0, ProcessorId{1});
  EXPECT_EQ(mapping.processor_of(apps, TaskRef{0, 0}), ProcessorId{1});
}

TEST(Mapping, Within) {
  const ApplicationSet apps = two_graphs();
  Mapping mapping(apps);
  EXPECT_TRUE(mapping.within(1));
  mapping.assign_flat(1, ProcessorId{3});
  EXPECT_FALSE(mapping.within(3));
  EXPECT_TRUE(mapping.within(4));
}

TEST(Mapping, EqualityIgnoresProvenance) {
  const ApplicationSet apps = two_graphs();
  Mapping a(apps), b(apps);
  EXPECT_EQ(a, b);
  a.assign_flat(0, ProcessorId{1});
  EXPECT_NE(a, b);
  b.assign_flat(0, ProcessorId{1});
  EXPECT_EQ(a, b);
}

TEST(Mapping, OutOfRangeAccessThrows) {
  const ApplicationSet apps = two_graphs();
  Mapping mapping(apps);
  EXPECT_THROW(mapping.assign_flat(3, ProcessorId{0}), std::out_of_range);
  EXPECT_THROW(mapping.processor_of(apps, TaskRef{2, 0}), std::out_of_range);
}

}  // namespace
