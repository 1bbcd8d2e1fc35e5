#include "ftmc/io/dot_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "ftmc/benchmarks/cruise.hpp"
#include "helpers.hpp"

namespace {

using namespace ftmc;

/// What `ftmc dot` prints for the same arguments.
template <class... Args>
std::string render_dot(const Args&... args) {
  std::ostringstream out;
  io::write_dot(out, args...);
  return out.str();
}

TEST(DotExport, PlainApplicationsContainClustersAndEdges) {
  const auto apps = fixtures::small_mixed_apps();
  const std::string dot = render_dot(apps);
  EXPECT_NE(dot.find("digraph applications"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_1"), std::string::npos);
  EXPECT_NE(dot.find("crit0"), std::string::npos);
  EXPECT_NE(dot.find("g0_t0 -> g0_t1"), std::string::npos);
  // Droppable cluster dashed + annotated.
  EXPECT_NE(dot.find("droppable, sv 2"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(DotExport, HardenedViewShowsRolesAndPes) {
  const auto apps = fixtures::small_mixed_apps();
  hardening::HardeningPlan plan(apps.task_count());
  plan[0].technique = hardening::Technique::kPassiveReplication;
  plan[0].replica_pes = {model::ProcessorId{0}, model::ProcessorId{1},
                         model::ProcessorId{2}};
  plan[0].voter_pe = model::ProcessorId{0};
  plan[1].technique = hardening::Technique::kReexecution;
  plan[1].reexecutions = 2;
  const auto arch = fixtures::test_arch(3);
  std::vector<model::ProcessorId> mapping(apps.task_count(),
                                          model::ProcessorId{0});
  const auto system = hardening::apply_hardening(apps, plan, mapping, 3);
  const std::string dot = render_dot(arch, system);
  EXPECT_NE(dot.find("digraph hardened"), std::string::npos);
  EXPECT_NE(dot.find("reexec k=2"), std::string::npos);
  EXPECT_NE(dot.find("@pe0"), std::string::npos);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);  // voter
  EXPECT_NE(dot.find("fillcolor=lightyellow"), std::string::npos);  // standby
  EXPECT_NE(dot.find("[style=dashed]"), std::string::npos);  // control edge
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(DotExport, CruiseBenchmarkExportsCompletely) {
  const auto cruise = benchmarks::cruise_benchmark();
  const std::string dot = render_dot(cruise.apps);
  for (std::uint32_t g = 0; g < cruise.apps.graph_count(); ++g)
    EXPECT_NE(dot.find(cruise.apps.graph(model::GraphId{g}).name()),
              std::string::npos);
  // Every task appears as a node.
  for (std::size_t i = 0; i < cruise.apps.task_count(); ++i)
    EXPECT_NE(dot.find(cruise.apps.task(cruise.apps.task_ref(i)).name),
              std::string::npos);
}

}  // namespace
