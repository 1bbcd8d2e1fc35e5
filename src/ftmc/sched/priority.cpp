#include "ftmc/sched/priority.hpp"

#include <algorithm>
#include <tuple>

namespace ftmc::sched {

namespace {

struct Key {
  int criticality_class;  // 0 = non-droppable
  model::Time period;
  std::uint32_t graph;
  std::uint32_t topo;  // position in the graph's topological order
  std::size_t flat;
};

/// Ranks from one key per task (flat order).  Within a graph topological
/// positions are unique, so every policy orders the keys totally and the
/// flat index only breaks the ties kFlatIndex leaves.
std::vector<std::uint32_t> ranks_of(std::vector<Key>& keys,
                                    PriorityPolicy policy) {
  auto by_policy = [policy](const Key& a, const Key& b) {
    switch (policy) {
      case PriorityPolicy::kCriticalityRateMonotonic:
        return std::tie(a.criticality_class, a.period, a.graph, a.topo,
                        a.flat) < std::tie(b.criticality_class, b.period,
                                           b.graph, b.topo, b.flat);
      case PriorityPolicy::kRateMonotonic:
        return std::tie(a.period, a.graph, a.topo, a.flat) <
               std::tie(b.period, b.graph, b.topo, b.flat);
      case PriorityPolicy::kFlatIndex:
        return a.flat < b.flat;
    }
    return a.flat < b.flat;
  };
  std::sort(keys.begin(), keys.end(), by_policy);

  std::vector<std::uint32_t> ranks(keys.size(), 0);
  for (std::uint32_t rank = 0; rank < keys.size(); ++rank)
    ranks[keys[rank].flat] = rank;
  return ranks;
}

}  // namespace

std::vector<std::uint32_t> assign_priorities(const model::ApplicationSet& apps,
                                             PriorityPolicy policy) {
  std::vector<Key> keys;
  keys.reserve(apps.task_count());
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    const std::size_t first = keys.size();
    for (std::uint32_t v = 0; v < graph.task_count(); ++v)
      keys.push_back(Key{graph.droppable() ? 1 : 0, graph.period(), g, 0,
                         first + v});
    const auto& order = graph.topological_order();
    for (std::uint32_t i = 0; i < order.size(); ++i)
      keys[first + order[i]].topo = i;
  }
  return ranks_of(keys, policy);
}

std::vector<std::uint32_t> assign_priorities(
    const hardening::HardenedView& view, PriorityPolicy policy) {
  std::vector<Key> keys;
  keys.reserve(view.node_count());
  for (std::size_t i = 0; i < view.node_count(); ++i) {
    const std::uint32_t g = view.graph_of(i);
    keys.push_back(Key{view.droppable[g] != 0 ? 1 : 0, view.period[g], g,
                       view.topo[i], i});
  }
  return ranks_of(keys, policy);
}

}  // namespace ftmc::sched
