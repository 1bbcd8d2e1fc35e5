#include "ftmc/io/dot_export.hpp"

#include <ostream>
#include <string>

#include "ftmc/io/text_format.hpp"

namespace ftmc::io {

namespace {

/// Node identifier unique across graphs ("g0_t3").
std::string node_id(std::uint32_t graph, std::uint32_t task) {
  std::string id = "g";
  id += std::to_string(graph);
  id += "_t";
  id += std::to_string(task);
  return id;
}

void open_cluster(std::ostream& out, std::uint32_t index,
                  const model::TaskGraph& graph) {
  out << "  subgraph cluster_" << index << " {\n"
      << "    label=\"" << graph.name() << "\\nperiod "
      << format_time(graph.period());
  if (graph.droppable())
    out << "\\ndroppable, sv " << graph.service_value();
  else
    out << "\\nf_t " << graph.reliability_constraint();
  out << "\";\n";
  if (graph.droppable()) out << "    style=dashed;\n";
}

}  // namespace

void write_dot(std::ostream& out, const model::ApplicationSet& apps) {
  out << "digraph applications {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    open_cluster(out, g, graph);
    for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
      const model::Task& task = graph.task(v);
      out << "    " << node_id(g, v) << " [label=\"" << task.name << "\\n["
          << format_time(task.bcet) << ", " << format_time(task.wcet)
          << "]\"];\n";
    }
    for (const model::Channel& channel : graph.channels()) {
      out << "    " << node_id(g, channel.src) << " -> "
          << node_id(g, channel.dst);
      if (channel.size_bytes != 0)
        out << " [label=\"" << channel.size_bytes << "B\"]";
      out << ";\n";
    }
    out << "  }\n";
  }
  out << "}\n";
}

void write_dot(std::ostream& out, const model::Architecture& arch,
               const hardening::HardenedSystem& system) {
  const model::ApplicationSet& apps = system.apps;
  out << "digraph hardened {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::uint32_t g = 0; g < apps.graph_count(); ++g) {
    const model::TaskGraph& graph = apps.graph(model::GraphId{g});
    open_cluster(out, g, graph);
    for (std::uint32_t v = 0; v < graph.task_count(); ++v) {
      const std::size_t flat = apps.flat_index({g, v});
      const hardening::HardenedTaskInfo& info = system.info[flat];
      const model::Task& task = graph.task(v);
      out << "    " << node_id(g, v) << " [label=\"" << task.name << "\\n@"
          << arch.processor(system.mapping.processor_of_flat(flat)).name;
      if (info.reexecutions > 0) out << "\\nreexec k=" << info.reexecutions;
      out << '"';
      switch (info.role) {
        case hardening::TaskRole::kOriginal:
          break;
        case hardening::TaskRole::kActiveReplica:
          out << ", style=filled, fillcolor=lightblue";
          break;
        case hardening::TaskRole::kPassiveReplica:
          out << ", style=\"filled,dashed\", fillcolor=lightyellow";
          break;
        case hardening::TaskRole::kVoter:
          out << ", shape=diamond, style=filled, fillcolor=lightgrey";
          break;
      }
      out << "];\n";
    }
    for (const model::Channel& channel : graph.channels()) {
      // Zero-size edges between replicas of one origin are the standby
      // control edges the transform adds; draw them dashed.
      const auto& src_info = system.info[apps.flat_index({g, channel.src})];
      const auto& dst_info = system.info[apps.flat_index({g, channel.dst})];
      const bool control_edge =
          channel.size_bytes == 0 &&
          dst_info.role == hardening::TaskRole::kPassiveReplica &&
          src_info.origin == dst_info.origin;
      out << "    " << node_id(g, channel.src) << " -> "
          << node_id(g, channel.dst);
      if (control_edge) out << " [style=dashed]";
      out << ";\n";
    }
    out << "  }\n";
  }
  out << "}\n";
}

}  // namespace ftmc::io
