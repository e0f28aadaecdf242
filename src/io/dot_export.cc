#include "io/dot_export.h"

#include "common/strings.h"

namespace rfidclean {

void WriteDot(const CtGraph& graph, std::ostream& os,
              const Building* building, std::size_t max_nodes) {
  os << "digraph ctgraph {\n  rankdir=LR;\n  node [shape=box];\n";
  bool truncated = graph.NumNodes() > max_nodes;
  std::size_t limit = truncated ? max_nodes : graph.NumNodes();
  auto name_of = [building](LocationId location) {
    if (building != nullptr && location >= 0 &&
        static_cast<std::size_t>(location) < building->NumLocations()) {
      return building->location(location).name;
    }
    return StrFormat("L%d", location);
  };
  for (Timestamp t = 0; t < graph.length(); ++t) {
    os << "  { rank=same;";
    for (NodeId id : graph.NodesAt(t)) {
      if (static_cast<std::size_t>(id) < limit) os << " n" << id << ";";
    }
    os << " }\n";
  }
  for (Timestamp t = 0; t < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      if (static_cast<std::size_t>(id) >= limit) break;
      std::string label =
          StrFormat("t=%d\\n%s", t, name_of(graph.LocationOf(id)).c_str());
      if (t == 0) {
        label += StrFormat("\\np=%.3f", graph.SourceProbability(id));
      }
      os << "  n" << id << " [label=\"" << label << "\"];\n";
    }
  }
  for (std::size_t i = 0; i < limit; ++i) {
    for (const CtEdge edge : graph.OutEdges(static_cast<NodeId>(i))) {
      if (static_cast<std::size_t>(edge.to) >= limit) continue;
      os << "  n" << i << " -> n" << edge.to
         << StrFormat(" [label=\"%.3f\"];\n", edge.probability);
    }
  }
  if (truncated) {
    os << StrFormat("  // truncated: %zu of %zu nodes shown\n", limit,
                    graph.NumNodes());
  }
  os << "}\n";
}

}  // namespace rfidclean
