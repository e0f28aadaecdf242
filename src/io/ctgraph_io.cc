#include "io/ctgraph_io.h"

#include <charconv>
#include <cmath>
#include <string>
#include <vector>

#include "common/strings.h"

namespace rfidclean {

namespace {

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

bool ParseLong(const std::string& text, long* out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseDouble(const std::string& text, double* out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

void WriteCtGraph(const CtGraph& graph, std::ostream& os) {
  os << StrFormat("ctgraph %d %zu\n", graph.length(), graph.NumNodes());
  for (Timestamp t = 0; t < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      os << StrFormat("node %d %d %d %d %.17g", id, t, graph.LocationOf(id),
                      graph.DeltaOf(id), graph.SourceProbability(id));
      for (const Departure& d : graph.DeparturesOf(id)) {
        os << StrFormat(" %d,%d", d.time, d.location);
      }
      os << '\n';
    }
  }
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    for (const CtEdge edge : graph.OutEdges(id)) {
      os << StrFormat("edge %d %d %.17g\n", id, edge.to, edge.probability);
    }
  }
}

Result<CtGraph> ReadCtGraph(std::istream& is) {
  std::string line;
  int line_number = 0;
  auto error = [&line_number](const char* message) {
    return InvalidArgumentError(
        StrFormat("line %d: %s", line_number, message));
  };

  Timestamp length = 0;
  std::vector<CtGraph::Node> nodes;
  std::vector<bool> node_seen;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++line_number;
    std::string_view content = StripWhitespace(line);
    if (content.empty() || content[0] == '#') continue;
    std::vector<std::string> tokens = Tokenize(content);
    if (tokens[0] == "ctgraph") {
      long parsed_length = 0;
      long num_nodes = 0;
      if (saw_header || tokens.size() != 3 ||
          !ParseLong(tokens[1], &parsed_length) ||
          !ParseLong(tokens[2], &num_nodes) || parsed_length < 1 ||
          num_nodes < 1) {
        return error("expected 'ctgraph <length> <num_nodes>'");
      }
      saw_header = true;
      length = static_cast<Timestamp>(parsed_length);
      nodes.resize(static_cast<std::size_t>(num_nodes));
      node_seen.assign(nodes.size(), false);
    } else if (tokens[0] == "node") {
      if (!saw_header) return error("'node' before 'ctgraph' header");
      long id = 0, time = 0, location = 0, delta = 0;
      double source_probability = 0.0;
      if (tokens.size() < 6 || !ParseLong(tokens[1], &id) ||
          !ParseLong(tokens[2], &time) || !ParseLong(tokens[3], &location) ||
          !ParseLong(tokens[4], &delta) ||
          !ParseDouble(tokens[5], &source_probability)) {
        return error(
            "expected 'node <id> <time> <location> <delta> <source_prob> "
            "<tl>*'");
      }
      if (id < 0 || static_cast<std::size_t>(id) >= nodes.size()) {
        return error("node id out of range");
      }
      if (node_seen[static_cast<std::size_t>(id)]) {
        // A silent overwrite would drop the first row's TL entries and
        // keep its edges — a mangled graph that may still pass Assemble.
        return InvalidArgumentError(
            StrFormat("line %d: duplicate row for node %ld", line_number, id));
      }
      node_seen[static_cast<std::size_t>(id)] = true;
      if (!std::isfinite(source_probability)) {
        // std::from_chars accepts "inf"/"nan" spellings; a non-finite mass
        // would poison every conditioned probability downstream.
        return error("non-finite source probability");
      }
      CtGraph::Node& node = nodes[static_cast<std::size_t>(id)];
      node.time = static_cast<Timestamp>(time);
      node.key.location = static_cast<LocationId>(location);
      node.key.delta = static_cast<Timestamp>(delta);
      node.source_probability = source_probability;
      for (std::size_t i = 6; i < tokens.size(); ++i) {
        std::size_t comma = tokens[i].find(',');
        long tl_time = 0, tl_location = 0;
        if (comma == std::string::npos ||
            !ParseLong(tokens[i].substr(0, comma), &tl_time) ||
            !ParseLong(tokens[i].substr(comma + 1), &tl_location)) {
          return error("malformed TL entry, expected '<time>,<location>'");
        }
        node.key.departures.push_back(
            Departure{static_cast<Timestamp>(tl_time),
                      static_cast<LocationId>(tl_location)});
      }
    } else if (tokens[0] == "edge") {
      if (!saw_header) return error("'edge' before 'ctgraph' header");
      long from = 0, to = 0;
      double probability = 0.0;
      if (tokens.size() != 4 || !ParseLong(tokens[1], &from) ||
          !ParseLong(tokens[2], &to) ||
          !ParseDouble(tokens[3], &probability)) {
        return error("expected 'edge <from> <to> <probability>'");
      }
      if (from < 0 || static_cast<std::size_t>(from) >= nodes.size()) {
        return error("edge source out of range");
      }
      if (to < 0 || static_cast<std::size_t>(to) >= nodes.size()) {
        // Assemble would reject the dangling target too, but only after the
        // whole document is consumed and without naming the line.
        return error("edge target out of range");
      }
      if (!std::isfinite(probability)) {
        return error("non-finite edge probability");
      }
      nodes[static_cast<std::size_t>(from)].out_edges.push_back(
          CtGraph::Edge{static_cast<NodeId>(to), probability});
    } else {
      return error("unknown directive");
    }
  }
  if (!saw_header) return InvalidArgumentError("no 'ctgraph' header found");
  for (std::size_t i = 0; i < node_seen.size(); ++i) {
    if (!node_seen[i]) {
      // A missing row leaves a default-constructed node whose rejection by
      // Assemble ("empty layer", "unreachable node") would obscure the
      // actual defect: the document never declared the node.
      return InvalidArgumentError(
          StrFormat("node %zu declared in header but has no 'node' row", i));
    }
  }
  return CtGraph::Assemble(std::move(nodes), length);
}

}  // namespace rfidclean
