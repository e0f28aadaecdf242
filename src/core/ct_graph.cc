#include "core/ct_graph.h"

#include <algorithm>
#include <cmath>

#include "common/float_eq.h"
#include "common/fnv.h"
#include "common/strings.h"

namespace rfidclean {

namespace {

/// Writes `nodes` into an owned graph with ids dense in layer order: the
/// records are renumbered stably by time and in-range edge targets follow
/// (dangling ones, possible only through AssembleUnchecked, stay as given).
/// Every time must lie in [0, length).
CtGraph WriteInLayerOrder(const std::vector<CtGraph::Node>& nodes,
                          Timestamp length) {
  std::vector<NodeId> order(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    order[i] = static_cast<NodeId>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&nodes](NodeId a, NodeId b) {
    return nodes[static_cast<std::size_t>(a)].time <
           nodes[static_cast<std::size_t>(b)].time;
  });
  std::vector<NodeId> new_id(nodes.size());
  std::size_t num_sources = 0;
  std::size_t num_edges = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    new_id[static_cast<std::size_t>(order[i])] = static_cast<NodeId>(i);
    const CtGraph::Node& node = nodes[static_cast<std::size_t>(order[i])];
    if (node.time == 0) ++num_sources;
    num_edges += node.out_edges.size();
  }
  CtGraphWriter writer(length, nodes.size(), num_sources, num_edges);
  for (NodeId old : order) {
    const CtGraph::Node& node = nodes[static_cast<std::size_t>(old)];
    writer.AddNode(node.time, node.key, node.source_probability);
    for (const CtGraph::Edge& edge : node.out_edges) {
      const bool in_range =
          edge.to >= 0 && static_cast<std::size_t>(edge.to) < nodes.size();
      writer.AddEdge(in_range ? new_id[static_cast<std::size_t>(edge.to)]
                              : edge.to,
                     edge.probability);
    }
  }
  return std::move(writer).Finish();
}

}  // namespace

Result<CtGraph> CtGraph::Assemble(std::vector<Node> nodes,
                                  Timestamp length) {
  if (length <= 0) return InvalidArgumentError("length must be positive");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Timestamp time = nodes[i].time;
    if (time < 0 || time >= length) {
      return InvalidArgumentError(
          StrFormat("node %zu has timestamp %d outside [0, %d)", i, time,
                    length));
    }
    if (time != 0 && nodes[i].source_probability != 0.0) {
      return InvalidArgumentError(
          StrFormat("node %zu at time %d is not a source but has source "
                    "probability %.17g",
                    i, time, nodes[i].source_probability));
    }
    for (const Edge& edge : nodes[i].out_edges) {
      if (edge.to < 0 || static_cast<std::size_t>(edge.to) >= nodes.size()) {
        return InvalidArgumentError(
            StrFormat("node %zu has an edge to unknown node %d", i,
                      edge.to));
      }
    }
  }
  CtGraph graph = WriteInLayerOrder(nodes, length);
  RFID_RETURN_IF_ERROR(graph.CheckConsistency());
  return graph;
}

CtGraph CtGraph::AssembleUnchecked(std::vector<Node> nodes,
                                   Timestamp length) {
  RFID_CHECK_GT(length, 0);
  for (const Node& node : nodes) {
    RFID_CHECK_GE(node.time, 0);
    RFID_CHECK_LT(node.time, length);
  }
  return WriteInLayerOrder(nodes, length);
}

CtGraph CtGraph::FromSections(CtGraphSections sections,
                              std::shared_ptr<const void> storage) {
  CtGraph graph;
  graph.sections_ = std::move(sections);
  graph.storage_ = std::move(storage);
  return graph;
}

Timestamp CtGraph::TimeOf(NodeId id) const {
  const std::uint32_t target = static_cast<std::uint32_t>(CheckedIndex(id));
  // The last layer whose begin offset is <= id.
  Timestamp lo = 0;
  Timestamp hi = length() - 1;
  while (lo < hi) {
    const Timestamp mid = lo + (hi - lo + 1) / 2;
    if (sections_.LayerBegin(mid) <= target) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::uint64_t CtGraph::Digest() const {
  const CtGraphSections& s = sections_;
  Fnv64 fnv;
  fnv.MixI64(length());
  fnv.MixU64(s.num_nodes);
  const std::uint64_t num_sources = s.NumSources();
  std::uint64_t id = 0;
  for (Timestamp t = 0; t < length(); ++t) {
    for (const std::uint64_t end = s.LayerBegin(t + 1); id < end; ++id) {
      fnv.MixI64(t);
      fnv.MixI64(s.locations[id]);
      fnv.MixI64(s.deltas[id]);
      fnv.MixU64(s.tl_begin[id + 1] - s.tl_begin[id]);
      for (std::uint32_t d = s.tl_begin[id]; d < s.tl_begin[id + 1]; ++d) {
        fnv.MixI64(s.departures[d].time);
        fnv.MixI64(s.departures[d].location);
      }
      fnv.MixDouble(id < num_sources
                        ? store::LoadDouble(s.source_prob + 8 * id)
                        : 0.0);
      const std::uint32_t begin = s.EdgeRow(id);
      const std::uint32_t end_edge = s.EdgeRow(id + 1);
      fnv.MixU64(end_edge - begin);
      for (std::uint32_t e = begin; e < end_edge; ++e) {
        fnv.MixI64(s.edge_targets[e]);
        fnv.MixDouble(store::LoadDouble(s.edge_prob + std::size_t{8} * e));
      }
    }
  }
  return fnv.Digest();
}

double CtGraph::TrajectoryProbability(const Trajectory& trajectory) const {
  if (trajectory.length() != length()) return 0.0;
  NodeId current = kInvalidNode;
  double probability = 0.0;
  for (NodeId id : SourceNodes()) {
    if (LocationOf(id) == trajectory.At(0)) {
      current = id;
      probability = SourceProbability(id);
      break;
    }
  }
  if (current == kInvalidNode) return 0.0;
  for (Timestamp t = 1; t < length(); ++t) {
    NodeId next = kInvalidNode;
    for (const Edge edge : OutEdges(current)) {
      if (LocationOf(edge.to) == trajectory.At(t)) {
        next = edge.to;
        probability *= edge.probability;
        break;
      }
    }
    if (next == kInvalidNode) return 0.0;
    current = next;
  }
  return probability;
}

std::vector<std::pair<Trajectory, double>> CtGraph::EnumerateTrajectories(
    std::size_t max_paths) const {
  std::vector<std::pair<Trajectory, double>> out;
  std::vector<LocationId> steps;
  // Depth-first over the layered DAG; a path's depth is its node's time.
  auto dfs = [&](auto&& self, NodeId id, double probability) -> void {
    steps.push_back(LocationOf(id));
    if (static_cast<Timestamp>(steps.size()) == length()) {
      RFID_CHECK_LT(out.size(), max_paths);
      out.emplace_back(Trajectory(steps), probability);
    } else {
      for (const Edge edge : OutEdges(id)) {
        self(self, edge.to, probability * edge.probability);
      }
    }
    steps.pop_back();
  };
  for (NodeId id : SourceNodes()) {
    dfs(dfs, id, SourceProbability(id));
  }
  return out;
}

Status CtGraph::CheckConsistency(double tolerance) const {
  if (length() <= 0) return InternalError("empty ct-graph");
  double source_sum = 0.0;
  for (NodeId id : SourceNodes()) source_sum += SourceProbability(id);
  if (!ApproxOne(source_sum, tolerance)) {
    return InternalError(
        StrFormat("source probabilities sum to %.12f", source_sum));
  }
  std::vector<bool> has_in_edge(NumNodes(), false);
  const Timestamp last = length() - 1;
  for (Timestamp t = 0; t < length(); ++t) {
    const IdRange next = t < last ? NodesAt(t + 1) : IdRange(0, 0);
    for (NodeId id : NodesAt(t)) {
      const EdgeRange edges = OutEdges(id);
      if (t == last) {
        if (!edges.empty()) {
          return InternalError("target node has outgoing edges");
        }
        continue;
      }
      if (edges.empty()) {
        return InternalError(StrFormat(
            "non-target node %d at time %d has no outgoing edge", id, t));
      }
      double out_sum = 0.0;
      for (const Edge edge : edges) {
        if (edge.probability <= 0.0) {
          return InternalError("non-positive edge probability");
        }
        if (!next.contains(edge.to)) {
          return InternalError("edge does not advance time by one");
        }
        has_in_edge[static_cast<std::size_t>(edge.to)] = true;
        out_sum += edge.probability;
      }
      if (!ApproxOne(out_sum, tolerance)) {
        return InternalError(StrFormat(
            "outgoing probabilities of node %d sum to %.12f", id, out_sum));
      }
    }
  }
  for (std::size_t i = sections_.NumSources(); i < NumNodes(); ++i) {
    if (!has_in_edge[i]) {
      return InternalError(
          StrFormat("non-source node %zu is unreachable", i));
    }
  }
  return Status::Ok();
}

std::size_t CtGraph::ApproximateBytes() const {
  const CtGraphSections& s = sections_;
  std::size_t bytes = sizeof(CtGraph);
  if (length() > 0) {
    bytes += std::size_t{4} * (static_cast<std::size_t>(length()) + 1) +
             std::size_t{4} * (NumNodes() + 1) +
             std::size_t{8} * (s.NumSources() + NumEdges());
  }
  bytes += s.locations.size() * sizeof(LocationId) +
           s.deltas.size() * sizeof(Timestamp) +
           s.tl_begin.size() * sizeof(std::uint32_t) +
           s.departures.size() * sizeof(Departure) +
           s.edge_targets.size() * sizeof(NodeId);
  return bytes;
}

CtGraphWriter::CtGraphWriter(Timestamp length, std::size_t num_nodes,
                             std::size_t num_sources, std::size_t num_edges)
    : num_sources_(num_sources) {
  RFID_CHECK_GT(length, 0);
  sections_.length = length;
  sections_.num_nodes = num_nodes;
  sections_.num_edges = num_edges;
  // One buffer for the four fixed-width sections, doubles first.
  const std::size_t layer_bytes =
      std::size_t{4} * (static_cast<std::size_t>(length) + 1);
  const std::size_t total = std::size_t{8} * (num_edges + num_sources) +
                            layer_bytes + std::size_t{4} * (num_nodes + 1);
  buffer_.reset(new unsigned char[total],
                std::default_delete<unsigned char[]>());
  edge_prob_ = buffer_.get();
  sources_ptr_ = edge_prob_ + std::size_t{8} * num_edges;
  layers_ = sources_ptr_ + std::size_t{8} * num_sources;
  rows_ = layers_ + layer_bytes;
  sections_.edge_prob = edge_prob_;
  sections_.source_prob = sources_ptr_;
  sections_.layer_begin = layers_;
  sections_.edge_rows = rows_;
  sections_.locations.reserve(num_nodes);
  sections_.deltas.reserve(num_nodes);
  sections_.tl_begin.reserve(num_nodes + 1);
  sections_.tl_begin.push_back(0);
  sections_.edge_targets.reserve(num_edges);
}

CtGraph CtGraphWriter::Finish() && {
  RFID_CHECK_EQ(nodes_, sections_.num_nodes);
  RFID_CHECK_EQ(edges_, sections_.num_edges);
  RFID_CHECK_EQ(sources_, num_sources_);
  for (; next_layer_ <= sections_.length; ++next_layer_) {
    store::StoreU32(
        layers_ + std::size_t{4} * static_cast<std::size_t>(next_layer_),
        static_cast<std::uint32_t>(nodes_));
  }
  store::StoreU32(rows_ + std::size_t{4} * nodes_,
                  static_cast<std::uint32_t>(edges_));
  return CtGraph::FromSections(std::move(sections_), std::move(buffer_));
}

}  // namespace rfidclean
