#include "store/graph_codec.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/strings.h"
#include "core/self_audit.h"
#include "obs/metrics.h"
#include "store/blob_layout.h"
#include "store/varint.h"

namespace rfidclean::store {

namespace {

/// Whether node ids already run 0..N-1 in layer order (true for every
/// graph the builder or a decoder produced).
bool IsLayerOrdered(const CtGraph& graph) {
  NodeId next = 0;
  for (Timestamp t = 0; t < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      if (id != next) return false;
      ++next;
    }
  }
  return true;
}

/// Rebuilds `graph` with ids renumbered into layer order (stable within
/// each layer). The result is equivalent — same nodes, same edges, same
/// probabilities — but its Digest() reflects the new id order.
CtGraph Canonicalize(const CtGraph& graph) {
  std::vector<NodeId> new_id(graph.NumNodes(), kInvalidNode);
  std::vector<NodeId> old_order;
  old_order.reserve(graph.NumNodes());
  for (Timestamp t = 0; t < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      new_id[static_cast<std::size_t>(id)] =
          static_cast<NodeId>(old_order.size());
      old_order.push_back(id);
    }
  }
  std::vector<CtGraph::Node> nodes;
  nodes.reserve(graph.NumNodes());
  for (NodeId old : old_order) {
    CtGraph::Node node = graph.node(old);
    for (CtGraph::Edge& edge : node.out_edges) {
      edge.to = new_id[static_cast<std::size_t>(edge.to)];
    }
    nodes.push_back(std::move(node));
  }
  return CtGraph::AssembleUnchecked(std::move(nodes), graph.length());
}

void EncodeKeys(const CtGraph& graph, std::string* out) {
  std::int64_t prev_location = 0;
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    const NodeKey& key = graph.node(static_cast<NodeId>(i)).key;
    PutZigzag(out, key.location - prev_location);
    prev_location = key.location;
    PutZigzag(out, key.delta);
    PutVarint(out, key.departures.size());
    std::int64_t prev_tl_location = 0;
    for (const Departure& departure : key.departures) {
      PutZigzag(out, departure.time);
      PutZigzag(out, departure.location - prev_tl_location);
      prev_tl_location = departure.location;
    }
  }
}

}  // namespace

std::string EncodeCtGraphBlob(const CtGraph& graph, std::int64_t tag,
                              const GraphProvenance& provenance) {
  obs::PhaseTimer timer(obs::Phase::kStoreEncode);
  RFID_CHECK_GT(graph.length(), 0);
  if (!IsLayerOrdered(graph)) {
    return EncodeCtGraphBlob(Canonicalize(graph), tag, provenance);
  }

  const std::uint64_t num_nodes = graph.NumNodes();
  const std::uint64_t num_edges = graph.NumEdges();

  std::string payloads[kNumSections];
  std::string& layers = payloads[0];
  std::string& keys = payloads[1];
  std::string& source_prob = payloads[2];
  std::string& edge_rows = payloads[3];
  std::string& edge_targets = payloads[4];
  std::string& edge_prob = payloads[5];

  std::uint32_t running = 0;
  for (Timestamp t = 0; t < graph.length(); ++t) {
    PutU32(&layers, running);
    running += static_cast<std::uint32_t>(graph.NodesAt(t).size());
  }
  PutU32(&layers, running);

  EncodeKeys(graph, &keys);

  for (NodeId id : graph.SourceNodes()) {
    PutDouble(&source_prob, graph.node(id).source_probability);
  }

  std::uint32_t edge_cursor = 0;
  std::int64_t prev_target = 0;
  PutU32(&edge_rows, 0);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const CtGraph::Node& node = graph.node(static_cast<NodeId>(i));
    edge_cursor += static_cast<std::uint32_t>(node.out_edges.size());
    PutU32(&edge_rows, edge_cursor);
    for (const CtGraph::Edge& edge : node.out_edges) {
      PutZigzag(&edge_targets, edge.to - prev_target);
      prev_target = edge.to;
      PutDouble(&edge_prob, edge.probability);
    }
  }

  std::string blob;
  std::uint64_t total = kBlobPreludeBytes;
  for (const std::string& payload : payloads) {
    total = AlignUp(total + payload.size());
  }
  blob.reserve(static_cast<std::size_t>(total));

  blob.append(kBlobMagic, sizeof(kBlobMagic));
  PutU32(&blob, kFormatVersion);
  PutU32(&blob, 0);  // flags
  PutI64(&blob, tag);
  PutI32(&blob, graph.length());
  PutU32(&blob, 0);  // reserved
  PutU64(&blob, num_nodes);
  PutU64(&blob, num_edges);
  PutU64(&blob, provenance.input_digest);
  PutU64(&blob, provenance.constraint_digest);
  PutU64(&blob, graph.Digest());
  blob.append(20, '\0');  // reserved [72, 92)
  PutU32(&blob, 0);       // header_crc, patched below

  std::uint64_t offset = kBlobPreludeBytes;
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    PutU32(&blob, i + 1);
    PutU32(&blob, Crc32(payloads[i].data(), payloads[i].size()));
    PutU64(&blob, offset);
    PutU64(&blob, payloads[i].size());
    PutU64(&blob, 0);  // reserved
    offset = AlignUp(offset + payloads[i].size());
  }
  for (const std::string& payload : payloads) {
    blob.append(payload);
    PadToAlign(&blob);
  }

  const std::uint32_t header_crc =
      Crc32(blob.data() + kBlobHeaderBytes, kBlobTableBytes,
            Crc32(blob.data(), kBlobHeaderBytes - 4));
  std::string crc_bytes;
  PutU32(&crc_bytes, header_crc);
  blob.replace(kBlobHeaderBytes - 4, 4, crc_bytes);

  obs::Add(obs::Counter::kStoreBlobsEncoded);
  obs::Add(obs::Counter::kStoreBytesEncoded, blob.size());
  return blob;
}

Result<CtGraph> DecodeCtGraphBlob(const unsigned char* data,
                                  std::size_t size) {
  BlobContents contents;
  RFID_ASSIGN_OR_RETURN(contents, ParseBlobContents(data, size));
  const BlobHeader& header = contents.parsed.header;

  std::vector<CtGraph::Node> nodes(
      static_cast<std::size_t>(header.num_nodes));
  for (std::int32_t t = 0; t < header.length; ++t) {
    for (std::uint32_t i = contents.LayerBegin(t);
         i < contents.LayerBegin(t + 1); ++i) {
      nodes[i].time = t;
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    NodeKey& key = nodes[i].key;
    key.location = contents.locations[i];
    key.delta = contents.deltas[i];
    for (std::uint32_t d = contents.tl_begin[i]; d < contents.tl_begin[i + 1];
         ++d) {
      key.departures.push_back(contents.departures[d]);
    }
  }
  for (std::uint32_t i = 0; i < contents.LayerBegin(1); ++i) {
    nodes[i].source_probability =
        LoadDouble(contents.source_prob + std::size_t{8} * i);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint32_t begin = contents.EdgeRow(i);
    const std::uint32_t end = contents.EdgeRow(i + 1);
    nodes[i].out_edges.reserve(end - begin);
    for (std::uint32_t e = begin; e < end; ++e) {
      nodes[i].out_edges.push_back(CtGraph::Edge{
          contents.edge_targets[e],
          LoadDouble(contents.edge_prob + std::size_t{8} * e)});
    }
  }

  Result<CtGraph> graph =
      CtGraph::Assemble(std::move(nodes), header.length);
  if (!graph.ok()) {
    return InvalidArgumentError(StrFormat(
        "ct-graph blob: decoded graph fails invariants: %s",
        graph.status().message().c_str()));
  }
  const std::uint64_t digest = graph->Digest();
  if (digest != header.graph_digest) {
    return InvalidArgumentError(StrFormat(
        "ct-graph blob: stored graph digest %016llx does not match decoded "
        "graph %016llx",
        static_cast<unsigned long long>(header.graph_digest),
        static_cast<unsigned long long>(digest)));
  }
  RFID_RETURN_IF_ERROR(RunCtGraphAuditHook(*graph));
  return graph;
}

Result<BlobInfo> InspectCtGraphBlob(const unsigned char* data,
                                    std::size_t size) {
  ParsedBlob parsed;
  RFID_ASSIGN_OR_RETURN(parsed, ParseAndVerifyBlob(data, size));
  BlobInfo info;
  info.header = parsed.header;
  info.blob_bytes = parsed.size;
  return info;
}

}  // namespace rfidclean::store
