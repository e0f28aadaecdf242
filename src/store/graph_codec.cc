#include "store/graph_codec.h"

#include <string_view>
#include <utility>

#include "common/crc32.h"
#include "common/strings.h"
#include "core/self_audit.h"
#include "obs/metrics.h"
#include "store/blob_layout.h"
#include "store/varint.h"

namespace rfidclean::store {

namespace {

/// The KEYS section: per node, in id order,
///   zigzag(location - prev_location)   (prev_location persists, init 0)
///   zigzag(delta)
///   varint(|TL|)
///   per TL entry: zigzag(time), zigzag(location - prev_tl_location)
///                 (prev_tl_location resets to 0 per node)
std::string EncodeKeys(const CtGraphSections& sections) {
  std::string out;
  out.reserve(static_cast<std::size_t>(sections.num_nodes) * 3 +
              sections.departures.size() * 3);
  std::int64_t prev_location = 0;
  for (std::size_t i = 0; i < sections.num_nodes; ++i) {
    const LocationId location = sections.locations[i];
    PutZigzag(&out, location - prev_location);
    prev_location = location;
    PutZigzag(&out, sections.deltas[i]);
    const std::uint32_t begin = sections.tl_begin[i];
    const std::uint32_t end = sections.tl_begin[i + 1];
    PutVarint(&out, end - begin);
    std::int64_t prev_tl_location = 0;
    for (std::uint32_t d = begin; d < end; ++d) {
      const Departure& departure = sections.departures[d];
      PutZigzag(&out, departure.time);
      PutZigzag(&out, departure.location - prev_tl_location);
      prev_tl_location = departure.location;
    }
  }
  return out;
}

/// The EDGETGT section: zigzag(to - prev_target) per edge in CSR order, one
/// running prev_target across the whole section (init 0).
std::string EncodeEdgeTargets(const CtGraphSections& sections) {
  std::string out;
  out.reserve(sections.edge_targets.size() * 2);
  std::int64_t prev_target = 0;
  for (const NodeId to : sections.edge_targets) {
    PutZigzag(&out, to - prev_target);
    prev_target = to;
  }
  return out;
}

std::string_view Bytes(const unsigned char* data, std::uint64_t size) {
  return std::string_view(reinterpret_cast<const char*>(data),
                          static_cast<std::size_t>(size));
}

}  // namespace

std::string EncodeCtGraphBlob(const CtGraph& graph, std::int64_t tag,
                              const GraphProvenance& provenance) {
  obs::PhaseTimer timer(obs::Phase::kStoreEncode);
  RFID_CHECK_GT(graph.length(), 0);
  const CtGraphSections& sections = graph.sections();

  const std::string keys = EncodeKeys(sections);
  const std::string edge_targets = EncodeEdgeTargets(sections);
  // In SectionId order.
  const std::string_view payloads[kNumSections] = {
      Bytes(sections.layer_begin,
            std::uint64_t{4} * (static_cast<std::uint64_t>(graph.length()) +
                                1)),
      keys,
      Bytes(sections.source_prob, std::uint64_t{8} * sections.NumSources()),
      Bytes(sections.edge_rows, std::uint64_t{4} * (sections.num_nodes + 1)),
      edge_targets,
      Bytes(sections.edge_prob, std::uint64_t{8} * sections.num_edges),
  };

  std::string blob;
  std::uint64_t total = kBlobPreludeBytes;
  for (const std::string_view payload : payloads) {
    total = AlignUp(total + payload.size());
  }
  blob.reserve(static_cast<std::size_t>(total));

  blob.append(kBlobMagic, sizeof(kBlobMagic));
  PutU32(&blob, kFormatVersion);
  PutU32(&blob, 0);  // flags
  PutI64(&blob, tag);
  PutI32(&blob, graph.length());
  PutU32(&blob, 0);  // reserved
  PutU64(&blob, sections.num_nodes);
  PutU64(&blob, sections.num_edges);
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
  for (const std::string_view payload : payloads) {
    blob.append(payload);
    PadToAlign(&blob);
  }

  const std::uint32_t header_crc =
      Crc32(blob.data() + kBlobHeaderBytes, kBlobTableBytes,
            Crc32(blob.data(), kBlobHeaderBytes - 4));
  StoreU32(reinterpret_cast<unsigned char*>(blob.data()) + kBlobHeaderBytes -
               4,
           header_crc);

  obs::Add(obs::Counter::kStoreBlobsEncoded);
  obs::Add(obs::Counter::kStoreBytesEncoded, blob.size());
  return blob;
}

Result<CtGraph> DecodeCtGraphBlob(const unsigned char* data, std::size_t size,
                                  MapVerify verify,
                                  std::shared_ptr<const void> keepalive) {
  const bool full = verify == MapVerify::kFull;
  BlobContents contents;
  RFID_ASSIGN_OR_RETURN(
      contents,
      ParseBlobContents(data, size,
                        full ? SectionChecks::kAll : SectionChecks::kGeometry));
  const std::uint64_t stored_digest = contents.parsed.header.graph_digest;
  CtGraph graph = CtGraph::FromSections(std::move(contents.sections),
                                        std::move(keepalive));
  if (!full) return graph;

  const Status consistent = graph.CheckConsistency();
  if (!consistent.ok()) {
    return InvalidArgumentError(
        StrFormat("ct-graph blob: decoded graph fails invariants: %s",
                  consistent.message().c_str()));
  }
  const std::uint64_t digest = graph.Digest();
  if (digest != stored_digest) {
    return InvalidArgumentError(StrFormat(
        "ct-graph blob: stored graph digest %016llx does not match decoded "
        "graph %016llx",
        static_cast<unsigned long long>(stored_digest),
        static_cast<unsigned long long>(digest)));
  }
  RFID_RETURN_IF_ERROR(RunCtGraphAuditHook(graph));
  return graph;
}

Result<CtGraph> DecodeCtGraphBlob(std::string bytes, MapVerify verify) {
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  return DecodeCtGraphBlob(
      reinterpret_cast<const unsigned char*>(owned->data()), owned->size(),
      verify, owned);
}

Result<BlobInfo> InspectCtGraphBlob(const unsigned char* data,
                                    std::size_t size) {
  ParsedBlob parsed;
  RFID_ASSIGN_OR_RETURN(
      parsed, ParseAndVerifyBlob(data, size, SectionChecks::kGeometry));
  BlobInfo info;
  info.header = parsed.header;
  info.blob_bytes = parsed.size;
  return info;
}

}  // namespace rfidclean::store
