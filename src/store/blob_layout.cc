#include "store/blob_layout.h"

#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "store/varint.h"

namespace rfidclean::store {

namespace {

Status BlobError(const char* what, const std::string& detail) {
  return InvalidArgumentError(StrFormat("ct-graph blob: %s: %s", what,
                                        detail.c_str()));
}

Status CrcError(const char* region, std::uint32_t stored,
                std::uint32_t computed) {
  obs::Add(obs::Counter::kStoreCrcFailures);
  return InvalidArgumentError(
      StrFormat("ct-graph blob: %s checksum mismatch (stored %08x, computed "
                "%08x)",
                region, stored, computed));
}

const char* SectionName(SectionId id) {
  switch (id) {
    case SectionId::kLayers: return "LAYERS";
    case SectionId::kKeys: return "KEYS";
    case SectionId::kSourceProb: return "SRCPROB";
    case SectionId::kEdgeRows: return "EDGEROWS";
    case SectionId::kEdgeTargets: return "EDGETGT";
    case SectionId::kEdgeProb: return "EDGEPROB";
  }
  return "?";
}

/// Decodes the KEYS section: per node, in id order,
///   zigzag(location - prev_location)   (prev_location persists, init 0)
///   zigzag(delta)
///   varint(|TL|)
///   per TL entry: zigzag(time), zigzag(location - prev_tl_location)
///                 (prev_tl_location resets to 0 per node)
Status DecodeKeys(const ParsedBlob& blob, CtGraphSections* contents) {
  const unsigned char* cursor = blob.SectionData(SectionId::kKeys);
  const unsigned char* end = cursor + blob.SectionSize(SectionId::kKeys);
  const std::uint64_t num_nodes = blob.header.num_nodes;

  // Every TL entry costs at least two bytes, so this bounds the total
  // departure count below 2^32 and keeps the tl_begin offsets in u32.
  if (blob.SectionSize(SectionId::kKeys) / 2 >
      std::numeric_limits<std::uint32_t>::max() - 1) {
    return BlobError("KEYS section", "section too large");
  }
  contents->locations.reserve(static_cast<std::size_t>(num_nodes));
  contents->deltas.reserve(static_cast<std::size_t>(num_nodes));
  contents->tl_begin.reserve(static_cast<std::size_t>(num_nodes) + 1);
  contents->tl_begin.push_back(0);
  // A node costs at least three bytes and a TL entry two: reserving that
  // bound spares the growth copies of the largest decoded array.
  const std::uint64_t key_bytes = blob.SectionSize(SectionId::kKeys);
  if (key_bytes > 3 * num_nodes) {
    contents->departures.reserve(
        static_cast<std::size_t>((key_bytes - 3 * num_nodes) / 2));
  }
  std::int64_t prev_location = 0;
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    auto key_error = [&](const std::string& detail) {
      return BlobError("KEYS section",
                       StrFormat("node %llu: %s",
                                 static_cast<unsigned long long>(i),
                                 detail.c_str()));
    };
    std::int64_t location_delta = 0;
    std::int64_t delta = 0;
    std::uint64_t tl_count = 0;
    if (!GetZigzag(&cursor, end, &location_delta) ||
        !GetZigzag(&cursor, end, &delta) ||
        !GetVarint(&cursor, end, &tl_count)) {
      return key_error("truncated or malformed varint");
    }
    const std::int64_t location = prev_location + location_delta;
    if (location < 0 || location > std::numeric_limits<std::int32_t>::max()) {
      return key_error(StrFormat("location %lld out of range",
                                 static_cast<long long>(location)));
    }
    prev_location = location;
    if (delta < kDeltaBottom ||
        delta > std::numeric_limits<std::int32_t>::max()) {
      return key_error(StrFormat("delta %lld out of range",
                                 static_cast<long long>(delta)));
    }
    // Every TL entry costs at least two bytes; a count the remaining bytes
    // cannot hold is corruption, caught before sizing any container.
    if (tl_count > static_cast<std::uint64_t>(end - cursor) / 2 + 1) {
      return key_error(StrFormat("TL count %llu exceeds section capacity",
                                 static_cast<unsigned long long>(tl_count)));
    }
    contents->locations.push_back(static_cast<LocationId>(location));
    contents->deltas.push_back(static_cast<Timestamp>(delta));
    std::int64_t prev_tl_location = 0;
    for (std::uint64_t d = 0; d < tl_count; ++d) {
      std::int64_t time = 0;
      std::int64_t tl_location_delta = 0;
      if (!GetZigzag(&cursor, end, &time) ||
          !GetZigzag(&cursor, end, &tl_location_delta)) {
        return key_error("truncated TL entry");
      }
      if (time < 0 || time > std::numeric_limits<std::int32_t>::max()) {
        return key_error(StrFormat("TL time %lld out of range",
                                   static_cast<long long>(time)));
      }
      const std::int64_t tl_location = prev_tl_location + tl_location_delta;
      // TL lists are sorted by location with no duplicates (location_node.h
      // invariant), so each decoded location must strictly exceed the last;
      // the first must simply be a valid id.
      const std::int64_t floor = d == 0 ? 0 : prev_tl_location + 1;
      if (tl_location < floor ||
          tl_location > std::numeric_limits<std::int32_t>::max()) {
        return key_error(StrFormat("TL location %lld breaks sorted order",
                                   static_cast<long long>(tl_location)));
      }
      prev_tl_location = tl_location;
      contents->departures.push_back(
          Departure{static_cast<Timestamp>(time),
                    static_cast<LocationId>(tl_location)});
    }
    contents->tl_begin.push_back(
        static_cast<std::uint32_t>(contents->departures.size()));
  }
  if (cursor != end) {
    return BlobError("KEYS section",
                     StrFormat("%zu trailing bytes after the last key",
                               static_cast<std::size_t>(end - cursor)));
  }
  return Status::Ok();
}

/// Decodes the EDGETGT section: per edge in CSR order,
/// zigzag(to - prev_target) with one running prev_target across the whole
/// section (init 0). Each target must land in its source node's next
/// layer, which also proves it is a valid NodeId.
Result<std::vector<NodeId>> DecodeEdgeTargets(const ParsedBlob& blob,
                                              const CtGraphSections& contents) {
  const unsigned char* cursor = blob.SectionData(SectionId::kEdgeTargets);
  const unsigned char* end =
      cursor + blob.SectionSize(SectionId::kEdgeTargets);
  const std::int32_t length = blob.header.length;

  std::vector<NodeId> targets;
  targets.reserve(static_cast<std::size_t>(blob.header.num_edges));
  std::int64_t prev_target = 0;
  for (std::int32_t t = 0; t < length; ++t) {
    const std::uint64_t layer_lo = contents.LayerBegin(t);
    const std::uint64_t layer_hi = contents.LayerBegin(t + 1);
    const std::uint64_t next_lo = t + 1 < length ? layer_hi : 0;
    const std::uint64_t next_hi =
        t + 1 < length ? contents.LayerBegin(t + 2) : 0;
    for (std::uint64_t node = layer_lo; node < layer_hi; ++node) {
      const std::uint64_t row_begin = contents.EdgeRow(node);
      const std::uint64_t row_end = contents.EdgeRow(node + 1);
      if (t == length - 1) {
        if (row_end != row_begin) {
          return BlobError("EDGEROWS section",
                           StrFormat("target node %llu has %llu edges",
                                     static_cast<unsigned long long>(node),
                                     static_cast<unsigned long long>(
                                         row_end - row_begin)));
        }
        continue;
      }
      if (row_end == row_begin) {
        return BlobError(
            "EDGEROWS section",
            StrFormat("non-target node %llu has no outgoing edge",
                      static_cast<unsigned long long>(node)));
      }
      for (std::uint64_t e = row_begin; e < row_end; ++e) {
        std::int64_t delta = 0;
        if (!GetZigzag(&cursor, end, &delta)) {
          return BlobError("EDGETGT section",
                           "truncated or malformed varint");
        }
        const std::int64_t to = prev_target + delta;
        if (to < static_cast<std::int64_t>(next_lo) ||
            to >= static_cast<std::int64_t>(next_hi)) {
          return BlobError(
              "EDGETGT section",
              StrFormat("edge %llu of node %llu targets %lld outside layer "
                        "%d",
                        static_cast<unsigned long long>(e - row_begin),
                        static_cast<unsigned long long>(node),
                        static_cast<long long>(to), t + 1));
        }
        prev_target = to;
        targets.push_back(static_cast<NodeId>(to));
      }
    }
  }
  if (cursor != end) {
    return BlobError("EDGETGT section",
                     StrFormat("%zu trailing bytes after the last edge",
                               static_cast<std::size_t>(end - cursor)));
  }
  return targets;
}

}  // namespace

Result<ParsedBlob> ParseAndVerifyBlob(const unsigned char* data,
                                      std::size_t size,
                                      SectionChecks checks) {
  if (size < kBlobPreludeBytes) {
    return BlobError("truncated",
                     StrFormat("%zu bytes, need at least %u for the header "
                               "and section table",
                               size, kBlobPreludeBytes));
  }
  if (std::memcmp(data, kBlobMagic, sizeof(kBlobMagic)) != 0) {
    return BlobError("bad magic", "not a ct-graph blob");
  }

  ParsedBlob blob;
  blob.base = data;
  blob.size = size;
  BlobHeader& header = blob.header;
  header.version = LoadU32(data + 8);
  if (header.version != kFormatVersion) {
    return BlobError("unsupported format version",
                     StrFormat("%u (this build reads version %u)",
                               header.version, kFormatVersion));
  }

  // The header checksum covers bytes [0, 92) plus the whole section table
  // [96, 288) — everything that describes geometry — so any flipped bit in
  // either is caught before a single derived offset is trusted.
  const std::uint32_t stored_header_crc = LoadU32(data + kBlobHeaderBytes - 4);
  const std::uint32_t computed_header_crc =
      Crc32(data + kBlobHeaderBytes, kBlobTableBytes,
            Crc32(data, kBlobHeaderBytes - 4));
  if (stored_header_crc != computed_header_crc) {
    return CrcError("header", stored_header_crc, computed_header_crc);
  }

  header.flags = LoadU32(data + 12);
  header.tag = LoadI64(data + 16);
  header.length = LoadI32(data + 24);
  header.num_nodes = LoadU64(data + 32);
  header.num_edges = LoadU64(data + 40);
  header.input_digest = LoadU64(data + 48);
  header.constraint_digest = LoadU64(data + 56);
  header.graph_digest = LoadU64(data + 64);

  if (header.flags != 0) {
    return BlobError("unsupported flags",
                     StrFormat("%08x (v1 defines none)", header.flags));
  }
  if (header.length < 1 || header.length > kMaxBlobLength) {
    return BlobError("length out of range",
                     StrFormat("%d", header.length));
  }
  if (header.num_nodes < 1 || header.num_nodes > kMaxBlobNodes) {
    return BlobError("node count out of range",
                     StrFormat("%llu", static_cast<unsigned long long>(
                                           header.num_nodes)));
  }
  if (header.num_edges > kMaxBlobEdges) {
    return BlobError("edge count out of range",
                     StrFormat("%llu", static_cast<unsigned long long>(
                                           header.num_edges)));
  }

  // Section table: six known ids in order, payloads packed back-to-back on
  // 8-byte boundaries, the last one ending flush with the blob. Pinning the
  // geometry this tightly makes the writer's output the *only* accepted
  // encoding of a given graph (golden-fixture byte identity) and leaves no
  // slack bytes for a parser differential to hide in.
  std::uint64_t expected_offset = kBlobPreludeBytes;
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    const unsigned char* entry =
        data + kBlobHeaderBytes + std::size_t{i} * kSectionEntryBytes;
    SectionEntry& section = blob.sections[i];
    section.id = LoadU32(entry);
    section.crc = LoadU32(entry + 4);
    section.offset = LoadU64(entry + 8);
    section.size = LoadU64(entry + 16);
    const std::uint64_t reserved = LoadU64(entry + 24);
    const char* name = SectionName(static_cast<SectionId>(i + 1));
    if (section.id != i + 1) {
      return BlobError("section table",
                       StrFormat("entry %u has id %u, expected %u (%s)", i,
                                 section.id, i + 1, name));
    }
    if (reserved != 0) {
      return BlobError("section table",
                       StrFormat("%s entry has nonzero reserved field",
                                 name));
    }
    if (section.offset != expected_offset) {
      return BlobError(
          "section table",
          StrFormat("%s payload at offset %llu, expected %llu", name,
                    static_cast<unsigned long long>(section.offset),
                    static_cast<unsigned long long>(expected_offset)));
    }
    if (section.size > size - section.offset) {
      // section.offset <= size holds: expected_offset only grows past size
      // when a previous size already failed this check.
      return BlobError(
          "section table",
          StrFormat("%s payload (%llu bytes at %llu) overruns the %zu-byte "
                    "blob",
                    name, static_cast<unsigned long long>(section.size),
                    static_cast<unsigned long long>(section.offset), size));
    }
    expected_offset = AlignUp(section.offset + section.size);
  }
  if (expected_offset != size) {
    return BlobError("trailing bytes",
                     StrFormat("blob is %zu bytes but sections end at %llu",
                               size,
                               static_cast<unsigned long long>(
                                   expected_offset)));
  }

  // Fixed-width sections have header-determined sizes. length and
  // num_nodes are already range-capped, so these products cannot overflow.
  const auto expect_size = [&](SectionId id,
                               std::uint64_t want) -> Status {
    const std::uint64_t got = blob.SectionSize(id);
    if (got != want) {
      return BlobError(
          "section table",
          StrFormat("%s payload is %llu bytes, expected %llu",
                    SectionName(id), static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(want)));
    }
    return Status::Ok();
  };
  RFID_RETURN_IF_ERROR(expect_size(
      SectionId::kLayers,
      (static_cast<std::uint64_t>(header.length) + 1) * 4));
  RFID_RETURN_IF_ERROR(
      expect_size(SectionId::kEdgeRows, (header.num_nodes + 1) * 4));
  RFID_RETURN_IF_ERROR(
      expect_size(SectionId::kEdgeProb, header.num_edges * 8));
  if (blob.SectionSize(SectionId::kSourceProb) % 8 != 0) {
    return BlobError("section table",
                     "SRCPROB payload is not a whole number of doubles");
  }

  // The reserved header fields and the padding after each payload are zero
  // in the only accepted encoding. No payload CRC covers them (the header
  // CRC covers the reserved fields but is recomputed by any writer), so
  // they are checked byte by byte.
  const auto nonzero = [data](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t i = from; i < to; ++i) {
      if (data[i] != 0) return true;
    }
    return false;
  };
  if (nonzero(28, 32) || nonzero(72, kBlobHeaderBytes - 4)) {
    return BlobError("reserved header field", "nonzero (v1 requires zero)");
  }
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    const SectionEntry& section = blob.sections[i];
    const std::uint64_t end = section.offset + section.size;
    if (nonzero(end, AlignUp(end))) {
      return BlobError(
          "section padding",
          StrFormat("nonzero byte after the %s payload",
                    SectionName(static_cast<SectionId>(i + 1))));
    }
  }

  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    const SectionId id = static_cast<SectionId>(i + 1);
    if (checks == SectionChecks::kGeometry &&
        (id == SectionId::kSourceProb || id == SectionId::kEdgeProb)) {
      continue;
    }
    const SectionEntry& section = blob.sections[i];
    const std::uint32_t computed =
        Crc32(data + section.offset, static_cast<std::size_t>(section.size));
    if (computed != section.crc) {
      return CrcError(StrFormat("%s section", SectionName(id)).c_str(),
                      section.crc, computed);
    }
  }
  return blob;
}

Result<BlobContents> ParseBlobContents(const unsigned char* data,
                                       std::size_t size,
                                       SectionChecks checks) {
  obs::PhaseTimer timer(obs::Phase::kStoreDecode);
  BlobContents result;
  RFID_ASSIGN_OR_RETURN(result.parsed, ParseAndVerifyBlob(data, size, checks));
  const ParsedBlob& blob = result.parsed;
  const BlobHeader& header = blob.header;
  CtGraphSections& contents = result.sections;
  contents.length = header.length;
  contents.num_nodes = header.num_nodes;
  contents.num_edges = header.num_edges;
  contents.layer_begin = blob.SectionData(SectionId::kLayers);
  contents.edge_rows = blob.SectionData(SectionId::kEdgeRows);
  contents.source_prob = blob.SectionData(SectionId::kSourceProb);
  contents.edge_prob = blob.SectionData(SectionId::kEdgeProb);

  // Layer offsets: start at 0, strictly increase (a valid ct-graph has no
  // empty layer), end at num_nodes.
  if (contents.LayerBegin(0) != 0) {
    return BlobError("LAYERS section", "first offset is not 0");
  }
  for (std::int32_t t = 0; t < header.length; ++t) {
    if (contents.LayerBegin(t + 1) <= contents.LayerBegin(t)) {
      return BlobError("LAYERS section",
                       StrFormat("layer %d is empty or offsets decrease",
                                 t));
    }
  }
  if (contents.LayerBegin(header.length) != header.num_nodes) {
    return BlobError(
        "LAYERS section",
        StrFormat("offsets end at %u but the header claims %llu nodes",
                  contents.LayerBegin(header.length),
                  static_cast<unsigned long long>(header.num_nodes)));
  }
  const std::uint64_t layer0 = contents.LayerBegin(1);
  if (blob.SectionSize(SectionId::kSourceProb) != layer0 * 8) {
    return BlobError(
        "SRCPROB section",
        StrFormat("%llu bytes for %llu source nodes",
                  static_cast<unsigned long long>(
                      blob.SectionSize(SectionId::kSourceProb)),
                  static_cast<unsigned long long>(layer0)));
  }

  // CSR edge rows: start at 0, monotone, end at num_edges.
  if (contents.EdgeRow(0) != 0) {
    return BlobError("EDGEROWS section", "first row offset is not 0");
  }
  for (std::uint64_t i = 0; i < header.num_nodes; ++i) {
    if (contents.EdgeRow(i + 1) < contents.EdgeRow(i)) {
      return BlobError("EDGEROWS section",
                       StrFormat("row offsets decrease at node %llu",
                                 static_cast<unsigned long long>(i)));
    }
  }
  if (contents.EdgeRow(header.num_nodes) != header.num_edges) {
    return BlobError(
        "EDGEROWS section",
        StrFormat("rows end at %u but the header claims %llu edges",
                  contents.EdgeRow(header.num_nodes),
                  static_cast<unsigned long long>(header.num_edges)));
  }

  RFID_RETURN_IF_ERROR(DecodeKeys(blob, &contents));
  RFID_ASSIGN_OR_RETURN(contents.edge_targets,
                        DecodeEdgeTargets(blob, contents));

  obs::Add(obs::Counter::kStoreBlobsDecoded);
  obs::Add(obs::Counter::kStoreBytesDecoded, size);
  return result;
}

}  // namespace rfidclean::store
