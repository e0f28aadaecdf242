#ifndef RFIDCLEAN_STORE_BLOB_LAYOUT_H_
#define RFIDCLEAN_STORE_BLOB_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/ct_graph.h"
#include "core/location_node.h"
#include "store/format.h"

/// \file
/// Parse-and-verify layer for binary ct-graph blobs: every blob a CtGraph
/// is loaded from (graph_codec.h) passes ParseBlobContents first, whatever
/// verification tier the load asks for. All functions here treat the
/// input as hostile (they are the fuzz surface behind
/// fuzz/store_blob_fuzz.cc): any malformed byte stream yields a diagnostic
/// Result, never UB, an RFID_CHECK, or an out-of-bounds read.

namespace rfidclean::store {

inline constexpr std::uint32_t kBlobTableBytes =
    kNumSections * kSectionEntryBytes;
/// Bytes before the first section payload: header + section table.
inline constexpr std::uint32_t kBlobPreludeBytes =
    kBlobHeaderBytes + kBlobTableBytes;

/// Sanity ceilings, far above anything the cleaner produces; headers
/// claiming more are rejected before any allocation is sized from them.
inline constexpr std::int64_t kMaxBlobLength = std::int64_t{1} << 24;
inline constexpr std::uint64_t kMaxBlobNodes = 0x7FFFFFFFu;  // NodeId range
inline constexpr std::uint64_t kMaxBlobEdges = std::uint64_t{1} << 40;

/// Header, section table and raw extent of one verified blob. `base` points
/// at caller-owned bytes; a ParsedBlob never outlives them.
struct ParsedBlob {
  BlobHeader header;
  SectionEntry sections[kNumSections];  // indexed by SectionId - 1
  const unsigned char* base = nullptr;
  std::size_t size = 0;

  const SectionEntry& Section(SectionId id) const {
    return sections[static_cast<std::uint32_t>(id) - 1];
  }
  const unsigned char* SectionData(SectionId id) const {
    return base + Section(id).offset;
  }
  std::uint64_t SectionSize(SectionId id) const { return Section(id).size; }
};

/// Which section payload CRCs a parse verifies. kGeometry covers every
/// section whose bytes feed index arithmetic or decoding — LAYERS, KEYS,
/// EDGEROWS, EDGETGT — i.e. everything memory safety can depend on; the two
/// probability payloads (SRCPROB, EDGEPROB) are only ever read as opaque
/// doubles, so the structural load fast path defers their checksums to the
/// full-verification loads (MapVerify::kFull, CtStoreReader::VerifyAll),
/// which also re-derive the graph digest over them. kAll checks all six.
enum class SectionChecks {
  kGeometry,
  kAll,
};

/// Validates magic, version, header checksum, header ranges and the full
/// section-table geometry (ids in order, aligned back-to-back offsets, the
/// final section ending flush with the blob), then verifies the selected
/// payload CRCs. Does not decode section contents.
Result<ParsedBlob> ParseAndVerifyBlob(
    const unsigned char* data, std::size_t size,
    SectionChecks checks = SectionChecks::kAll);

/// Fully structurally-validated contents of one blob: its header and the
/// graph storage it describes. The fixed-width sections alias the input
/// bytes; the varint-compressed sections are decoded into the flat arrays.
/// Probability *semantics* (sums to one, reachability) are not checked
/// here — CtGraph::CheckConsistency owns those.
struct BlobContents {
  ParsedBlob parsed;
  CtGraphSections sections;
};

/// Runs ParseAndVerifyBlob and then decodes + validates every section:
/// layer offsets (start at 0, strictly increase, end at num_nodes), node
/// keys (field ranges, sorted TL lists, exact section consumption), CSR
/// edge rows (start at 0, monotone, end at num_edges, empty exactly on the
/// last layer) and edge targets (each lands in its source's next layer).
/// On success the blob is safe to expose through bounds-trusting accessors.
Result<BlobContents> ParseBlobContents(
    const unsigned char* data, std::size_t size,
    SectionChecks checks = SectionChecks::kAll);

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_BLOB_LAYOUT_H_
