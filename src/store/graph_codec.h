#ifndef RFIDCLEAN_STORE_GRAPH_CODEC_H_
#define RFIDCLEAN_STORE_GRAPH_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/ct_graph.h"
#include "store/format.h"

/// \file
/// Codec between CtGraph and the version-1 binary blob (docs/FORMATS.md).
/// A CtGraph is stored as the blob's sections, so encoding writes the
/// header and section table, copies the four fixed-width sections and
/// varint-encodes the other two; loading verifies the blob and lets the
/// graph alias its fixed-width sections in place. Encoding is canonical: a
/// given graph has exactly one valid byte encoding, so equal graphs produce
/// byte-identical blobs and golden fixtures can assert byte-for-byte
/// equality.

namespace rfidclean::store {

/// Provenance carried alongside a serialized graph: the FNV digests of the
/// tag's input readings and of the integrity-constraint set that cleaned
/// it (matching obs::TagProvenance). Zero when unknown.
struct GraphProvenance {
  std::uint64_t input_digest = 0;
  std::uint64_t constraint_digest = 0;
};

/// Serializes `graph` into a self-contained blob. The stored digest is
/// graph.Digest(), so a loaded blob digests equal to the graph it came
/// from.
std::string EncodeCtGraphBlob(const CtGraph& graph, std::int64_t tag,
                              const GraphProvenance& provenance = {});

/// How much a load verifies beyond the always-on structural parse (magic,
/// geometry, per-section CRCs, varint decoding, index-range validation —
/// everything memory safety depends on).
///
/// kStructural is the load fast path: it checksums the geometry-bearing
/// sections (layers, keys, edge rows, edge targets — everything indexing
/// arithmetic derives from) and skips the two probability payloads, which
/// are only ever read as opaque doubles and cannot affect memory safety.
/// kFull additionally checksums those payloads, recomputes the graph digest
/// against the stored header digest, re-runs CtGraph::CheckConsistency and
/// the installed self-audit hook (core/self_audit.h) — the mode for `store
/// verify`, audits and differential tests, where catching corruption or
/// encoder/decoder drift matters more than load latency.
enum class MapVerify {
  kStructural,
  kFull,
};

/// Loads a blob as a CtGraph whose fixed-width sections alias the blob
/// bytes in place (only the varint sections are decoded). `keepalive`, when
/// given, is retained by the graph (e.g. the store reader's shared
/// mapping); without one the caller must keep [data, data + size) alive
/// and unchanged for the graph's lifetime.
Result<CtGraph> DecodeCtGraphBlob(
    const unsigned char* data, std::size_t size,
    MapVerify verify = MapVerify::kFull,
    std::shared_ptr<const void> keepalive = nullptr);
/// As above over `bytes`, which the returned graph keeps alive.
Result<CtGraph> DecodeCtGraphBlob(std::string bytes,
                                  MapVerify verify = MapVerify::kFull);

/// Header fields plus measured size of a blob, for listings and `store
/// ls`. Verifies the header checksum, the geometry and the geometry
/// sections' checksums (as a MapVerify::kStructural load does) but decodes
/// no section.
struct BlobInfo {
  BlobHeader header;
  std::size_t blob_bytes = 0;
};
Result<BlobInfo> InspectCtGraphBlob(const unsigned char* data,
                                    std::size_t size);

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_GRAPH_CODEC_H_
