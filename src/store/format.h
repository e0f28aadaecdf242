#ifndef RFIDCLEAN_STORE_FORMAT_H_
#define RFIDCLEAN_STORE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>

/// \file
/// On-disk layout of the binary ct-graph blob and the multi-tag ct-store
/// container, format version 1. The authoritative byte-level specification
/// lives in docs/FORMATS.md; this header pins the constants and the
/// fixed-width little-endian field codecs both the writer and the reader
/// share. Every multi-byte integer on disk is little-endian regardless of
/// host order — and so is CtGraph's in-memory storage, which *is* the
/// section layout (core/ct_graph.h): it never aliases multi-byte fields in
/// place but reads and writes them through the byte-composing Load* /
/// Store* codecs below, so big-endian hosts work without a runtime check.

namespace rfidclean::store {

/// ---- Graph blob ("<tag>.ctgb" standalone, or embedded in a .cts) ----

inline constexpr char kBlobMagic[8] = {'R', 'F', 'C', 'T', 'G', 'B', '0',
                                       '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
/// Fixed header size; the section table follows immediately after.
inline constexpr std::uint32_t kBlobHeaderBytes = 96;
inline constexpr std::uint32_t kSectionEntryBytes = 32;
/// Section payloads are 8-byte aligned within the blob so the double and
/// u32 sections can be aliased directly out of an 8-aligned mapping.
inline constexpr std::uint64_t kSectionAlign = 8;

/// Section identifiers, in file order. The reader rejects unknown ids,
/// duplicates, and out-of-order tables: v1 is exactly these six.
enum class SectionId : std::uint32_t {
  kLayers = 1,     ///< (length + 1) x u32 layer_begin node offsets
  kKeys = 2,       ///< delta/zigzag-varint node keys (location, delta, TL)
  kSourceProb = 3, ///< layer-0 node count x double p_N, bit-exact
  kEdgeRows = 4,   ///< (num_nodes + 1) x u32 CSR edge row offsets
  kEdgeTargets = 5,///< zigzag-varint edge target deltas, per source node
  kEdgeProb = 6,   ///< num_edges x double p_E, bit-exact
};
inline constexpr std::uint32_t kNumSections = 6;

/// Parsed form of the fixed blob header (bytes [0, 96); layout and CRC
/// coverage in docs/FORMATS.md).
struct BlobHeader {
  std::uint32_t version = kFormatVersion;
  std::uint32_t flags = 0;
  std::int64_t tag = 0;
  std::int32_t length = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t input_digest = 0;
  std::uint64_t constraint_digest = 0;
  std::uint64_t graph_digest = 0;
};

/// One section-table entry: `crc` is CRC-32 of the section's payload bytes
/// (padding between sections is excluded and unprotected — only reserved
/// zeros live there).
struct SectionEntry {
  std::uint32_t id = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;  // from blob start, kSectionAlign-aligned
  std::uint64_t size = 0;    // payload bytes, before padding
};

/// ---- explain blob (per-tag kill-attribution summary, embedded in .cts) ----

/// Magic of a serialized obs::ExplainTagSummary (store/explain_codec.h).
/// Explain blobs are *not* a seventh graph-blob section: a graph blob stays
/// byte-identical whether or not a summary was persisted alongside it
/// (golden fixtures and digests are unaffected). They live as separate
/// container entries marked with kIndexFlagExplain.
inline constexpr char kExplainBlobMagic[8] = {'R', 'F', 'C', 'T', 'E', 'X',
                                              '0', '1'};
inline constexpr std::uint32_t kExplainFormatVersion = 1;
/// Magic + version + reserved: the least a valid explain blob can hold.
inline constexpr std::uint32_t kExplainBlobMinBytes = 16;

/// ---- ct-store container ("*.cts") ----

inline constexpr char kStoreMagic[8] = {'R', 'F', 'C', 'T', 'S', 'T', '0',
                                        '1'};
inline constexpr char kIndexMagic[8] = {'R', 'F', 'C', 'T', 'S', 'I', 'D',
                                        'X'};
inline constexpr std::uint32_t kStoreHeaderBytes = 64;
inline constexpr std::uint32_t kIndexHeaderBytes = 16;
inline constexpr std::uint32_t kIndexEntryBytes = 40;

/// Parsed form of the fixed container header at offset 0.
struct StoreHeader {
  std::uint32_t version = kFormatVersion;
  std::uint64_t index_offset = 0;
  std::uint64_t index_size = 0;
  std::uint32_t index_crc = 0;
  std::uint32_t generation = 0;
};

/// Index-entry flag bits. Bit 0 marks an explain-summary blob
/// (kExplainBlobMagic) instead of a graph blob; the two kinds share the
/// tag namespace but index independently, so a tag may carry one of each.
/// All other bits stay reserved (the reader rejects them).
inline constexpr std::uint32_t kIndexFlagExplain = 0x1;

/// One live blob in the container index. `sequence` is the append order
/// across the store's lifetime (compaction preserves it), so `store ls`
/// output is reproducible.
struct IndexEntry {
  std::int64_t tag = 0;
  std::uint64_t offset = 0;  // from file start, kSectionAlign-aligned
  std::uint64_t size = 0;    // blob bytes, before padding
  std::uint32_t blob_crc = 0;
  std::uint32_t flags = 0;   // kIndexFlag* bits; 0 = graph blob
  std::uint64_t sequence = 0;
};

/// ---- Little-endian field codecs ----

inline void PutU32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

inline void PutU64(std::string* out, std::uint64_t v) {
  PutU32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<std::uint32_t>(v >> 32));
}

inline void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

inline void PutI32(std::string* out, std::int32_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
}

inline void PutDouble(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline std::uint32_t LoadU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t LoadU64(const unsigned char* p) {
  return static_cast<std::uint64_t>(LoadU32(p)) |
         (static_cast<std::uint64_t>(LoadU32(p + 4)) << 32);
}

inline std::int64_t LoadI64(const unsigned char* p) {
  return static_cast<std::int64_t>(LoadU64(p));
}

inline std::int32_t LoadI32(const unsigned char* p) {
  return static_cast<std::int32_t>(LoadU32(p));
}

inline double LoadDouble(const unsigned char* p) {
  const std::uint64_t bits = LoadU64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline void StoreU32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v & 0xFF);
  p[1] = static_cast<unsigned char>((v >> 8) & 0xFF);
  p[2] = static_cast<unsigned char>((v >> 16) & 0xFF);
  p[3] = static_cast<unsigned char>((v >> 24) & 0xFF);
}

inline void StoreDouble(unsigned char* p, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  StoreU32(p, static_cast<std::uint32_t>(bits & 0xFFFFFFFFu));
  StoreU32(p + 4, static_cast<std::uint32_t>(bits >> 32));
}

/// Pads `out` with zero bytes up to the next kSectionAlign boundary.
inline void PadToAlign(std::string* out) {
  while (out->size() % kSectionAlign != 0) out->push_back('\0');
}

inline std::uint64_t AlignUp(std::uint64_t offset) {
  return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_FORMAT_H_
