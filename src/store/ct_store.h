#ifndef RFIDCLEAN_STORE_CT_STORE_H_
#define RFIDCLEAN_STORE_CT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/ct_graph.h"
#include "obs/explain.h"
#include "store/format.h"
#include "store/graph_codec.h"
#include "store/mmap_file.h"

/// \file
/// Multi-tag ct-store container (*.cts, docs/FORMATS.md): a header, a
/// sequence of 8-aligned ct-graph blobs, and a checksummed per-tag index
/// block the header points at. Appends never move existing bytes — new
/// blobs and a fresh index are written past the old index, and the header
/// (rewritten last, with a bumped generation) flips readers over to the
/// new index. A crash mid-append therefore leaves the previous state
/// intact; only space is leaked (superseded blobs, dead index blocks),
/// which CompactCtStore reclaims by rewriting the live set into a
/// temporary file and renaming it into place. The container is not safe
/// for concurrent writers.

namespace rfidclean::store {

/// One live blob as recorded in the index.
struct StoreEntry {
  std::int64_t tag = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t blob_crc = 0;
  std::uint32_t flags = 0;  ///< kIndexFlag* bits; 0 = graph blob
  std::uint64_t sequence = 0;
};

/// Read-only access to a ct-store file through one shared mapping; every
/// loaded graph aliases that mapping and keeps it alive.
class CtStoreReader {
 public:
  static Result<CtStoreReader> Open(const std::string& path);

  /// Live graph entries in append (sequence) order.
  const std::vector<StoreEntry>& entries() const { return entries_; }
  /// Live explain-summary entries (kIndexFlagExplain) in append order.
  const std::vector<StoreEntry>& explain_entries() const {
    return explain_entries_;
  }
  std::uint32_t generation() const { return header_.generation; }
  std::size_t FileBytes() const { return file_->size(); }
  /// Bytes neither reachable from the index nor part of the header or the
  /// live index block: superseded blobs and dead index blocks.
  std::size_t DeadBytes() const;

  const StoreEntry* Find(std::int64_t tag) const;

  /// One tag's graph over the mapped blob. Structural verification
  /// (section CRCs, geometry, index ranges) always runs; pass
  /// MapVerify::kFull to also recheck the stored digest, the semantic
  /// invariants and the self-audit hook.
  Result<CtGraph> LoadView(std::int64_t tag,
                           MapVerify verify = MapVerify::kStructural) const;
  /// LoadView under MapVerify::kFull.
  Result<CtGraph> LoadGraph(std::int64_t tag) const;
  /// Raw blob bytes of one tag (for extraction / re-append).
  Result<std::string> ReadBlobBytes(std::int64_t tag) const;

  /// The persisted explain summary of one tag (kill attribution recorded
  /// by the clean that produced the graph; store/explain_codec.h), or
  /// NotFound if none was persisted.
  const StoreEntry* FindExplain(std::int64_t tag) const;
  Result<obs::ExplainTagSummary> LoadExplain(std::int64_t tag) const;
  Result<std::string> ReadExplainBytes(std::int64_t tag) const;

  /// Checks every live blob and reports the first failure as
  /// "tag <tag>: check <tier>: <detail>", where the tier names which
  /// verification layer tripped — index-crc (the index's whole-blob CRC
  /// envelope), decode (a MapVerify::kFull load: per-section checksums and
  /// structure, with the failing section named by the detail, then digest,
  /// semantic invariants and self-audit), or the explain tiers
  /// explain-crc / explain-decode for summary blobs.
  Status VerifyAll() const;

 private:
  std::shared_ptr<const MmapFile> file_;
  StoreHeader header_;
  std::vector<StoreEntry> entries_;
  std::vector<StoreEntry> explain_entries_;
  std::unordered_map<std::int64_t, std::size_t> by_tag_;
  std::unordered_map<std::int64_t, std::size_t> explain_by_tag_;
};

/// Appender. Typical use: Create or OpenOrCreate, Put each blob, Finish.
/// Nothing becomes visible to readers until Finish writes the new index
/// and header; a writer destroyed without Finish leaves the file exactly
/// as it was (plus ignored trailing bytes).
class CtStoreWriter {
 public:
  /// Creates (or truncates, when `truncate`) an empty store at `path`.
  /// Fails with FailedPrecondition if the file exists and !truncate.
  static Result<CtStoreWriter> Create(const std::string& path,
                                      bool truncate = false);
  /// Opens an existing store for appending, or creates an empty one.
  static Result<CtStoreWriter> OpenOrCreate(const std::string& path);

  /// An unopened writer; usable only as an assignment target.
  CtStoreWriter() = default;
  CtStoreWriter(CtStoreWriter&& other) noexcept;
  CtStoreWriter& operator=(CtStoreWriter&& other) noexcept;
  ~CtStoreWriter();

  /// Appends one encoded blob under `tag`, superseding any previous entry
  /// for the same tag (its bytes stay until compaction). The bytes must be
  /// a valid v1 blob (callers produce them with EncodeCtGraphBlob; Put
  /// re-checks only the magic, not the full structure). A fresh graph also
  /// drops any live explain summary for the tag — a summary describes one
  /// specific clean, so persist it (PutExplain) after its graph.
  Status Put(std::int64_t tag, std::string_view blob);

  /// Appends one encoded explain-summary blob (EncodeExplainBlob) under
  /// `tag`, superseding any previous summary for the same tag. The graph
  /// and summary entries of a tag are independent: a summary may exist
  /// without a graph (e.g. a failed clean whose attribution was persisted).
  Status PutExplain(std::int64_t tag, std::string_view blob);

  /// Writes the index block and the updated header. Idempotent; called by
  /// the destructor only if at least one Put succeeded since open.
  Status Finish();

  std::size_t NumLive() const { return live_.size(); }
  std::size_t NumLiveExplain() const { return live_explain_.size(); }

 private:
  static Result<CtStoreWriter> CreateEmpty(const std::string& path,
                                           bool must_not_exist);
  Status Append(std::int64_t tag, std::string_view blob,
                std::uint32_t flags, std::vector<StoreEntry>* live,
                std::unordered_map<std::int64_t, std::size_t>* by_tag);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t append_offset_ = 0;  // next 8-aligned write position
  std::uint32_t generation_ = 0;     // of the state last made visible
  std::uint64_t next_sequence_ = 0;
  std::vector<StoreEntry> live_;     // graph entries, sequence order
  std::vector<StoreEntry> live_explain_;
  std::unordered_map<std::int64_t, std::size_t> by_tag_;
  std::unordered_map<std::int64_t, std::size_t> explain_by_tag_;
  bool dirty_ = false;
};

/// Result of one compaction pass.
struct CompactionStats {
  std::size_t blobs = 0;
  std::size_t bytes_before = 0;
  std::size_t bytes_after = 0;
};

/// Rewrites `path` keeping only live blobs (sequence order preserved),
/// via `path`.tmp + rename. The store must not be open for writing.
Result<CompactionStats> CompactCtStore(const std::string& path);

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_CT_STORE_H_
