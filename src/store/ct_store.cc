#include "store/ct_store.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "store/blob_layout.h"
#include "store/explain_codec.h"
#include "store/graph_codec.h"

namespace rfidclean::store {

namespace {

Status StoreError(const std::string& path, const std::string& detail) {
  return InvalidArgumentError(
      StrFormat("ct-store %s: %s", path.c_str(), detail.c_str()));
}

Status IoError(const std::string& path, const char* op) {
  return InternalError(StrFormat("ct-store %s: %s failed: %s", path.c_str(),
                                 op, std::strerror(errno)));
}

std::string BuildIndexBlock(std::vector<StoreEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const StoreEntry& a, const StoreEntry& b) {
              return a.sequence != b.sequence ? a.sequence < b.sequence
                                              : a.offset < b.offset;
            });
  std::string block;
  block.append(kIndexMagic, sizeof(kIndexMagic));
  PutU32(&block, static_cast<std::uint32_t>(entries.size()));
  PutU32(&block, 0);  // reserved
  for (const StoreEntry& entry : entries) {
    PutI64(&block, entry.tag);
    PutU64(&block, entry.offset);
    PutU64(&block, entry.size);
    PutU32(&block, entry.blob_crc);
    PutU32(&block, entry.flags);
    PutU64(&block, entry.sequence);
  }
  return block;
}

std::string BuildStoreHeader(std::uint32_t generation,
                             std::uint64_t index_offset,
                             const std::string& index_block) {
  std::string header;
  header.append(kStoreMagic, sizeof(kStoreMagic));
  PutU32(&header, kFormatVersion);
  PutU32(&header, generation);
  PutU64(&header, index_offset);
  PutU64(&header, index_block.size());
  PutU32(&header, Crc32(index_block.data(), index_block.size()));
  header.append(24, '\0');  // reserved [36, 60)
  PutU32(&header, Crc32(header.data(), kStoreHeaderBytes - 4));
  return header;
}

Status WriteAt(std::FILE* file, const std::string& path,
               std::uint64_t offset, std::string_view bytes) {
  if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0) {
    return IoError(path, "fseek");
  }
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    return IoError(path, "fwrite");
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------- reader

Result<CtStoreReader> CtStoreReader::Open(const std::string& path) {
  CtStoreReader reader;
  MmapFile mapped;
  RFID_ASSIGN_OR_RETURN(mapped, MmapFile::Open(path));
  reader.file_ = std::make_shared<const MmapFile>(std::move(mapped));
  const unsigned char* data = reader.file_->data();
  const std::size_t size = reader.file_->size();

  if (size < kStoreHeaderBytes + kIndexHeaderBytes) {
    return StoreError(path, StrFormat("file is only %zu bytes", size));
  }
  if (std::memcmp(data, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return StoreError(path, "bad magic (not a ct-store)");
  }
  const std::uint32_t stored_crc = LoadU32(data + kStoreHeaderBytes - 4);
  const std::uint32_t computed_crc = Crc32(data, kStoreHeaderBytes - 4);
  if (stored_crc != computed_crc) {
    obs::Add(obs::Counter::kStoreCrcFailures);
    return StoreError(path,
                      StrFormat("header checksum mismatch (stored %08x, "
                                "computed %08x)",
                                stored_crc, computed_crc));
  }
  StoreHeader& header = reader.header_;
  header.version = LoadU32(data + 8);
  if (header.version != kFormatVersion) {
    return StoreError(path, StrFormat("unsupported format version %u",
                                      header.version));
  }
  header.generation = LoadU32(data + 12);
  header.index_offset = LoadU64(data + 16);
  header.index_size = LoadU64(data + 24);
  header.index_crc = LoadU32(data + 32);

  if (header.index_offset < kStoreHeaderBytes ||
      header.index_offset % kSectionAlign != 0 ||
      header.index_size < kIndexHeaderBytes ||
      header.index_size > size ||
      header.index_offset > size - header.index_size ||
      (header.index_size - kIndexHeaderBytes) % kIndexEntryBytes != 0) {
    return StoreError(
        path, StrFormat("index block (%llu bytes at %llu) has invalid "
                        "geometry for a %zu-byte file",
                        static_cast<unsigned long long>(header.index_size),
                        static_cast<unsigned long long>(header.index_offset),
                        size));
  }
  const unsigned char* index = data + header.index_offset;
  const std::uint32_t index_crc =
      Crc32(index, static_cast<std::size_t>(header.index_size));
  if (index_crc != header.index_crc) {
    obs::Add(obs::Counter::kStoreCrcFailures);
    return StoreError(path,
                      StrFormat("index checksum mismatch (stored %08x, "
                                "computed %08x)",
                                header.index_crc, index_crc));
  }
  if (std::memcmp(index, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    return StoreError(path, "index block has bad magic");
  }
  const std::uint32_t count = LoadU32(index + 8);
  if (count !=
      (header.index_size - kIndexHeaderBytes) / kIndexEntryBytes) {
    return StoreError(path,
                      StrFormat("index claims %u entries but holds %llu",
                                count,
                                static_cast<unsigned long long>(
                                    (header.index_size - kIndexHeaderBytes) /
                                    kIndexEntryBytes)));
  }

  reader.entries_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const unsigned char* raw =
        index + kIndexHeaderBytes + std::size_t{kIndexEntryBytes} * i;
    StoreEntry entry;
    entry.tag = LoadI64(raw);
    entry.offset = LoadU64(raw + 8);
    entry.size = LoadU64(raw + 16);
    entry.blob_crc = LoadU32(raw + 24);
    entry.flags = LoadU32(raw + 28);
    entry.sequence = LoadU64(raw + 32);
    if ((entry.flags & ~kIndexFlagExplain) != 0) {
      return StoreError(path, StrFormat("index entry %u has unsupported "
                                        "flags %08x",
                                        i, entry.flags));
    }
    const bool is_explain = (entry.flags & kIndexFlagExplain) != 0;
    const std::uint64_t min_size =
        is_explain ? kExplainBlobMinBytes : kBlobPreludeBytes;
    if (entry.offset < kStoreHeaderBytes ||
        entry.offset % kSectionAlign != 0 || entry.size < min_size ||
        entry.size > header.index_offset ||
        entry.offset > header.index_offset - entry.size) {
      return StoreError(
          path,
          StrFormat("index entry %u (tag %lld) points outside the blob "
                    "region",
                    i, static_cast<long long>(entry.tag)));
    }
    // Graph and explain entries index independently: a tag may carry one
    // of each, but never two of a kind.
    auto& by_tag = is_explain ? reader.explain_by_tag_ : reader.by_tag_;
    auto& entries = is_explain ? reader.explain_entries_ : reader.entries_;
    if (!by_tag.emplace(entry.tag, entries.size()).second) {
      return StoreError(path, StrFormat("duplicate index entry for tag %lld",
                                        static_cast<long long>(entry.tag)));
    }
    entries.push_back(entry);
  }
  // Indexes are written in sequence order; re-sorting tolerates hand-made
  // files and keeps ls output deterministic either way.
  const auto by_sequence = [](const StoreEntry& a, const StoreEntry& b) {
    return a.sequence != b.sequence ? a.sequence < b.sequence
                                    : a.offset < b.offset;
  };
  std::sort(reader.entries_.begin(), reader.entries_.end(), by_sequence);
  std::sort(reader.explain_entries_.begin(), reader.explain_entries_.end(),
            by_sequence);
  for (std::size_t i = 0; i < reader.entries_.size(); ++i) {
    reader.by_tag_[reader.entries_[i].tag] = i;
  }
  for (std::size_t i = 0; i < reader.explain_entries_.size(); ++i) {
    reader.explain_by_tag_[reader.explain_entries_[i].tag] = i;
  }
  return reader;
}

std::size_t CtStoreReader::DeadBytes() const {
  std::uint64_t used = kStoreHeaderBytes;
  for (const StoreEntry& entry : entries_) used += AlignUp(entry.size);
  for (const StoreEntry& entry : explain_entries_) {
    used += AlignUp(entry.size);
  }
  used += AlignUp(header_.index_size);
  const std::size_t size = file_->size();
  return size > used ? size - static_cast<std::size_t>(used) : 0;
}

const StoreEntry* CtStoreReader::Find(std::int64_t tag) const {
  const auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? nullptr : &entries_[it->second];
}

Result<CtGraphView> CtStoreReader::LoadView(std::int64_t tag,
                                            MapVerify verify) const {
  const StoreEntry* entry = Find(tag);
  if (entry == nullptr) {
    return NotFoundError(StrFormat("tag %lld not in store",
                                   static_cast<long long>(tag)));
  }
  return CtGraphView::Map(file_->data() + entry->offset,
                          static_cast<std::size_t>(entry->size), file_,
                          verify);
}

Result<CtGraph> CtStoreReader::LoadGraph(std::int64_t tag) const {
  const StoreEntry* entry = Find(tag);
  if (entry == nullptr) {
    return NotFoundError(StrFormat("tag %lld not in store",
                                   static_cast<long long>(tag)));
  }
  return DecodeCtGraphBlob(file_->data() + entry->offset,
                           static_cast<std::size_t>(entry->size));
}

Result<std::string> CtStoreReader::ReadBlobBytes(std::int64_t tag) const {
  const StoreEntry* entry = Find(tag);
  if (entry == nullptr) {
    return NotFoundError(StrFormat("tag %lld not in store",
                                   static_cast<long long>(tag)));
  }
  return std::string(
      reinterpret_cast<const char*>(file_->data() + entry->offset),
      static_cast<std::size_t>(entry->size));
}

const StoreEntry* CtStoreReader::FindExplain(std::int64_t tag) const {
  const auto it = explain_by_tag_.find(tag);
  return it == explain_by_tag_.end() ? nullptr
                                     : &explain_entries_[it->second];
}

Result<obs::ExplainTagSummary> CtStoreReader::LoadExplain(
    std::int64_t tag) const {
  const StoreEntry* entry = FindExplain(tag);
  if (entry == nullptr) {
    return NotFoundError(
        StrFormat("tag %lld has no explain summary in the store (clean "
                  "with --explain to persist one)",
                  static_cast<long long>(tag)));
  }
  return DecodeExplainBlob(file_->data() + entry->offset,
                           static_cast<std::size_t>(entry->size));
}

Result<std::string> CtStoreReader::ReadExplainBytes(std::int64_t tag) const {
  const StoreEntry* entry = FindExplain(tag);
  if (entry == nullptr) {
    return NotFoundError(StrFormat("tag %lld has no explain summary",
                                   static_cast<long long>(tag)));
  }
  return std::string(
      reinterpret_cast<const char*>(file_->data() + entry->offset),
      static_cast<std::size_t>(entry->size));
}

Status CtStoreReader::VerifyAll() const {
  // Every failure names its tag, the check tier that tripped, and (for
  // decode-tier failures) the failing section — the detail strings from
  // blob_layout/graph_codec lead with the section name.
  for (const StoreEntry& entry : entries_) {
    const unsigned char* blob = file_->data() + entry.offset;
    const std::uint32_t crc =
        Crc32(blob, static_cast<std::size_t>(entry.size));
    if (crc != entry.blob_crc) {
      obs::Add(obs::Counter::kStoreCrcFailures);
      return InvalidArgumentError(
          StrFormat("tag %lld: check index-crc: whole-blob checksum "
                    "mismatch (stored %08x, computed %08x)",
                    static_cast<long long>(entry.tag), entry.blob_crc, crc));
    }
    Result<CtGraph> graph =
        DecodeCtGraphBlob(blob, static_cast<std::size_t>(entry.size));
    if (!graph.ok()) {
      return InvalidArgumentError(
          StrFormat("tag %lld: check decode: %s",
                    static_cast<long long>(entry.tag),
                    graph.status().message().c_str()));
    }
    // The zero-copy path gets the same deep treatment: digest recompute
    // plus semantic invariants over the mapped bytes (MapVerify::kFull).
    Result<CtGraphView> view = LoadView(entry.tag, MapVerify::kFull);
    if (!view.ok()) {
      return InvalidArgumentError(
          StrFormat("tag %lld: check view-verify: %s",
                    static_cast<long long>(entry.tag),
                    view.status().message().c_str()));
    }
  }
  for (const StoreEntry& entry : explain_entries_) {
    const unsigned char* blob = file_->data() + entry.offset;
    const std::uint32_t crc =
        Crc32(blob, static_cast<std::size_t>(entry.size));
    if (crc != entry.blob_crc) {
      obs::Add(obs::Counter::kStoreCrcFailures);
      return InvalidArgumentError(
          StrFormat("tag %lld: check explain-crc: whole-blob checksum "
                    "mismatch (stored %08x, computed %08x)",
                    static_cast<long long>(entry.tag), entry.blob_crc, crc));
    }
    Result<obs::ExplainTagSummary> summary =
        DecodeExplainBlob(blob, static_cast<std::size_t>(entry.size));
    if (!summary.ok()) {
      return InvalidArgumentError(
          StrFormat("tag %lld: check explain-decode: %s",
                    static_cast<long long>(entry.tag),
                    summary.status().message().c_str()));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- writer

CtStoreWriter::CtStoreWriter(CtStoreWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)),
      append_offset_(other.append_offset_),
      generation_(other.generation_),
      next_sequence_(other.next_sequence_),
      live_(std::move(other.live_)),
      live_explain_(std::move(other.live_explain_)),
      by_tag_(std::move(other.by_tag_)),
      explain_by_tag_(std::move(other.explain_by_tag_)),
      dirty_(std::exchange(other.dirty_, false)) {}

CtStoreWriter& CtStoreWriter::operator=(CtStoreWriter&& other) noexcept {
  if (this != &other) {
    if (dirty_) (void)Finish();
    if (file_ != nullptr) std::fclose(file_);
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
    append_offset_ = other.append_offset_;
    generation_ = other.generation_;
    next_sequence_ = other.next_sequence_;
    live_ = std::move(other.live_);
    live_explain_ = std::move(other.live_explain_);
    by_tag_ = std::move(other.by_tag_);
    explain_by_tag_ = std::move(other.explain_by_tag_);
    dirty_ = std::exchange(other.dirty_, false);
  }
  return *this;
}

CtStoreWriter::~CtStoreWriter() {
  if (dirty_) (void)Finish();  // best effort; errors already surfaced by Put
  if (file_ != nullptr) std::fclose(file_);
}

Result<CtStoreWriter> CtStoreWriter::CreateEmpty(const std::string& path,
                                                 bool must_not_exist) {
  std::FILE* file = std::fopen(path.c_str(), must_not_exist ? "wbx" : "wb");
  if (file == nullptr) {
    if (must_not_exist && errno == EEXIST) {
      return FailedPreconditionError(
          StrFormat("ct-store %s already exists", path.c_str()));
    }
    return IoError(path, "fopen");
  }
  CtStoreWriter writer;
  writer.file_ = file;
  writer.path_ = path;
  const std::string index = BuildIndexBlock({});
  const std::string header =
      BuildStoreHeader(/*generation=*/0, kStoreHeaderBytes, index);
  RFID_RETURN_IF_ERROR(WriteAt(file, path, 0, header));
  RFID_RETURN_IF_ERROR(WriteAt(file, path, kStoreHeaderBytes, index));
  if (std::fflush(file) != 0) return IoError(path, "fflush");
  writer.append_offset_ = AlignUp(kStoreHeaderBytes + index.size());
  return writer;
}

Result<CtStoreWriter> CtStoreWriter::Create(const std::string& path,
                                            bool truncate) {
  return CreateEmpty(path, /*must_not_exist=*/!truncate);
}

Result<CtStoreWriter> CtStoreWriter::OpenOrCreate(const std::string& path) {
  {
    // Probe without creating; ENOENT falls through to CreateEmpty.
    std::FILE* probe = std::fopen(path.c_str(), "rb");
    if (probe == nullptr) {
      return CreateEmpty(path, /*must_not_exist=*/true);
    }
    std::fclose(probe);
  }
  CtStoreReader reader;
  RFID_ASSIGN_OR_RETURN(reader, CtStoreReader::Open(path));

  CtStoreWriter writer;
  writer.path_ = path;
  writer.file_ = std::fopen(path.c_str(), "r+b");
  if (writer.file_ == nullptr) return IoError(path, "fopen");
  writer.generation_ = reader.generation();
  writer.live_ = reader.entries();
  writer.live_explain_ = reader.explain_entries();
  for (std::size_t i = 0; i < writer.live_.size(); ++i) {
    writer.by_tag_[writer.live_[i].tag] = i;
    writer.next_sequence_ =
        std::max(writer.next_sequence_, writer.live_[i].sequence + 1);
  }
  for (std::size_t i = 0; i < writer.live_explain_.size(); ++i) {
    writer.explain_by_tag_[writer.live_explain_[i].tag] = i;
    writer.next_sequence_ = std::max(writer.next_sequence_,
                                     writer.live_explain_[i].sequence + 1);
  }
  // Appends go past the current index so a crash before Finish leaves the
  // old header -> old index chain fully intact.
  writer.append_offset_ = AlignUp(reader.FileBytes());
  return writer;
}

Status CtStoreWriter::Append(
    std::int64_t tag, std::string_view blob, std::uint32_t flags,
    std::vector<StoreEntry>* live,
    std::unordered_map<std::int64_t, std::size_t>* by_tag) {
  RFID_RETURN_IF_ERROR(WriteAt(file_, path_, append_offset_, blob));
  const std::uint64_t padded = AlignUp(blob.size());
  if (padded > blob.size()) {
    const std::string padding(padded - blob.size(), '\0');
    RFID_RETURN_IF_ERROR(
        WriteAt(file_, path_, append_offset_ + blob.size(), padding));
  }
  StoreEntry entry;
  entry.tag = tag;
  entry.offset = append_offset_;
  entry.size = blob.size();
  entry.blob_crc = Crc32(blob.data(), blob.size());
  entry.flags = flags;
  entry.sequence = next_sequence_++;
  const auto it = by_tag->find(tag);
  if (it != by_tag->end()) {
    (*live)[it->second] = entry;  // supersede in place; old bytes leak
  } else {
    (*by_tag)[tag] = live->size();
    live->push_back(entry);
  }
  append_offset_ += padded;
  dirty_ = true;
  return Status::Ok();
}

Status CtStoreWriter::Put(std::int64_t tag, std::string_view blob) {
  RFID_CHECK(file_ != nullptr);
  if (blob.size() < kBlobPreludeBytes ||
      std::memcmp(blob.data(), kBlobMagic, sizeof(kBlobMagic)) != 0) {
    return InvalidArgumentError(
        StrFormat("tag %lld: bytes are not a ct-graph blob",
                  static_cast<long long>(tag)));
  }
  RFID_RETURN_IF_ERROR(Append(tag, blob, /*flags=*/0, &live_, &by_tag_));
  // A summary describes one specific clean of one specific input; a fresh
  // graph makes any live summary for the tag stale, so drop it (swap-erase
  // — the index block re-sorts by sequence, so order here is free).
  const auto stale = explain_by_tag_.find(tag);
  if (stale != explain_by_tag_.end()) {
    const std::size_t hole = stale->second;
    explain_by_tag_.erase(stale);
    if (hole + 1 != live_explain_.size()) {
      live_explain_[hole] = live_explain_.back();
      explain_by_tag_[live_explain_[hole].tag] = hole;
    }
    live_explain_.pop_back();
  }
  return Status::Ok();
}

Status CtStoreWriter::PutExplain(std::int64_t tag, std::string_view blob) {
  RFID_CHECK(file_ != nullptr);
  if (blob.size() < kExplainBlobMinBytes ||
      std::memcmp(blob.data(), kExplainBlobMagic,
                  sizeof(kExplainBlobMagic)) != 0) {
    return InvalidArgumentError(
        StrFormat("tag %lld: bytes are not an explain blob",
                  static_cast<long long>(tag)));
  }
  return Append(tag, blob, kIndexFlagExplain, &live_explain_,
                &explain_by_tag_);
}

Status CtStoreWriter::Finish() {
  RFID_CHECK(file_ != nullptr);
  if (!dirty_) return Status::Ok();
  std::vector<StoreEntry> merged = live_;
  merged.insert(merged.end(), live_explain_.begin(), live_explain_.end());
  const std::string index = BuildIndexBlock(std::move(merged));
  const std::uint64_t index_offset = append_offset_;
  RFID_RETURN_IF_ERROR(WriteAt(file_, path_, index_offset, index));
  if (std::fflush(file_) != 0) return IoError(path_, "fflush");
  const std::string header =
      BuildStoreHeader(generation_ + 1, index_offset, index);
  RFID_RETURN_IF_ERROR(WriteAt(file_, path_, 0, header));
  if (std::fflush(file_) != 0) return IoError(path_, "fflush");
  ++generation_;
  append_offset_ = AlignUp(index_offset + index.size());
  dirty_ = false;
  return Status::Ok();
}

// ------------------------------------------------------------ compaction

Result<CompactionStats> CompactCtStore(const std::string& path) {
  CtStoreReader reader;
  RFID_ASSIGN_OR_RETURN(reader, CtStoreReader::Open(path));
  CompactionStats stats;
  stats.bytes_before = reader.FileBytes();
  stats.blobs = reader.entries().size();

  const std::string tmp = path + ".tmp";
  {
    CtStoreWriter writer;
    RFID_ASSIGN_OR_RETURN(writer,
                          CtStoreWriter::Create(tmp, /*truncate=*/true));
    for (const StoreEntry& entry : reader.entries()) {
      std::string blob;
      RFID_ASSIGN_OR_RETURN(blob, reader.ReadBlobBytes(entry.tag));
      RFID_RETURN_IF_ERROR(writer.Put(entry.tag, blob));
    }
    // Explain summaries ride along (after the graphs, so Put's stale-
    // summary invalidation cannot touch them).
    for (const StoreEntry& entry : reader.explain_entries()) {
      std::string blob;
      RFID_ASSIGN_OR_RETURN(blob, reader.ReadExplainBytes(entry.tag));
      RFID_RETURN_IF_ERROR(writer.PutExplain(entry.tag, blob));
    }
    RFID_RETURN_IF_ERROR(writer.Finish());
  }
  {
    CtStoreReader compacted;
    RFID_ASSIGN_OR_RETURN(compacted, CtStoreReader::Open(tmp));
    stats.bytes_after = compacted.FileBytes();
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return IoError(path, "rename");
  }
  return stats;
}

}  // namespace rfidclean::store
