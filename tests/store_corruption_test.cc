#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/builder.h"
#include "obs/explain.h"
#include "store/blob_layout.h"
#include "store/ct_store.h"
#include "store/explain_codec.h"
#include "store/graph_codec.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using store::BlobContents;
using store::CtStoreReader;
using store::CtStoreWriter;
using store::DecodeCtGraphBlob;
using store::EncodeCtGraphBlob;
using store::kBlobPreludeBytes;
using store::kNumSections;
using store::kStoreHeaderBytes;
using store::MapVerify;
using store::ParseAndVerifyBlob;
using store::ParseBlobContents;
using store::ParsedBlob;
using store::SectionChecks;
using store::SectionId;
using store::StoreEntry;

/// Exhaustive corruption matrix over the binary formats: every single-byte
/// flip of the blob prelude (header + section table), every truncation
/// length, and one payload corruption per section must come back as a
/// diagnostic Result — never a crash, an RFID_CHECK, or a silently wrong
/// graph. Same discipline for the .cts container header, index block and
/// blob region. The inputs here are *hostile*, not just unlucky: the
/// parsers are the trust boundary between mapped bytes and
/// bounds-trusting accessors.
class StoreCorruptionTest : public ::testing::Test {
 protected:
  static const std::string& PristineBlob() {
    static const std::string* blob = [] {
      // The builder keeps a reference to the constraint set, so it must
      // outlive the Build call — no temporaries here.
      const ConstraintSet constraints =
          ::rfidclean::testing::PaperExampleConstraints();
      CtGraphBuilder builder(constraints);
      Result<CtGraph> graph =
          builder.Build(::rfidclean::testing::PaperExampleSequence());
      RFID_CHECK(graph.ok());
      return new std::string(EncodeCtGraphBlob(
          graph.value(), /*tag=*/7,
          store::GraphProvenance{0x1111222233334444ull,
                                 0x5555666677778888ull}));
    }();
    return *blob;
  }

  static Status ParseStatus(const std::string& bytes, SectionChecks checks) {
    Result<BlobContents> contents = ParseBlobContents(
        reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
        checks);
    return contents.ok() ? Status::Ok() : contents.status();
  }

  /// `bytes` with the chained header CRC recomputed, as a writer that
  /// edits the header or the section table would leave them.
  static std::string WithHeaderCrc(std::string bytes) {
    unsigned char* data = reinterpret_cast<unsigned char*>(bytes.data());
    store::StoreU32(data + store::kBlobHeaderBytes - 4,
                    Crc32(data + store::kBlobHeaderBytes,
                          store::kBlobTableBytes,
                          Crc32(data, store::kBlobHeaderBytes - 4)));
    return bytes;
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    RFID_CHECK(os.good());
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    RFID_CHECK(is.good());
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  }
};

TEST_F(StoreCorruptionTest, EveryPreludeByteFlipIsRejected) {
  // Bytes [0, 96) are the header (self-checksummed via the chained
  // header_crc), [96, 288) the section table (inside the same CRC
  // envelope): no single-byte corruption anywhere in the prelude may
  // survive, in either verification mode.
  const std::string& pristine = PristineBlob();
  ASSERT_GE(pristine.size(), kBlobPreludeBytes);
  for (std::size_t at = 0; at < kBlobPreludeBytes; ++at) {
    std::string corrupted = pristine;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    for (SectionChecks checks :
         {SectionChecks::kGeometry, SectionChecks::kAll}) {
      Status status = ParseStatus(corrupted, checks);
      ASSERT_FALSE(status.ok()) << "flip at byte " << at << " was accepted";
      EXPECT_FALSE(status.message().empty());
    }
  }
}

TEST_F(StoreCorruptionTest, EveryTruncationLengthIsRejected) {
  // The final section must end flush with the blob, so *every* strict
  // prefix is invalid; so is a blob with trailing garbage.
  const std::string& pristine = PristineBlob();
  for (std::size_t size = 0; size < pristine.size(); ++size) {
    Status status =
        ParseStatus(pristine.substr(0, size), SectionChecks::kGeometry);
    ASSERT_FALSE(status.ok()) << "prefix of " << size << " bytes accepted";
  }
  EXPECT_FALSE(
      ParseStatus(pristine + std::string(8, '\0'), SectionChecks::kAll)
          .ok());
}

TEST_F(StoreCorruptionTest, NonzeroReservedOrPaddingBytesAreRejected) {
  // Reserved header fields and inter-section padding are zero in the only
  // accepted encoding. A writer that recomputes the header CRC (or touches
  // padding, which no CRC covers) must still be refused, or the load ->
  // encode round trip would not reproduce the bytes.
  const std::string& pristine = PristineBlob();
  ASSERT_EQ(WithHeaderCrc(pristine), pristine);
  for (std::size_t at : {28u, 31u, 72u, 91u}) {
    std::string corrupted = pristine;
    corrupted[at] = 1;
    const Status status =
        ParseStatus(WithHeaderCrc(corrupted), SectionChecks::kGeometry);
    EXPECT_FALSE(status.ok()) << "reserved byte " << at << " accepted";
  }
  Result<ParsedBlob> parsed = ParseAndVerifyBlob(
      reinterpret_cast<const unsigned char*>(pristine.data()),
      pristine.size());
  ASSERT_TRUE(parsed.ok());
  int padded = 0;
  for (std::uint32_t s = 1; s <= kNumSections; ++s) {
    const store::SectionEntry& section =
        parsed.value().Section(static_cast<SectionId>(s));
    const std::uint64_t end = section.offset + section.size;
    if (end % 8 == 0) continue;
    ++padded;
    std::string corrupted = pristine;
    corrupted[static_cast<std::size_t>(end)] = 1;
    const Status status = ParseStatus(corrupted, SectionChecks::kGeometry);
    EXPECT_FALSE(status.ok()) << "padding after section " << s << " accepted";
  }
  EXPECT_GT(padded, 0);
}

TEST_F(StoreCorruptionTest, OverlongVarintIsRejected) {
  // The first KEYS varint re-spelled with a redundant zero continuation
  // byte (0x02 -> 0x82 0x00) decodes to the same value; with the section's
  // size and CRC and the header CRC updated it must still be refused, or
  // one graph would have two encodings.
  const std::string& pristine = PristineBlob();
  Result<ParsedBlob> parsed = ParseAndVerifyBlob(
      reinterpret_cast<const unsigned char*>(pristine.data()),
      pristine.size());
  ASSERT_TRUE(parsed.ok());
  const store::SectionEntry keys = parsed.value().Section(SectionId::kKeys);
  // The longer payload must still fit before the next section.
  ASSERT_NE((keys.offset + keys.size) % 8, 0u);
  const std::size_t at = static_cast<std::size_t>(keys.offset);
  ASSERT_LT(static_cast<unsigned char>(pristine[at]), 0x80);
  std::string payload = pristine.substr(at, keys.size);
  payload[0] = static_cast<char>(payload[0] | 0x80);
  payload.insert(payload.begin() + 1, '\0');
  std::string overlong = pristine;
  overlong.replace(at, payload.size(), payload);
  unsigned char* entry = reinterpret_cast<unsigned char*>(overlong.data()) +
                         store::kBlobHeaderBytes + store::kSectionEntryBytes;
  store::StoreU32(entry + 4, Crc32(payload.data(), payload.size()));
  store::StoreU32(entry + 16, static_cast<std::uint32_t>(payload.size()));
  const Status status =
      ParseStatus(WithHeaderCrc(overlong), SectionChecks::kGeometry);
  EXPECT_FALSE(status.ok());
}

TEST_F(StoreCorruptionTest, PayloadCorruptionIsCaughtPerVerificationTier) {
  const std::string& pristine = PristineBlob();
  ParsedBlob parsed;
  {
    Result<ParsedBlob> ok = ParseAndVerifyBlob(
        reinterpret_cast<const unsigned char*>(pristine.data()),
        pristine.size());
    ASSERT_TRUE(ok.ok());
    parsed = ok.value();
  }
  for (std::uint32_t s = 1; s <= kNumSections; ++s) {
    const SectionId id = static_cast<SectionId>(s);
    ASSERT_GT(parsed.SectionSize(id), 0u) << "section " << s;
    std::string corrupted = pristine;
    const std::size_t at = static_cast<std::size_t>(
        parsed.Section(id).offset + parsed.SectionSize(id) / 2);
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);

    // Full checks always catch the flip via the section CRC.
    EXPECT_FALSE(ParseStatus(corrupted, SectionChecks::kAll).ok())
        << "section " << s;
    const unsigned char* data =
        reinterpret_cast<const unsigned char*>(corrupted.data());

    const bool probability_payload =
        id == SectionId::kSourceProb || id == SectionId::kEdgeProb;
    if (probability_payload) {
      // The structural fast path deliberately skips the probability
      // payload CRCs (they cannot affect memory safety)...
      EXPECT_TRUE(ParseStatus(corrupted, SectionChecks::kGeometry).ok())
          << "section " << s;
      // ...but the full-verification load still rejects the blob (section
      // CRC, then digest).
      EXPECT_FALSE(
          DecodeCtGraphBlob(data, corrupted.size(), MapVerify::kFull).ok())
          << "section " << s;
    } else {
      // Geometry-bearing sections are checksummed on every load.
      EXPECT_FALSE(ParseStatus(corrupted, SectionChecks::kGeometry).ok())
          << "section " << s;
      EXPECT_FALSE(
          DecodeCtGraphBlob(data, corrupted.size(), MapVerify::kStructural)
              .ok())
          << "section " << s;
    }
  }
}

TEST_F(StoreCorruptionTest, ContainerHeaderAndIndexFlipsAreRejectedAtOpen) {
  const std::string path = ::testing::TempDir() + "corrupt_header.cts";
  {
    std::remove(path.c_str());
    Result<CtStoreWriter> writer = CtStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().Put(7, PristineBlob()).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  const std::string pristine = ReadFile(path);
  ASSERT_TRUE(CtStoreReader::Open(path).ok());

  // The 64-byte header is self-checksummed and the index block is covered
  // by the header's index_crc: every byte flip in either region must fail
  // at Open time.
  const std::uint64_t index_offset = store::LoadU64(
      reinterpret_cast<const unsigned char*>(pristine.data()) + 16);
  ASSERT_LT(index_offset, pristine.size());
  std::vector<std::pair<std::size_t, std::size_t>> regions = {
      {0, kStoreHeaderBytes}, {index_offset, pristine.size()}};
  for (const auto& [begin, end] : regions) {
    for (std::size_t at = begin; at < end; ++at) {
      std::string corrupted = pristine;
      corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
      WriteFile(path, corrupted);
      Result<CtStoreReader> reader = CtStoreReader::Open(path);
      ASSERT_FALSE(reader.ok()) << "flip at byte " << at << " was accepted";
      EXPECT_FALSE(reader.status().message().empty());
    }
  }
  std::remove(path.c_str());
}

TEST_F(StoreCorruptionTest, ContainerBlobFlipsAreCaughtByLoadOrVerifyAll) {
  const std::string path = ::testing::TempDir() + "corrupt_blob.cts";
  {
    std::remove(path.c_str());
    Result<CtStoreWriter> writer = CtStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().Put(7, PristineBlob()).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  const std::string pristine = ReadFile(path);
  Result<CtStoreReader> pristine_reader = CtStoreReader::Open(path);
  ASSERT_TRUE(pristine_reader.ok());
  ASSERT_EQ(pristine_reader.value().entries().size(), 1u);
  const std::uint64_t blob_offset =
      pristine_reader.value().entries()[0].offset;
  const std::uint64_t blob_size = pristine_reader.value().entries()[0].size;

  // Blob bytes are outside the index CRC envelope (Open stays cheap), so
  // Open succeeds; the per-entry blob CRC in VerifyAll must catch every
  // flip, and the full-verification load must never hand out a view of a
  // corrupted blob.
  for (std::uint64_t at = blob_offset; at < blob_offset + blob_size;
       at += 97) {
    std::string corrupted = pristine;
    corrupted[static_cast<std::size_t>(at)] =
        static_cast<char>(corrupted[static_cast<std::size_t>(at)] ^ 0x5A);
    WriteFile(path, corrupted);
    Result<CtStoreReader> reader = CtStoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_FALSE(reader.value().VerifyAll().ok())
        << "flip at byte " << at << " passed VerifyAll";
    Result<CtGraph> view = reader.value().LoadView(7, MapVerify::kFull);
    EXPECT_FALSE(view.ok()) << "flip at byte " << at << " loaded (kFull)";
  }
  std::remove(path.c_str());
}

TEST_F(StoreCorruptionTest, VerifyAllNamesTheFailingCheckTier) {
  // `store verify` triage depends on VerifyAll saying *which* verification
  // layer tripped: the index's whole-blob CRC envelope, the materializing
  // decode (which names the failing section), or the explain-summary
  // tiers. Each corruption class must surface under its own tier label.
  const std::string path = ::testing::TempDir() + "tiers.cts";

  const auto verify_message = [&]() {
    Result<CtStoreReader> reader = CtStoreReader::Open(path);
    RFID_CHECK(reader.ok());
    Status status = reader.value().VerifyAll();
    RFID_CHECK(!status.ok());
    return std::string(status.message());
  };

  // (a) decode tier: stored bytes internally corrupted mid-section. The
  // magic is intact so Put accepts them, and the index CRC envelopes the
  // corrupted bytes as-written, so the first tier passes; the decoder must
  // report the flip and name the failing section.
  ParsedBlob parsed;
  {
    Result<ParsedBlob> ok = ParseAndVerifyBlob(
        reinterpret_cast<const unsigned char*>(PristineBlob().data()),
        PristineBlob().size());
    ASSERT_TRUE(ok.ok());
    parsed = ok.value();
  }
  const SectionId first = static_cast<SectionId>(1);
  std::string bad_graph = PristineBlob();
  const std::size_t graph_flip = static_cast<std::size_t>(
      parsed.Section(first).offset + parsed.SectionSize(first) / 2);
  bad_graph[graph_flip] = static_cast<char>(bad_graph[graph_flip] ^ 0x5A);
  {
    std::remove(path.c_str());
    Result<CtStoreWriter> writer = CtStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Put(7, bad_graph).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  std::string message = verify_message();
  EXPECT_NE(message.find("tag 7: check decode:"), std::string::npos)
      << message;
  EXPECT_NE(message.find("section"), std::string::npos) << message;

  // (b) explain-decode tier: same trick on an explain-summary blob.
  obs::ExplainTagSummary summary;
  summary.tag = 9;
  summary.status = "ok";
  std::string bad_explain = store::EncodeExplainBlob(summary);
  bad_explain[12] = static_cast<char>(bad_explain[12] ^ 0x5A);
  {
    std::remove(path.c_str());
    Result<CtStoreWriter> writer = CtStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().PutExplain(9, bad_explain).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  message = verify_message();
  EXPECT_NE(message.find("tag 9: check explain-decode:"), std::string::npos)
      << message;

  // (c) index-crc / explain-crc tiers: a pristine store whose file bytes
  // rot after Finish fails the per-entry CRC envelope, labeled by entry
  // kind.
  {
    std::remove(path.c_str());
    Result<CtStoreWriter> writer = CtStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Put(7, PristineBlob()).ok());
    ASSERT_TRUE(
        writer.value()
            .PutExplain(9, store::EncodeExplainBlob(summary))
            .ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  const std::string finished = ReadFile(path);
  Result<CtStoreReader> pristine_reader = CtStoreReader::Open(path);
  ASSERT_TRUE(pristine_reader.ok());
  ASSERT_TRUE(pristine_reader.value().VerifyAll().ok());
  const StoreEntry graph_entry = pristine_reader.value().entries()[0];
  const StoreEntry explain_entry =
      pristine_reader.value().explain_entries()[0];

  std::string rotted = finished;
  std::size_t at =
      static_cast<std::size_t>(graph_entry.offset + graph_entry.size / 2);
  rotted[at] = static_cast<char>(rotted[at] ^ 0x5A);
  WriteFile(path, rotted);
  message = verify_message();
  EXPECT_NE(message.find("tag 7: check index-crc:"), std::string::npos)
      << message;

  rotted = finished;
  at = static_cast<std::size_t>(explain_entry.offset +
                                explain_entry.size / 2);
  rotted[at] = static_cast<char>(rotted[at] ^ 0x5A);
  WriteFile(path, rotted);
  message = verify_message();
  EXPECT_NE(message.find("tag 9: check explain-crc:"), std::string::npos)
      << message;
  std::remove(path.c_str());
}

TEST_F(StoreCorruptionTest, ContainerTruncationsAreRejected) {
  const std::string path = ::testing::TempDir() + "truncate.cts";
  {
    std::remove(path.c_str());
    Result<CtStoreWriter> writer = CtStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().Put(7, PristineBlob()).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  const std::string pristine = ReadFile(path);
  // The index block is the last thing Finish writes, so every strict
  // prefix of a finished store cuts into it (or the header) and must be
  // rejected at Open.
  for (std::size_t size = 0; size < pristine.size(); ++size) {
    WriteFile(path, pristine.substr(0, size));
    Result<CtStoreReader> reader = CtStoreReader::Open(path);
    ASSERT_FALSE(reader.ok()) << "prefix of " << size << " bytes accepted";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rfidclean
