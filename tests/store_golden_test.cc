#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ct_graph.h"
#include "query/marginals.h"
#include "store/ct_store.h"
#include "store/graph_codec.h"

namespace rfidclean {
namespace {

using store::CtStoreReader;
using store::CtStoreWriter;
using store::DecodeCtGraphBlob;
using store::EncodeCtGraphBlob;
using store::MapVerify;

/// Byte-for-byte acceptance of the v1 binary formats against checked-in
/// golden fixtures. The fixture graph is hand-assembled (not built from an
/// l-sequence), with dyadic probabilities, so these tests pin the *codec*
/// only: they fail exactly when the on-disk encoding changes, which is a
/// format-version event (docs/FORMATS.md), never as a side effect of
/// cleaner or generator changes.
///
/// Regenerating after an intentional v-next change:
///   RFIDCLEAN_REGEN_GOLDEN=1 ./build/tests/store_golden_test
/// rewrites both fixtures in the source tree; commit them together with
/// the FORMATS.md update and a bumped kFormatVersion.
class StoreGoldenTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kTag = 42;
  static constexpr std::int64_t kSecondTag = 7;
  static constexpr store::GraphProvenance kProvenance{0x0123456789abcdefull,
                                                      0xfedcba9876543210ull};

  /// 3 layers, 5 nodes, 5 edges; exercises every key field: TL departure
  /// lists (sorted by location), latency deltas, kDeltaBottom, multiple
  /// sources. All probabilities are dyadic, so encoding is exact.
  static CtGraph GoldenGraph() {
    std::vector<CtGraph::Node> nodes(5);
    nodes[0].time = 0;
    nodes[0].key.location = 1;
    nodes[0].key.departures.push_back(Departure{5, 2});
    nodes[0].key.departures.push_back(Departure{6, 3});
    nodes[0].source_probability = 0.625;
    nodes[0].out_edges = {{2, 0.5}, {3, 0.5}};
    nodes[1].time = 0;
    nodes[1].key.location = 2;
    nodes[1].key.delta = 2;
    nodes[1].source_probability = 0.375;
    nodes[1].out_edges = {{3, 1.0}};
    nodes[2].time = 1;
    nodes[2].key.location = 1;
    nodes[2].out_edges = {{4, 1.0}};
    nodes[3].time = 1;
    nodes[3].key.location = 3;
    nodes[3].key.delta = 1;
    nodes[3].key.departures.push_back(Departure{7, 2});
    nodes[3].out_edges = {{4, 1.0}};
    nodes[4].time = 2;
    nodes[4].key.location = 2;
    Result<CtGraph> graph = CtGraph::Assemble(std::move(nodes), 3);
    RFID_CHECK(graph.ok());
    return std::move(graph).value();
  }

  static std::string DataPath(const char* name) {
    return std::string(RFIDCLEAN_TEST_DATA_DIR) + "/" + name;
  }

  static std::string ReadFileOrEmpty(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) return {};
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    RFID_CHECK(os.good());
  }

  /// The exact bytes of the container fixture: two puts in a fixed order.
  /// CtStoreWriter is timestamp-free, so this is fully deterministic.
  static std::string BuildGoldenStoreBytes(const std::string& work_path) {
    std::remove(work_path.c_str());
    Result<CtStoreWriter> writer = CtStoreWriter::Create(work_path);
    RFID_CHECK(writer.ok());
    const CtGraph graph = GoldenGraph();
    RFID_CHECK(
        writer.value().Put(kTag, EncodeCtGraphBlob(graph, kTag, kProvenance))
            .ok());
    RFID_CHECK(writer.value()
                   .Put(kSecondTag,
                        EncodeCtGraphBlob(graph, kSecondTag, kProvenance))
                   .ok());
    RFID_CHECK(writer.value().Finish().ok());
    std::string bytes = ReadFileOrEmpty(work_path);
    std::remove(work_path.c_str());
    return bytes;
  }

  static bool RegenRequested() {
    const char* regen = std::getenv("RFIDCLEAN_REGEN_GOLDEN");
    return regen != nullptr && *regen != '\0' && *regen != '0';
  }
};

constexpr store::GraphProvenance StoreGoldenTest::kProvenance;

TEST_F(StoreGoldenTest, BlobFixtureMatchesEncoderByteForByte) {
  const std::string blob = EncodeCtGraphBlob(GoldenGraph(), kTag, kProvenance);
  const std::string path = DataPath("golden_ctgraph_v1.bin");
  if (RegenRequested()) {
    WriteFile(path, blob);
    GTEST_SKIP() << "regenerated " << path << " (" << blob.size()
                 << " bytes)";
  }
  const std::string fixture = ReadFileOrEmpty(path);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << path
                                << " — run with RFIDCLEAN_REGEN_GOLDEN=1";
  ASSERT_EQ(blob.size(), fixture.size())
      << "encoded blob size drifted from the v1 fixture";
  EXPECT_EQ(blob, fixture)
      << "encoded bytes drifted from the v1 fixture: this is a format "
         "change and needs a version bump + FORMATS.md update";
}

TEST_F(StoreGoldenTest, BlobFixtureDecodesToTheGoldenGraph) {
  const std::string fixture =
      ReadFileOrEmpty(DataPath("golden_ctgraph_v1.bin"));
  if (fixture.empty()) GTEST_SKIP() << "fixture not generated yet";
  Result<CtGraph> decoded = DecodeCtGraphBlob(fixture);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const CtGraph golden = GoldenGraph();
  EXPECT_EQ(decoded.value().Digest(), golden.Digest());

  // The structural fast path over the caller's bytes loads the same graph.
  const unsigned char* data =
      reinterpret_cast<const unsigned char*>(fixture.data());
  Result<CtGraph> mapped =
      DecodeCtGraphBlob(data, fixture.size(), MapVerify::kStructural);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().Digest(), golden.Digest());
  Result<store::BlobInfo> info =
      store::InspectCtGraphBlob(data, fixture.size());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().header.tag, kTag);
  EXPECT_EQ(info.value().header.input_digest, kProvenance.input_digest);
  EXPECT_EQ(info.value().header.constraint_digest,
            kProvenance.constraint_digest);
  EXPECT_EQ(NodeMarginals(mapped.value()), NodeMarginals(golden));
}

TEST_F(StoreGoldenTest, ContainerFixtureMatchesWriterByteForByte) {
  const std::string bytes =
      BuildGoldenStoreBytes(::testing::TempDir() + "golden_regen.cts");
  const std::string path = DataPath("golden_store_v1.cts");
  if (RegenRequested()) {
    WriteFile(path, bytes);
    GTEST_SKIP() << "regenerated " << path << " (" << bytes.size()
                 << " bytes)";
  }
  const std::string fixture = ReadFileOrEmpty(path);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << path
                                << " — run with RFIDCLEAN_REGEN_GOLDEN=1";
  EXPECT_EQ(bytes, fixture)
      << "container bytes drifted from the v1 fixture: this is a format "
         "change and needs a version bump + FORMATS.md update";
}

TEST_F(StoreGoldenTest, ContainerFixtureOpensAndFullyVerifies) {
  const std::string path = DataPath("golden_store_v1.cts");
  if (ReadFileOrEmpty(path).empty()) GTEST_SKIP() << "fixture not generated";
  Result<CtStoreReader> reader = CtStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value().entries().size(), 2u);
  EXPECT_EQ(reader.value().entries()[0].tag, kTag);
  EXPECT_EQ(reader.value().entries()[1].tag, kSecondTag);
  EXPECT_TRUE(reader.value().VerifyAll().ok());
  const CtGraph golden = GoldenGraph();
  for (std::int64_t tag : {kTag, kSecondTag}) {
    Result<CtGraph> view = reader.value().LoadView(tag, MapVerify::kFull);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().Digest(), golden.Digest());
  }
}

}  // namespace
}  // namespace rfidclean
