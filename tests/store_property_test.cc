#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/graph_audit.h"
#include "common/rng.h"
#include "constraints/constraint_set.h"
#include "core/builder.h"
#include "io/ctgraph_io.h"
#include "model/lsequence.h"
#include "query/marginals.h"
#include "query/most_likely.h"
#include "query/stay_query.h"
#include "store/ct_store.h"
#include "store/graph_codec.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using store::CtStoreReader;
using store::CtStoreWriter;
using store::DecodeCtGraphBlob;
using store::EncodeCtGraphBlob;
using store::MapVerify;

/// Randomized round-trip property: for random cleaned graphs, every
/// serialization path — text, binary blob, a graph mapped over the blob
/// bytes, container — must reproduce the graph bit for bit: identical FNV
/// digests, identical text bytes, identical blob bytes (the v1 encoding is
/// canonical), and bit-identical query answers (marginals, most-likely
/// trajectory, stays) between the built graph and the mapped one. The
/// analysis self-audit hook is armed for the whole test, so every
/// full-verification load re-audits the loaded graph.
///
/// 20 seeds x 10 instances = 200 random graphs per run.
class StoreRoundTripPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { EnableSelfAudit(); }
  void TearDown() override { DisableSelfAudit(); }

  struct Instance {
    LSequence sequence;
    ConstraintSet constraints{1};
  };

  static Instance MakeRandomInstance(Rng& rng) {
    Instance instance;
    const std::size_t num_locations =
        static_cast<std::size_t>(rng.UniformInt(3, 6));
    const Timestamp length = static_cast<Timestamp>(rng.UniformInt(2, 8));

    std::vector<std::vector<Candidate>> candidates;
    for (Timestamp t = 0; t < length; ++t) {
      int k = rng.UniformInt(1, 3);
      std::vector<LocationId> locations(num_locations);
      for (std::size_t i = 0; i < num_locations; ++i) {
        locations[i] = static_cast<LocationId>(i);
      }
      std::vector<Candidate> at_t;
      double total = 0.0;
      for (int i = 0; i < k; ++i) {
        std::size_t j = i + rng.UniformIndex(locations.size() - i);
        std::swap(locations[static_cast<std::size_t>(i)], locations[j]);
        double weight = rng.UniformDouble(0.1, 1.0);
        at_t.push_back(
            Candidate{locations[static_cast<std::size_t>(i)], weight});
        total += weight;
      }
      for (Candidate& candidate : at_t) candidate.probability /= total;
      candidates.push_back(std::move(at_t));
    }
    Result<LSequence> sequence = LSequence::Create(std::move(candidates));
    RFID_CHECK(sequence.ok());
    instance.sequence = std::move(sequence).value();

    ConstraintSet constraints(num_locations);
    for (std::size_t a = 0; a < num_locations; ++a) {
      for (std::size_t b = 0; b < num_locations; ++b) {
        if (a == b) continue;
        if (rng.Bernoulli(0.2)) {
          constraints.AddUnreachable(static_cast<LocationId>(a),
                                     static_cast<LocationId>(b));
        } else if (rng.Bernoulli(0.15)) {
          constraints.AddTravelingTime(
              static_cast<LocationId>(a), static_cast<LocationId>(b),
              static_cast<Timestamp>(rng.UniformInt(2, 4)));
        }
      }
      if (rng.Bernoulli(0.25)) {
        constraints.AddLatency(static_cast<LocationId>(a),
                               static_cast<Timestamp>(rng.UniformInt(2, 3)));
      }
    }
    instance.constraints = std::move(constraints);
    return instance;
  }

  static std::string ToText(const CtGraph& graph) {
    std::ostringstream os;
    WriteCtGraph(graph, os);
    return os.str();
  }
};

TEST_P(StoreRoundTripPropertyTest, AllSerializationPathsAreBitFaithful) {
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/41);
  const std::string store_path =
      ::testing::TempDir() + "store_property_" +
      std::to_string(GetParam()) + ".cts";
  std::remove(store_path.c_str());

  std::vector<std::pair<std::int64_t, std::uint64_t>> stored_digests;
  int built = 0;
  for (int round = 0; round < 10; ++round) {
    Instance instance = MakeRandomInstance(rng);
    CtGraphBuilder builder(instance.constraints);
    Result<CtGraph> built_graph = builder.Build(instance.sequence);
    if (!built_graph.ok()) {
      // Over-constrained instance (no valid trajectory): nothing to store.
      ASSERT_EQ(built_graph.status().code(), StatusCode::kFailedPrecondition)
          << built_graph.status().ToString();
      continue;
    }
    ++built;
    const CtGraph& graph = built_graph.value();
    const std::uint64_t digest = graph.Digest();
    const std::string text = ToText(graph);

    // Text round trip: parse back, digest-identical, re-serializes to the
    // same bytes.
    std::istringstream is(text);
    Result<CtGraph> reread = ReadCtGraph(is);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    EXPECT_EQ(reread.value().Digest(), digest);
    EXPECT_EQ(ToText(reread.value()), text);

    // Binary round trip into a graph that owns a copy of the blob (the
    // armed self-audit hook re-audits the loaded graph inside).
    const store::GraphProvenance provenance{instance.sequence.Digest(),
                                            instance.constraints.Digest()};
    const std::string blob = EncodeCtGraphBlob(graph, round, provenance);
    Result<CtGraph> decoded = DecodeCtGraphBlob(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().Digest(), digest);
    EXPECT_EQ(ToText(decoded.value()), text);

    // The v1 encoding is canonical: re-encoding the decoded graph must
    // reproduce the exact blob bytes.
    EXPECT_EQ(EncodeCtGraphBlob(decoded.value(), round, provenance), blob);

    // Provenance travels in the blob header.
    const unsigned char* bytes =
        reinterpret_cast<const unsigned char*>(blob.data());
    Result<store::BlobInfo> info =
        store::InspectCtGraphBlob(bytes, blob.size());
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().header.tag, round);
    EXPECT_EQ(info.value().header.input_digest, provenance.input_digest);
    EXPECT_EQ(info.value().header.constraint_digest,
              provenance.constraint_digest);

    // A graph aliasing the blob bytes, under full verification: digest and
    // bit-identical query answers against the built graph.
    Result<CtGraph> view =
        DecodeCtGraphBlob(bytes, blob.size(), MapVerify::kFull);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().Digest(), digest);
    EXPECT_EQ(NodeMarginals(view.value()), NodeMarginals(graph));
    const auto [view_path, view_prob] = MostLikelyTrajectory(view.value());
    const auto [graph_path, graph_prob] = MostLikelyTrajectory(graph);
    EXPECT_EQ(view_path, graph_path);
    EXPECT_EQ(view_prob, graph_prob);
    const StayQueryEvaluator view_stays(view.value());
    const StayQueryEvaluator graph_stays(graph);
    for (Timestamp t = 0; t < graph.length(); ++t) {
      EXPECT_EQ(view_stays.Evaluate(t), graph_stays.Evaluate(t)) << "t=" << t;
    }

    // binary -> mapped graph -> text: still byte-identical.
    EXPECT_EQ(ToText(view.value()), text);

    // Accumulate into the container; verified below through the reader.
    Result<CtStoreWriter> writer = CtStoreWriter::OpenOrCreate(store_path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().Put(round, blob).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
    stored_digests.emplace_back(round, digest);
  }
  ASSERT_GT(built, 0) << "every random instance was over-constrained";

  // Container round trip: every stored tag loads, structurally and fully
  // verified, with the recorded digest, and the whole store passes the
  // deep check.
  Result<CtStoreReader> reader = CtStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value().entries().size(), stored_digests.size());
  for (const auto& [tag, digest] : stored_digests) {
    Result<CtGraph> view = reader.value().LoadView(tag, MapVerify::kFull);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().Digest(), digest);
    Result<CtGraph> fast = reader.value().LoadView(tag);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_EQ(fast.value().Digest(), digest);
  }
  EXPECT_TRUE(reader.value().VerifyAll().ok());
  std::remove(store_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreRoundTripPropertyTest,
                         ::testing::Range(0, 20));

TEST(StoreTextOrderTest, UnorderedTextRowsAreRenumberedStablyByLayer) {
  // A text graph whose node rows are not in layer order: rows 2 and 4 are
  // the sources, 1 and 3 sit at t=1, 0 is the target.
  std::istringstream is(
      "ctgraph 3 5\n"
      "node 0 2 2 -1 0\n"
      "node 1 1 1 -1 0\n"
      "node 2 0 1 -1 0.625 5,2 6,3\n"
      "node 3 1 3 1 0 7,2\n"
      "node 4 0 2 2 0.375\n"
      "edge 2 1 0.5\n"
      "edge 2 3 0.5\n"
      "edge 4 3 1\n"
      "edge 1 0 1\n"
      "edge 3 0 1\n");
  Result<CtGraph> graph = ReadCtGraph(is);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  // Stable renumbering by layer: rows 2, 4, 1, 3, 0 become ids 0..4, and the
  // edges follow their nodes.
  std::ostringstream os;
  WriteCtGraph(graph.value(), os);
  EXPECT_EQ(os.str(),
            "ctgraph 3 5\n"
            "node 0 0 1 -1 0.625 5,2 6,3\n"
            "node 1 0 2 2 0.375\n"
            "node 2 1 1 -1 0\n"
            "node 3 1 3 1 0 7,2\n"
            "node 4 2 2 -1 0\n"
            "edge 0 2 0.5\n"
            "edge 0 3 0.5\n"
            "edge 1 3 1\n"
            "edge 2 4 1\n"
            "edge 3 4 1\n");
  // Stores written by earlier builds hold this digest for this file
  // (`store put` renumbered by layer at encode time), so loading must
  // reproduce it.
  constexpr std::uint64_t kStoredDigest = 0x68fbb5db2986b4c5ull;
  EXPECT_EQ(graph.value().Digest(), kStoredDigest);
  Result<CtGraph> loaded =
      DecodeCtGraphBlob(EncodeCtGraphBlob(graph.value(), /*tag=*/1));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Digest(), kStoredDigest);
}

}  // namespace
}  // namespace rfidclean
