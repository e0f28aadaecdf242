#include "core/ct_graph.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::kL1;
using ::rfidclean::testing::kL2;
using ::rfidclean::testing::kL3;
using ::rfidclean::testing::MakeLSequence;

CtGraph::Node MakeNode(Timestamp time, LocationId location,
                       double source_probability = 0.0) {
  CtGraph::Node node;
  node.time = time;
  node.key.location = location;
  node.source_probability = source_probability;
  return node;
}

// --- Assemble -------------------------------------------------------------------

TEST(CtGraphAssembleTest, AcceptsMinimalValidGraph) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{1, 1.0});
  nodes.push_back(MakeNode(1, kL2));
  Result<CtGraph> graph = CtGraph::Assemble(std::move(nodes), 2);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().NumNodes(), 2u);
  EXPECT_EQ(graph.value().NumEdges(), 1u);
  EXPECT_NEAR(graph.value().TrajectoryProbability(Trajectory({kL1, kL2})),
              1.0, 1e-12);
}

TEST(CtGraphAssembleTest, RejectsNonPositiveLength) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 0).ok());
}

TEST(CtGraphAssembleTest, RejectsOutOfRangeTimestamps) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(3, kL1, 1.0));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

TEST(CtGraphAssembleTest, RejectsDanglingEdges) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{7, 1.0});
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

TEST(CtGraphAssembleTest, RejectsSourceProbabilitiesNotSummingToOne) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 0.6));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 1).ok());
}

TEST(CtGraphAssembleTest, RejectsUnnormalizedOutEdges) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{1, 0.5});
  nodes.push_back(MakeNode(1, kL2));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

TEST(CtGraphAssembleTest, RejectsNonTargetLeaf) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));  // No out-edge, but length 2.
  nodes.push_back(MakeNode(1, kL2));       // Unreachable too.
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

TEST(CtGraphAssembleTest, RejectsEdgeSkippingLayers) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{1, 1.0});
  nodes.push_back(MakeNode(2, kL2));  // Skips t=1.
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 3).ok());
}

TEST(CtGraphAssembleTest, RejectsSourceProbabilityOnNonSource) {
  // Only t=0 nodes carry p_N; the graph stores no slot for any other node,
  // so a nonzero value elsewhere is malformed input, not something to drop.
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{1, 1.0});
  nodes.push_back(MakeNode(1, kL2, 0.5));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

// --- Accessors and traversal -------------------------------------------------------

TEST(CtGraphTest, KeepsTlListsLongerThanTheInlineCapacity) {
  // Six departures spill past DepartureList's four inline slots.
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  for (int i = 0; i < 6; ++i) {
    nodes[0].key.departures.push_back(
        Departure{static_cast<Timestamp>(10 + i), static_cast<LocationId>(i)});
  }
  Result<CtGraph> graph = CtGraph::Assemble(std::move(nodes), 1);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::vector<Departure> departures;
  for (const Departure& d : graph.value().DeparturesOf(0)) {
    departures.push_back(d);
  }
  ASSERT_EQ(departures.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(departures[static_cast<std::size_t>(i)],
              (Departure{static_cast<Timestamp>(10 + i),
                         static_cast<LocationId>(i)}));
  }
}

TEST(CtGraphTest, EmptyDefaultGraph) {
  CtGraph graph;
  EXPECT_EQ(graph.length(), 0);
  EXPECT_EQ(graph.NumNodes(), 0u);
  EXPECT_EQ(graph.NumEdges(), 0u);
}

TEST(CtGraphTest, TrajectoryProbabilityRejectsWrongLength) {
  ConstraintSet constraints(6);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph =
      builder.Build(MakeLSequence({{{kL1, 1.0}}, {{kL2, 1.0}}}));
  ASSERT_TRUE(graph.ok());
  EXPECT_PROB_NEAR(graph.value().TrajectoryProbability(Trajectory({kL1})), 0.0);
  EXPECT_EQ(
      graph.value().TrajectoryProbability(Trajectory({kL1, kL2, kL2})),
      0.0);
}

TEST(CtGraphTest, NodesAtPartitionsAllNodes) {
  ConstraintSet constraints(6);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph = builder.Build(MakeLSequence(
      {{{kL1, 0.5}, {kL2, 0.5}}, {{kL1, 0.5}, {kL3, 0.5}}}));
  ASSERT_TRUE(graph.ok());
  std::size_t total = 0;
  for (Timestamp t = 0; t < graph.value().length(); ++t) {
    for (NodeId id : graph.value().NodesAt(t)) {
      EXPECT_EQ(graph.value().TimeOf(id), t);
      ++total;
    }
  }
  EXPECT_EQ(total, graph.value().NumNodes());
}

TEST(CtGraphTest, SourceAndTargetLayersCoincideForLengthOne) {
  ConstraintSet constraints(6);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph =
      builder.Build(MakeLSequence({{{kL1, 0.3}, {kL2, 0.7}}}));
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().SourceNodes(), graph.value().TargetNodes());
}

}  // namespace
}  // namespace rfidclean
