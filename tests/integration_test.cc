#include <gtest/gtest.h>

#include "baseline/uncleaned.h"
#include "baseline/validity.h"
#include "core/builder.h"
#include "eval/accuracy.h"
#include "eval/workload.h"
#include "gen/dataset.h"
#include "gen/reading_generator.h"
#include "query/sampler.h"
#include "query/stay_query.h"

namespace rfidclean {
namespace {

/// End-to-end pipeline checks on a small but realistic dataset: building ->
/// readers -> calibration -> trajectories -> readings -> l-sequences ->
/// ct-graphs -> queries.
class PipelineTest : public ::testing::Test {
 protected:
  static const Dataset& dataset() {
    static const Dataset* dataset = [] {
      DatasetOptions options = DatasetOptions::Syn1();
      options.num_floors = 3;
      options.durations_ticks = {120};
      options.trajectories_per_duration = 3;
      options.seed = 21;
      return Dataset::Build(options).release();
    }();
    return *dataset;
  }
};

TEST_F(PipelineTest, GraphsAreConsistentForEveryFamily) {
  for (const ConstraintFamilies& families :
       {ConstraintFamilies::Du(), ConstraintFamilies::DuLt(),
        ConstraintFamilies::DuLtTt()}) {
    ConstraintSet constraints = dataset().MakeConstraints(families);
    CtGraphBuilder builder(constraints);
    for (const Dataset::Item& item : dataset().items()) {
      Result<CtGraph> graph = builder.Build(item.lsequence);
      ASSERT_TRUE(graph.ok()) << ConstraintFamiliesLabel(families) << ": "
                              << graph.status().ToString();
      Status consistency = graph.value().CheckConsistency();
      EXPECT_TRUE(consistency.ok()) << consistency.ToString();
    }
  }
}

TEST_F(PipelineTest, StrongerConstraintsNeverEnlargeTheGraph) {
  ConstraintSet du = dataset().MakeConstraints(ConstraintFamilies::Du());
  ConstraintSet all = dataset().MakeConstraints(ConstraintFamilies::DuLtTt());
  CtGraphBuilder du_builder(du);
  CtGraphBuilder all_builder(all);
  for (const Dataset::Item& item : dataset().items()) {
    Result<CtGraph> du_graph = du_builder.Build(item.lsequence);
    Result<CtGraph> all_graph = all_builder.Build(item.lsequence);
    ASSERT_TRUE(du_graph.ok());
    ASSERT_TRUE(all_graph.ok());
    // More constraints = fewer valid trajectories; distinct-location layers
    // can only shrink even though per-(time,location) node variants may
    // multiply (TL states). Compare represented trajectory mass width-wise:
    // each layer's distinct locations under DU+LT+TT is a subset.
    for (Timestamp t = 0; t < 120; ++t) {
      std::set<LocationId> du_locations;
      for (NodeId id : du_graph.value().NodesAt(t)) {
        du_locations.insert(du_graph.value().LocationOf(id));
      }
      for (NodeId id : all_graph.value().NodesAt(t)) {
        EXPECT_TRUE(du_locations.count(
            all_graph.value().LocationOf(id)))
            << "t=" << t;
      }
    }
  }
}

TEST_F(PipelineTest, SampledTrajectoriesAreValid) {
  ConstraintSet constraints =
      dataset().MakeConstraints(ConstraintFamilies::DuLtTt());
  CtGraphBuilder builder(constraints);
  Rng rng(77);
  for (const Dataset::Item& item : dataset().items()) {
    Result<CtGraph> graph = builder.Build(item.lsequence);
    ASSERT_TRUE(graph.ok());
    TrajectorySampler sampler(graph.value());
    for (int i = 0; i < 10; ++i) {
      Trajectory sample = sampler.Sample(rng);
      EXPECT_TRUE(IsValidTrajectory(sample, constraints));
    }
  }
}

TEST_F(PipelineTest, StayDistributionsSumToOneEverywhere) {
  ConstraintSet constraints =
      dataset().MakeConstraints(ConstraintFamilies::DuLt());
  CtGraphBuilder builder(constraints);
  for (const Dataset::Item& item : dataset().items()) {
    Result<CtGraph> graph = builder.Build(item.lsequence);
    ASSERT_TRUE(graph.ok());
    StayQueryEvaluator evaluator(graph.value());
    for (Timestamp t = 0; t < item.duration; t += 13) {
      double sum = 0.0;
      for (const auto& [location, probability] : evaluator.Evaluate(t)) {
        EXPECT_GT(probability, 0.0);
        sum += probability;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST_F(PipelineTest, CleaningImprovesStayAccuracyOnAggregate) {
  // The paper's Figure 9(a) effect: conditioning under the full constraint
  // set should not degrade — and in practice improves — the probability
  // assigned to the true location. Asserted with a safety margin since it
  // is a statistical, not logical, guarantee.
  ConstraintSet constraints =
      dataset().MakeConstraints(ConstraintFamilies::DuLtTt());
  CtGraphBuilder builder(constraints);
  Rng rng(123);
  double cleaned_total = 0.0;
  double uncleaned_total = 0.0;
  int count = 0;
  for (const Dataset::Item& item : dataset().items()) {
    Result<CtGraph> graph = builder.Build(item.lsequence);
    ASSERT_TRUE(graph.ok());
    StayQueryEvaluator evaluator(graph.value());
    UncleanedModel uncleaned(item.lsequence);
    std::vector<Timestamp> times = StayQueryWorkload(item.duration, 40, rng);
    cleaned_total += StayQueryAccuracy(evaluator, item.ground_truth, times);
    uncleaned_total +=
        UncleanedStayAccuracy(uncleaned, item.ground_truth, times);
    ++count;
  }
  EXPECT_GT(cleaned_total / count, uncleaned_total / count - 0.05);
}

TEST_F(PipelineTest, GroundTruthSurvivesCleaningWhenRepresentable) {
  // If every ground-truth step is a candidate of the l-sequence, the
  // trajectory is valid (DatasetTest) and must survive conditioning with a
  // positive probability.
  ConstraintSet constraints =
      dataset().MakeConstraints(ConstraintFamilies::DuLtTt());
  CtGraphBuilder builder(constraints);
  for (const Dataset::Item& item : dataset().items()) {
    bool representable = true;
    for (Timestamp t = 0; t < item.duration; ++t) {
      if (item.lsequence.ProbabilityAt(t, item.ground_truth.At(t)) <= 0.0) {
        representable = false;
        break;
      }
    }
    if (!representable) continue;
    Result<CtGraph> graph = builder.Build(item.lsequence);
    ASSERT_TRUE(graph.ok());
    EXPECT_GT(graph.value().TrajectoryProbability(item.ground_truth), 0.0);
  }
}


TEST_F(PipelineTest, SurvivesReaderOutage) {
  // Failure injection: a reader dies after calibration (its rows stay in
  // the a-priori model but it never fires again). The pipeline must still
  // produce consistent graphs — detections just get sparser.
  const Dataset& base = dataset();
  CoverageMatrix crippled = base.truth_coverage();
  for (int c = 0; c < crippled.num_cells(); ++c) {
    crippled.SetProbability(0, c, 0.0);  // Kill reader 0.
  }
  ReadingGenerator generator(base.grid(), crippled);
  Rng rng(31337);
  RSequence readings =
      generator.Generate(base.items()[0].continuous, rng);
  for (Timestamp t = 0; t < readings.length(); ++t) {
    for (ReaderId r : readings.ReadersAt(t)) {
      EXPECT_NE(r, 0);
    }
  }
  LSequence sequence = LSequence::FromReadings(readings, base.apriori());
  ConstraintSet constraints =
      base.MakeConstraints(ConstraintFamilies::DuLt());
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph = builder.Build(sequence);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(graph.value().CheckConsistency().ok());
}

TEST_F(PipelineTest, DatasetBuildIsDeterministic) {
  DatasetOptions options = DatasetOptions::Syn1();
  options.num_floors = 2;
  options.durations_ticks = {40};
  options.trajectories_per_duration = 1;
  options.seed = 4242;
  std::unique_ptr<Dataset> a = Dataset::Build(options);
  std::unique_ptr<Dataset> b = Dataset::Build(options);
  ASSERT_EQ(a->items().size(), b->items().size());
  for (std::size_t i = 0; i < a->items().size(); ++i) {
    EXPECT_EQ(a->items()[i].ground_truth, b->items()[i].ground_truth);
    for (Timestamp t = 0; t < 40; ++t) {
      EXPECT_EQ(a->items()[i].readings.ReadersAt(t),
                b->items()[i].readings.ReadersAt(t));
    }
  }
}

}  // namespace
}  // namespace rfidclean
