// Multi-tag batch cleaning throughput (runtime/batch_cleaner.h): cleans the
// same N-tag workload at jobs ∈ {1, 2, 4, 8} and emits BENCH_batch.json
// with tags/sec, wall time and peak RSS per job count, plus a digest of the
// result payload (statuses + serialized graphs). The digest is timing-free
// and scheduling-free, so two runs with the same workload and seed must
// produce byte-identical digests at every job count — enforced by the
// `bench_batch_determinism` ctest entry.
//
//   batch_throughput [--tags N] [--ticks T] [--seed S]
//                    [--jobs 1,2,4,8] [--out BENCH_batch.json] [--paper]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "constraints/inference.h"
#include "gen/reading_generator.h"
#include "gen/trajectory_generator.h"
#include "io/ctgraph_io.h"
#include "map/building_grid.h"
#include "map/standard_buildings.h"
#include "map/walking_distance.h"
#include "model/apriori.h"
#include "obs/cleaning_stats.h"
#include "rfid/calibration.h"
#include "rfid/reader_placement.h"
#include "runtime/batch_cleaner.h"

namespace rfidclean::bench {
namespace {

std::uint64_t Fnv1a(std::uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Timing-free digest of a batch result: statuses and full graph
/// serializations, in outcome order.
std::uint64_t DigestOutcomes(const std::vector<TagOutcome>& outcomes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const TagOutcome& outcome : outcomes) {
    hash = Fnv1a(hash, StrFormat("tag=%lld;",
                                 static_cast<long long>(outcome.tag)));
    if (!outcome.graph.ok()) {
      hash = Fnv1a(hash, outcome.graph.status().ToString());
      continue;
    }
    std::ostringstream os;
    WriteCtGraph(outcome.graph.value(), os);
    hash = Fnv1a(hash, os.str());
  }
  return hash;
}

int Main(int argc, char** argv) {
  const BenchArgs args(argc, argv,
                       {"--tags", "--ticks", "--seed", "--jobs", "--out"});
  const BenchScale scale = BenchScale::FromArgs(args);
  const char* tags_arg = args.Value("--tags");
  const char* ticks_arg = args.Value("--ticks");
  const char* seed_arg = args.Value("--seed");
  const char* jobs_arg = args.Value("--jobs");
  const char* out_arg = args.Value("--out");
  const int num_tags =
      tags_arg != nullptr ? std::atoi(tags_arg) : (scale.paper ? 128 : 32);
  const Timestamp ticks = static_cast<Timestamp>(
      ticks_arg != nullptr ? std::atoi(ticks_arg) : (scale.paper ? 600 : 120));
  const std::uint64_t seed = static_cast<std::uint64_t>(
      seed_arg != nullptr ? std::atoll(seed_arg) : 1);
  const std::string out = out_arg != nullptr ? out_arg : "BENCH_batch.json";
  std::vector<int> job_counts;
  for (const std::string& token :
       StrSplit(jobs_arg != nullptr ? jobs_arg : "1,2,4,8", ',')) {
    if (!token.empty()) job_counts.push_back(std::atoi(token.c_str()));
  }

  PrintHeader("batch_throughput",
              "Multi-tag batch cleaning: tags/sec and peak RSS vs jobs",
              scale);

  // One building, one deployment, N independent tags — the CLI's multi-tag
  // generate/clean pipeline, inlined.
  Building building = MakeOfficeBuilding(2);
  BuildingGrid grid = BuildingGrid::Build(building, 0.5);
  std::vector<Reader> readers = PlaceStandardReaders(building);
  DetectionModel model;
  CoverageMatrix truth_coverage = CoverageMatrix::FromModel(readers, grid, model);
  Rng calibration_rng(seed, /*stream=*/0xCA11B);
  CoverageMatrix calibrated =
      Calibrator::Calibrate(truth_coverage, 30, calibration_rng);
  WalkingDistances walking = WalkingDistances::Compute(building, grid);
  InferenceOptions inference;
  ConstraintSet constraints = InferConstraints(building, walking, inference);
  AprioriModel apriori(building, grid, calibrated);

  TrajectoryGenerator trajectories(building);
  TrajectoryGenOptions motion;
  motion.duration_ticks = ticks;
  ReadingGenerator reading_gen(grid, truth_coverage);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < num_tags; ++k) {
    Rng rng(seed, /*stream=*/1000 + static_cast<std::uint64_t>(k));
    ContinuousTrajectory continuous = trajectories.Generate(motion, rng);
    workloads.push_back(TagWorkload{
        static_cast<TagId>(k),
        LSequence::FromReadings(reading_gen.Generate(continuous, rng),
                                apriori)});
  }

  Table table({"jobs", "millis", "tags/s", "peak RSS", "digest"});
  BenchJson report("batch_throughput", scale.Label());
  report.params()
      .Add("tags", num_tags)
      .Add("ticks", static_cast<int>(ticks))
      .Add("seed", static_cast<long long>(seed));
  for (std::size_t i = 0; i < job_counts.size(); ++i) {
    BatchOptions options;
    options.jobs = job_counts[i];
    BatchCleaner cleaner(constraints, options);
    // Per-job-count observability window (obs/metrics.h): workers fold
    // their thread-local sinks on exit and CleanAll joins them, so the
    // capture below is an exact per-run total.
    obs::CleaningStats::Reset();
    Stopwatch watch;
    std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
    const double millis = watch.ElapsedMillis();
    const obs::CleaningStats stats_snapshot = obs::CleaningStats::Capture();
    for (const std::string& violation : stats_snapshot.CheckInvariants()) {
      std::fprintf(stderr, "stats invariant violated: %s\n",
                   violation.c_str());
      return 1;
    }
    const double tags_per_sec =
        millis > 0 ? 1000.0 * static_cast<double>(outcomes.size()) / millis
                   : 0.0;
    const std::size_t rss = PeakRssBytes();
    const std::uint64_t digest = DigestOutcomes(outcomes);
    std::size_t ok_tags = 0;
    std::size_t total_nodes = 0;
    for (const TagOutcome& outcome : outcomes) {
      if (!outcome.graph.ok()) continue;
      ++ok_tags;
      total_nodes += outcome.graph.value().NumNodes();
    }
    table.AddRow({StrFormat("%d", cleaner.jobs()),
                  StrFormat("%.1f", millis), StrFormat("%.1f", tags_per_sec),
                  HumanBytes(rss), StrFormat("%016llx",
                                             static_cast<unsigned long long>(
                                                 digest))});
    report.AddResult()
        .Add("jobs", cleaner.jobs())
        .Add("millis", millis)
        .Add("tags_per_sec", tags_per_sec)
        .Add("peak_rss_bytes", rss)
        .Add("ok_tags", ok_tags)
        .Add("failed_tags", outcomes.size() - ok_tags)
        .Add("total_nodes", total_nodes)
        // Workload-deterministic counters: identical across runs and job
        // counts (checked by bench_batch_determinism alongside the digest).
        .Add("stats_tags_cleaned",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kBatchTagsCleaned)))
        .Add("stats_forward_edges",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kForwardEdges)))
        .Add("stats_edges_killed",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kBackwardEdgesKilled)))
        // Scheduling-dependent counters: vary run to run at jobs > 1, so
        // the determinism gate strips them like the timing fields (see
        // batch_determinism.cmake's regex).
        .Add("stats_queue_steals",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kQueueSteals)))
        .Add("stats_arena_reuses",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kBatchArenaReuses)))
        .AddHex64("digest", digest);
  }
  table.Print(std::cout);

  if (!report.WriteFile(out)) return 1;
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace rfidclean::bench

int main(int argc, char** argv) {
  return rfidclean::bench::Main(argc, argv);
}
