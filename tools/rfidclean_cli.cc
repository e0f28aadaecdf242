// rfidclean_cli — command-line front end for the library's file formats.
// Every subcommand is one row of the command table at the bottom of this
// file; `rfidclean_cli` without arguments prints their usage lines.
//
// The reader deployment and calibration are re-derived deterministically
// from the building and the seed (PlaceStandardReaders + DetectionModel +
// Calibrator), matching what `generate` used; a production deployment would
// load its own calibrated coverage instead.

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/constraint_audit.h"
#include "analysis/feasibility.h"
#include "analysis/graph_audit.h"
#include "obs/cleaning_stats.h"
#include "obs/explain.h"
#include "obs/explain_export.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/builder.h"
#include "io/building_io.h"
#include "io/ctgraph_io.h"
#include "io/dot_export.h"
#include "io/readings_io.h"
#include "constraints/inference.h"
#include "gen/reading_generator.h"
#include "gen/trajectory_generator.h"
#include "map/building_grid.h"
#include "map/standard_buildings.h"
#include "map/walking_distance.h"
#include "model/apriori.h"
#include "query/flow.h"
#include "query/pattern.h"
#include "query/sampler.h"
#include "query/stay_query.h"
#include "query/top_k.h"
#include "query/trajectory_query.h"
#include "query/uncertainty.h"
#include "rfid/calibration.h"
#include "rfid/reader_placement.h"
#include "runtime/batch_cleaner.h"
#include "store/ct_store.h"
#include "store/explain_codec.h"
#include "store/graph_codec.h"

namespace rfidclean::cli {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}
int Fail(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return 1;
}

/// Writes one JSON report (plus its trailing newline) to `path` through
/// `write` and checks the stream. Returns 0, or 1 after a
/// "cannot write <what> file PATH" diagnostic.
int WriteReportFile(const std::string& path, const char* what,
                    const std::function<void(std::ostream&)>& write) {
  const std::string failure =
      StrFormat("cannot write %s file %s", what, path.c_str());
  std::ofstream os(path);
  if (!os) return Fail(failure.c_str());
  write(os);
  os << '\n';
  return os.good() ? 0 : Fail(failure.c_str());
}

/// One `--stats`/`--trace`/`--explain` report of `clean`, from flag to
/// file: resolves `--FLAG[=FILE]` (the bare form writes `bare_path`; an
/// empty `bare_path` gives the flag a stdout mode, which only --stats
/// has), probes the file before any cleaning work, writes the report with
/// a checked export, and leaves a `{"status": "error"}` stub when the clean
/// fails before the report is written, so a consumer polling the file
/// never mistakes the probe's empty file for an interrupted write.
class ReportFlag {
 public:
  ReportFlag(const Flags& flags, const char* flag, std::string bare_path)
      : flag_(flag) {
    if (!flags.Has(flag)) return;
    const bool has_stdout_mode = bare_path.empty();
    path_ = flags.Get(flag, std::move(bare_path));
    to_stdout_ = has_stdout_mode && path_->empty();
  }

  bool requested() const { return path_.has_value(); }
  const std::string& path() const { return *path_; }

  /// Creates the report file up front: discovering an unwritable path
  /// after minutes of batch cleaning would discard the run.
  int Probe() const {
    if (!requested() || to_stdout_) return 0;
    std::ofstream probe(*path_);
    if (probe) return 0;
    return Fail(StrFormat("cannot write %s file %s", flag_, path_->c_str())
                    .c_str());
  }

  /// Writes the report; returns non-zero after a diagnostic.
  int Write(const std::function<void(std::ostream&)>& write) {
    if (to_stdout_) {
      write(std::cout);
      std::cout << '\n';
    } else if (WriteReportFile(*path_, flag_, write) != 0) {
      return 1;
    }
    written_ = true;
    return 0;
  }

  /// For a failed clean: replaces the probe's empty file with the error
  /// stub unless the report was already written.
  void StubIfUnwritten() const {
    if (!requested() || to_stdout_ || written_) return;
    std::ofstream os(*path_);
    if (os) os << "{\"status\": \"error\"}\n";
  }

 private:
  const char* flag_;
  std::optional<std::string> path_;
  bool to_stdout_ = false;
  bool written_ = false;
};

/// Writes the process-wide pipeline metrics as JSON. Invariant violations
/// are diagnostics, not failures: the stats must never turn a successful
/// clean into an error. When a trace session is active, the per-tag
/// provenance records collected so far are embedded as a "provenance"
/// array.
int EmitStats(ReportFlag* report) {
  const obs::CleaningStats stats = obs::CleaningStats::Capture();
  for (const std::string& violation : stats.CheckInvariants()) {
    std::fprintf(stderr, "stats invariant violated: %s\n", violation.c_str());
  }
  std::vector<obs::TagProvenance> provenance;
  const bool tracing = obs::TraceActive();
  if (tracing) provenance = obs::CollectTrace().provenance;
  return report->Write([&](std::ostream& os) {
    stats.WriteJson(os, 0, tracing ? &provenance : nullptr);
  });
}

/// Exports the active explain session as the versioned JSON report
/// (obs/explain_export.h). Called only after a clean that got far enough to
/// record attribution; earlier failures leave the error stub instead.
int ExportExplain(ReportFlag* report) {
  const obs::ExplainCollection collection = obs::CollectExplain();
  if (report->Write([&](std::ostream& os) {
        WriteExplainReport(collection, os);
      }) != 0) {
    return 1;
  }
  std::fprintf(stderr,
               "explain: %zu tags, %zu events (%llu dropped) -> %s\n",
               collection.tags.size(), collection.events.size(),
               static_cast<unsigned long long>(collection.dropped_events),
               report->path().c_str());
  return 0;
}

/// Exports the active trace session as Chrome trace-event JSON. Called on
/// both success and failure exits: a trace of a failed clean is exactly
/// what the flag was passed for.
int ExportTrace(ReportFlag* report) {
  const obs::TraceCollection collection = obs::CollectTrace();
  if (report->Write([&](std::ostream& os) {
        WriteChromeTrace(collection, os);
      }) != 0) {
    return 1;
  }
  std::fprintf(stderr,
               "trace: %zu events on %zu tracks (%llu dropped) -> %s\n",
               collection.NumEvents(), collection.threads.size(),
               static_cast<unsigned long long>(collection.DroppedEvents()),
               report->path().c_str());
  return 0;
}

Result<Building> LoadBuilding(const std::string& dir) {
  std::ifstream is(dir + "/building.map");
  if (!is) return NotFoundError("cannot open " + dir + "/building.map");
  return ReadBuilding(is);
}

/// The one graph source of the query commands (stay, pattern, sample,
/// report): DIR/graph.ctg, or with --store FILE the --tag T blob of that
/// ct-store, mapped in place and structurally verified.
Result<CtGraph> LoadQueryGraph(const Flags& flags) {
  const std::string store_path = flags.Get("store");
  if (!store_path.empty()) {
    Result<store::CtStoreReader> reader =
        store::CtStoreReader::Open(store_path);
    if (!reader.ok()) return reader.status();
    return reader.value().LoadView(flags.GetInt64("tag", 0));
  }
  const std::string dir = flags.Get("dir", ".");
  std::ifstream is(dir + "/graph.ctg");
  if (!is) {
    return NotFoundError("cannot open " + dir +
                         "/graph.ctg (run 'clean' first)");
  }
  return ReadCtGraph(is);
}

/// The deterministic deployment + calibration shared by generate and clean.
struct Deployment {
  BuildingGrid grid;
  std::vector<Reader> readers;
  CoverageMatrix truth;
  CoverageMatrix calibrated;
};

Deployment MakeDeployment(const Building& building, std::uint64_t seed) {
  BuildingGrid grid = BuildingGrid::Build(building, 0.5);
  std::vector<Reader> readers = PlaceStandardReaders(building);
  DetectionModel model;
  CoverageMatrix truth = CoverageMatrix::FromModel(readers, grid, model);
  Rng rng(seed, /*stream=*/0xCA11B);
  CoverageMatrix calibrated = Calibrator::Calibrate(truth, 30, rng);
  return Deployment{std::move(grid), std::move(readers), std::move(truth),
                    std::move(calibrated)};
}

/// Simulates objects in an office building: DIR/building.map, readings.csv
/// and truth.txt, or with --tags N multi-tag readings and truth_<tag>.txt.
int Generate(const Flags& flags) {
  const int floors = flags.GetInt("floors", 4);
  const Timestamp duration = flags.GetInt("duration", 600);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt64("seed", 1));
  const std::string dir = flags.Get("out", ".");
  const int num_tags = flags.GetInt("tags", 0);  // 0 = single-tag format

  Building building = MakeOfficeBuilding(floors);
  Deployment deployment = MakeDeployment(building, seed);
  TrajectoryGenerator trajectories(building);
  TrajectoryGenOptions motion;
  motion.duration_ticks = duration;
  ReadingGenerator readings(deployment.grid, deployment.truth);

  {
    std::ofstream os(dir + "/building.map");
    if (!os) return Fail("cannot write building.map");
    WriteBuilding(building, os);
  }

  auto write_truth = [&](const Trajectory& truth, const std::string& name) {
    std::ofstream os(dir + "/" + name);
    if (!os) return false;
    for (Timestamp t = 0; t < truth.length(); ++t) {
      os << t << ' ' << building.location(truth.At(t)).name << '\n';
    }
    return true;
  };

  if (num_tags <= 0) {
    Rng rng(seed, /*stream=*/1);
    ContinuousTrajectory continuous = trajectories.Generate(motion, rng);
    RSequence sequence = readings.Generate(continuous, rng);
    {
      std::ofstream os(dir + "/readings.csv");
      if (!os) return Fail("cannot write readings.csv");
      WriteReadingsCsv(sequence, os);
    }
    if (!write_truth(continuous.ToDiscrete(building), "truth.txt")) {
      return Fail("cannot write truth.txt");
    }
    std::printf(
        "wrote %s/building.map, readings.csv, truth.txt (%d ticks)\n",
        dir.c_str(), duration);
    return 0;
  }

  // Multi-tag: every tag is an independent object in the same building,
  // with its own deterministic rng stream.
  std::vector<TagReadings> tags;
  for (int k = 0; k < num_tags; ++k) {
    Rng rng(seed, /*stream=*/1000 + static_cast<std::uint64_t>(k));
    ContinuousTrajectory continuous = trajectories.Generate(motion, rng);
    if (!write_truth(continuous.ToDiscrete(building),
                     StrFormat("truth_%d.txt", k))) {
      return Fail("cannot write truth file");
    }
    tags.push_back(TagReadings{static_cast<TagId>(k),
                               readings.Generate(continuous, rng)});
  }
  {
    std::ofstream os(dir + "/readings.csv");
    if (!os) return Fail("cannot write readings.csv");
    WriteMultiTagReadingsCsv(tags, os);
  }
  std::printf(
      "wrote %s/building.map, readings.csv (multi-tag), truth_<tag>.txt "
      "(%d tags x %d ticks)\n",
      dir.c_str(), num_tags, duration);
  return 0;
}

Result<ConstraintSet> MakeCliConstraints(const Flags& flags,
                                         const Building& building,
                                         const Deployment& deployment,
                                         ConstraintFamilies* families_out) {
  ConstraintFamilies families = ConstraintFamilies::DuLtTt();
  std::string requested = flags.Get("families", "DU+LT+TT");
  if (requested == "DU") {
    families = ConstraintFamilies::Du();
  } else if (requested == "DU+LT") {
    families = ConstraintFamilies::DuLt();
  } else if (requested != "DU+LT+TT") {
    return InvalidArgumentError("--families must be DU, DU+LT or DU+LT+TT");
  }
  *families_out = families;
  WalkingDistances walking =
      WalkingDistances::Compute(building, deployment.grid);
  InferenceOptions inference;
  inference.families = families;
  return InferConstraints(building, walking, inference);
}

/// What one clean cleans, shared by `clean` and `explain`'s re-clean
/// mode: the constraint set inferred for DIR's building and the workloads
/// of DIR/readings.csv — the CSV's tags for a multi-tag file, else one
/// workload under tag 0.
struct CleanInputs {
  ConstraintFamilies families;
  ConstraintSet constraints;
  bool multi_tag;
  BatchOptions batch;  // .clean also configures the single-tag builder
  std::vector<TagWorkload> workloads;
};

/// Reads the cleaning flags and loads the inputs they select from DIR.
/// Returns nullopt after a diagnostic.
std::optional<CleanInputs> LoadCleanInputs(const Flags& flags,
                                           const std::string& dir,
                                           const Building& building) {
  const auto fail = [](const auto& what) {
    Fail(what);
    return std::optional<CleanInputs>();
  };
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt64("seed", 1));
  BatchOptions batch;
  batch.jobs = flags.GetInt("jobs", 1);
  // --no-preflight disables the static feasibility pass (identical output,
  // useful for A/B timing and for isolating preflight bugs).
  batch.clean.preflight = !flags.Has("no-preflight");
  // Intra-tag lanes (CleanOptions::forward_threads); output is
  // byte-identical for every value, so this is purely a wall-clock knob.
  batch.clean.forward_threads = flags.GetInt("forward-threads", 1);

  Deployment deployment = MakeDeployment(building, seed);
  ConstraintFamilies families = ConstraintFamilies::DuLtTt();
  Result<ConstraintSet> constraints =
      MakeCliConstraints(flags, building, deployment, &families);
  if (!constraints.ok()) return fail(constraints.status());

  // The a-priori interpretation stays sequential: AprioriModel memoizes per
  // reader set behind a non-synchronized cache. The conditioning dominates
  // anyway and is what the batch engine parallelizes.
  AprioriModel apriori(building, deployment.grid, deployment.calibrated);
  std::ifstream is(dir + "/readings.csv");
  if (!is) return fail(NotFoundError("cannot open " + dir + "/readings.csv"));
  std::string header;
  const bool multi_tag = std::getline(is, header) &&
                         StripWhitespace(header) == kMultiTagReadingsHeader;
  is.clear();
  is.seekg(0);
  std::vector<TagWorkload> workloads;
  if (multi_tag) {
    Result<std::vector<TagReadings>> tags = ReadMultiTagReadingsCsv(is);
    if (!tags.ok()) return fail(tags.status());
    workloads.reserve(tags.value().size());
    for (const TagReadings& tag : tags.value()) {
      workloads.push_back(TagWorkload{
          tag.tag, LSequence::FromReadings(tag.readings, apriori)});
    }
  } else {
    Result<RSequence> readings = ReadReadingsCsv(is);
    if (!readings.ok()) return fail(readings.status());
    workloads.push_back(
        TagWorkload{0, LSequence::FromReadings(readings.value(), apriori)});
  }
  return CleanInputs{families, std::move(constraints).value(), multi_tag,
                     batch, std::move(workloads)};
}

/// Cleans every workload: a multi-tag batch concurrently on --jobs workers
/// (BatchCleaner), a single tag with CtGraphBuilder.
std::vector<TagOutcome> CleanWorkloads(const CleanInputs& inputs) {
  if (inputs.multi_tag) {
    return BatchCleaner(inputs.constraints, inputs.batch)
        .CleanAll(inputs.workloads);
  }
  const TagWorkload& workload = inputs.workloads.front();
  BuildStats stats;
  Result<CtGraph> graph = CtGraphBuilder(inputs.constraints, inputs.batch.clean)
                              .Build(workload.sequence, &stats);
  std::vector<TagOutcome> outcomes;
  outcomes.push_back(TagOutcome{workload.tag, std::move(graph), stats});
  if (obs::TraceActive()) {
    RecordOutcomeProvenance(workload, outcomes.front(),
                            inputs.constraints.Digest());
    obs::TraceSampleCounterTracks();
  }
  return outcomes;
}

/// Writes what a clean produced. Per cleaned tag: its --audit report, then
/// its graph — into the --store container (with input/constraint
/// provenance digests), or as DIR/graph.ctg (single-tag, plus --dot) or
/// DIR/graph_<tag>.ctg. Then the explain summaries go into the store, and
/// the summary line and the --stats/--explain reports are written. Failed
/// tags are reported on stderr; the reports are written either way, since
/// they carry the failures too. Returns 1 when any tag failed.
int EmitClean(const Flags& flags, const std::string& dir,
              const Building& building, const CleanInputs& inputs,
              const std::vector<TagOutcome>& outcomes, double millis,
              ReportFlag* stats_report, ReportFlag* explain_report) {
  const bool audit = flags.Has("audit");
  const std::string dot = flags.Get("dot");
  const std::string store_path = flags.Get("store");
  std::optional<store::CtStoreWriter> writer;
  if (!store_path.empty()) {
    Result<store::CtStoreWriter> opened =
        store::CtStoreWriter::OpenOrCreate(store_path);
    if (!opened.ok()) return Fail(opened.status());
    writer.emplace(std::move(opened).value());
  }
  const std::uint64_t constraint_digest = inputs.constraints.Digest();

  int failures = 0;
  std::size_t nodes = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const TagOutcome& outcome = outcomes[i];
    const long long tag = static_cast<long long>(outcome.tag);
    if (!outcome.graph.ok()) {
      ++failures;
      if (inputs.multi_tag) {
        std::fprintf(stderr, "tag %lld: %s\n", tag,
                     outcome.graph.status().ToString().c_str());
      } else {
        Fail(outcome.graph.status());
      }
      continue;
    }
    const CtGraph& graph = outcome.graph.value();
    if (audit) {
      if (inputs.multi_tag) std::printf("tag %lld:\n", tag);
      std::printf("%s\n", AuditGraph(graph).ToString().c_str());
    }
    nodes += graph.NumNodes();
    if (writer.has_value()) {
      obs::TraceSpan span("store", "store_append");
      store::GraphProvenance provenance;
      provenance.input_digest = inputs.workloads[i].sequence.Digest();
      provenance.constraint_digest = constraint_digest;
      Status put = writer->Put(
          outcome.tag,
          store::EncodeCtGraphBlob(graph, outcome.tag, provenance));
      if (!put.ok()) return Fail(put);
    } else {
      const std::string path =
          dir + (inputs.multi_tag ? StrFormat("/graph_%lld.ctg", tag)
                                  : std::string("/graph.ctg"));
      std::ofstream os(path);
      if (!os) return Fail(("cannot write " + path).c_str());
      WriteCtGraph(graph, os);
    }
    if (!dot.empty()) {  // single-tag only: Clean rejects it otherwise
      std::ofstream os(dot);
      if (!os) return Fail("cannot write dot file");
      WriteDot(graph, os, &building);
    }
  }
  if (writer.has_value()) {
    // Every explain summary rides into the store next to the graphs, so
    // `explain --store` answers later without re-cleaning. Failed tags'
    // summaries too, on purpose: they explain *why* the tag has no graph.
    if (obs::ExplainArmed()) {
      for (const obs::ExplainTagSummary& summary :
           obs::CollectExplain().tags) {
        Status put = writer->PutExplain(summary.tag,
                                        store::EncodeExplainBlob(summary));
        if (!put.ok()) return Fail(put);
      }
    }
    Status finished = writer->Finish();
    if (!finished.ok()) return Fail(finished);
  }
  const std::string target =
      !store_path.empty()
          ? store_path
          : dir + (inputs.multi_tag ? "/graph_<tag>.ctg" : "/graph.ctg");
  const std::string families = ConstraintFamiliesLabel(inputs.families);
  if (inputs.multi_tag) {
    std::printf(
        "cleaned %zu/%zu tags under %s with %d jobs in %.1f ms "
        "(%.1f tags/s, %zu total nodes) -> %s\n",
        outcomes.size() - static_cast<std::size_t>(failures),
        outcomes.size(), families.c_str(), inputs.batch.jobs, millis,
        millis > 0 ? 1000.0 * static_cast<double>(outcomes.size()) / millis
                   : 0.0,
        nodes, target.c_str());
  } else if (failures == 0) {
    const TagOutcome& outcome = outcomes.front();
    std::printf(
        "cleaned %d ticks under %s in %.1f ms: %zu nodes, %zu edges -> %s\n",
        inputs.workloads.front().sequence.length(), families.c_str(),
        outcome.stats.TotalMillis(), outcome.graph.value().NumNodes(),
        outcome.graph.value().NumEdges(), target.c_str());
  }
  if ((stats_report->requested() && EmitStats(stats_report) != 0) ||
      (explain_report->requested() && ExportExplain(explain_report) != 0)) {
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

/// Cleans DIR/readings.csv into DIR/graph.ctg, a multi-tag feed on --jobs
/// workers into DIR/graph_<tag>.ctg, or either into the --store container.
int Clean(const Flags& flags) {
  const std::string dir = flags.Get("dir", ".");
  ReportFlag stats_report(flags, "stats", "");
  ReportFlag trace_report(flags, "trace", dir + "/trace.json");
  ReportFlag explain_report(flags, "explain", dir + "/explain.json");
  if (stats_report.Probe() != 0) return 1;
  if (trace_report.requested()) {
    if (trace_report.Probe() != 0) return 1;
    obs::TraceOptions trace;
    trace.enabled = true;
    trace.buffer_events = static_cast<std::size_t>(flags.GetInt(
        "trace-buffer-events", static_cast<int>(trace.buffer_events)));
    // Started here rather than in BatchCleaner so the io parsing spans land
    // on the same timeline as the cleaning itself.
    obs::StartTracing(trace);
  }
  if (explain_report.requested()) {
    obs::ExplainOptions explain;
    explain.enabled = true;
    if (explain_report.Probe() != 0) return 1;
    explain.top_edges = static_cast<std::size_t>(flags.GetInt(
        "explain-top-edges", static_cast<int>(explain.top_edges)));
    obs::StartExplain(explain);
  }

  int code = [&] {
    Result<Building> building = LoadBuilding(dir);
    if (!building.ok()) return Fail(building.status());
    std::optional<CleanInputs> inputs =
        LoadCleanInputs(flags, dir, building.value());
    if (!inputs.has_value()) return 1;
    if (inputs->multi_tag && !flags.Get("dot").empty()) {
      return Fail("--dot renders one graph, but DIR/readings.csv has "
                  "multiple tags");
    }
    if (flags.Has("audit")) {
      // Fails the clean itself on any invariant violation (the cleaners'
      // self-audit hook); EmitClean prints the full report.
      EnableSelfAudit();
    }
    const Stopwatch watch;
    const std::vector<TagOutcome> outcomes = CleanWorkloads(*inputs);
    return EmitClean(flags, dir, building.value(), *inputs, outcomes,
                     watch.ElapsedMillis(), &stats_report, &explain_report);
  }();

  if (trace_report.requested()) {
    // Exported on failure too — a timeline of a failed clean is precisely
    // what --trace is for. An export failure degrades a successful exit.
    const int exported = ExportTrace(&trace_report);
    if (code == 0) code = exported;
    obs::StopTracing();
  }
  if (code != 0) {
    stats_report.StubIfUnwritten();
    explain_report.StubIfUnwritten();
  }
  if (explain_report.requested()) obs::StopExplain();
  return code;
}

/// Static lint of the constraint set a `clean` over DIR would use: builds
/// the same deployment and inferred constraints, audits them against their
/// own closure plus the calibrated reader coverage, and prints the report.
/// Inferred sets legitimately contain implied constraints, so infos (and
/// warnings) do not fail the command — only contradictions do.
int CheckConstraints(const Flags& flags) {
  const std::string dir = flags.Get("dir", ".");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt64("seed", 1));
  Result<Building> building = LoadBuilding(dir);
  if (!building.ok()) return Fail(building.status());

  Deployment deployment = MakeDeployment(building.value(), seed);
  ConstraintFamilies families = ConstraintFamilies::DuLtTt();
  Result<ConstraintSet> constraints =
      MakeCliConstraints(flags, building.value(), deployment, &families);
  if (!constraints.ok()) return Fail(constraints.status());

  const std::size_t n = building.value().NumLocations();
  ConstraintAuditOptions options;
  // Every diagnostic is at most per-pair (plus a few per-location classes);
  // scaling the cap with the building keeps real reports untruncated while
  // still bounding a pathological blow-up.
  options.max_findings = 4 * n * n + 64;
  options.covered_locations.assign(n, false);
  options.location_names.reserve(n);
  for (LocationId l = 0; l < static_cast<LocationId>(n); ++l) {
    options.location_names.push_back(building.value().location(l).name);
    options.covered_locations[static_cast<std::size_t>(l)] =
        !deployment.calibrated
             .ReadersCovering(deployment.grid.CellsOfLocation(l))
             .empty();
  }

  TravelClosure closure(constraints.value());
  ConstraintAuditReport report =
      AuditConstraints(constraints.value(), closure, options);
  std::printf("constraints: %s over %zu locations\n%s\n",
              ConstraintFamiliesLabel(families).c_str(), n,
              report.ToString().c_str());

  const std::string json = flags.Get("json");
  if (!json.empty() &&
      WriteReportFile(json, "json",
                      [&](std::ostream& os) { report.WriteJson(os); }) != 0) {
    return 1;
  }
  return report.CountOf(ConstraintSeverity::kError) > 0 ? 1 : 0;
}

int Stay(const Flags& flags) {
  Result<Building> building = LoadBuilding(flags.Get("dir", "."));
  if (!building.ok()) return Fail(building.status());
  const Timestamp time = flags.GetInt("time", 0);
  Result<CtGraph> graph = LoadQueryGraph(flags);
  if (!graph.ok()) return Fail(graph.status());
  if (time < 0 || time >= graph.value().length()) {
    return Fail("--time outside the monitored interval");
  }
  StayQueryEvaluator evaluator(graph.value());
  std::printf("P(location at t=%d):\n", time);
  for (const auto& [location, probability] : evaluator.Evaluate(time)) {
    std::printf("  %-16s %.4f\n",
                building.value().location(location).name.c_str(),
                probability);
  }
  return 0;
}

int StoreLs(const Flags& flags) {
  Result<store::CtStoreReader> reader =
      store::CtStoreReader::Open(flags.Get("store"));
  if (!reader.ok()) return Fail(reader.status());
  for (const store::StoreEntry& entry : reader.value().entries()) {
    Result<std::string> bytes = reader.value().ReadBlobBytes(entry.tag);
    if (!bytes.ok()) return Fail(bytes.status());
    Result<store::BlobInfo> blob = store::InspectCtGraphBlob(
        reinterpret_cast<const unsigned char*>(bytes.value().data()),
        bytes.value().size());
    if (!blob.ok()) return Fail(blob.status());
    std::printf(
        "tag %-8lld seq %-6llu %10llu bytes  T=%-6d %8llu nodes %9llu "
        "edges  graph=%016llx input=%016llx constraints=%016llx\n",
        static_cast<long long>(entry.tag),
        static_cast<unsigned long long>(entry.sequence),
        static_cast<unsigned long long>(entry.size),
        blob.value().header.length,
        static_cast<unsigned long long>(blob.value().header.num_nodes),
        static_cast<unsigned long long>(blob.value().header.num_edges),
        static_cast<unsigned long long>(blob.value().header.graph_digest),
        static_cast<unsigned long long>(blob.value().header.input_digest),
        static_cast<unsigned long long>(
            blob.value().header.constraint_digest));
  }
  for (const store::StoreEntry& entry : reader.value().explain_entries()) {
    std::printf("tag %-8lld seq %-6llu %10llu bytes  explain summary\n",
                static_cast<long long>(entry.tag),
                static_cast<unsigned long long>(entry.sequence),
                static_cast<unsigned long long>(entry.size));
  }
  std::printf("store: generation %u, %zu blobs, %zu explain summaries, "
              "%s (%s dead)\n",
              reader.value().generation(),
              reader.value().entries().size(),
              reader.value().explain_entries().size(),
              HumanBytes(reader.value().FileBytes()).c_str(),
              HumanBytes(reader.value().DeadBytes()).c_str());
  return 0;
}

int StoreGet(const Flags& flags) {
  const long long tag = flags.GetInt64("tag", 0);
  const std::string out = flags.Get("out");
  if (out.empty()) return Fail("missing --out FILE");
  Result<store::CtStoreReader> reader =
      store::CtStoreReader::Open(flags.Get("store"));
  if (!reader.ok()) return Fail(reader.status());
  if (flags.Has("raw")) {
    Result<std::string> bytes = reader.value().ReadBlobBytes(tag);
    if (!bytes.ok()) return Fail(bytes.status());
    std::ofstream os(out, std::ios::binary);
    if (!os) return Fail(("cannot write " + out).c_str());
    os.write(bytes.value().data(),
             static_cast<std::streamsize>(bytes.value().size()));
    if (!os.good()) return Fail(("cannot write " + out).c_str());
    std::printf("tag %lld -> %s (%zu blob bytes)\n", tag, out.c_str(),
                bytes.value().size());
    return 0;
  }
  Result<CtGraph> graph =
      reader.value().LoadView(tag, store::MapVerify::kFull);
  if (!graph.ok()) return Fail(graph.status());
  std::ofstream os(out);
  if (!os) return Fail(("cannot write " + out).c_str());
  WriteCtGraph(graph.value(), os);
  if (!os.good()) return Fail(("cannot write " + out).c_str());
  std::printf("tag %lld -> %s (%zu nodes, %zu edges)\n", tag, out.c_str(),
              graph.value().NumNodes(), graph.value().NumEdges());
  return 0;
}

int StorePut(const Flags& flags) {
  const std::string path = flags.Get("store");
  const long long tag = flags.GetInt64("tag", 0);
  const std::string in = flags.Get("in");
  if (in.empty()) return Fail("missing --in FILE");
  std::ifstream is(in);
  if (!is) return Fail(("cannot open " + in).c_str());
  Result<CtGraph> graph = ReadCtGraph(is);
  if (!graph.ok()) return Fail(graph.status());
  Result<store::CtStoreWriter> writer =
      store::CtStoreWriter::OpenOrCreate(path);
  if (!writer.ok()) return Fail(writer.status());
  const std::string blob = store::EncodeCtGraphBlob(graph.value(), tag);
  Status put = writer.value().Put(tag, blob);
  if (!put.ok()) return Fail(put);
  Status finished = writer.value().Finish();
  if (!finished.ok()) return Fail(finished);
  std::printf("%s: tag %lld <- %s (%zu blob bytes)\n", path.c_str(), tag,
              in.c_str(), blob.size());
  return 0;
}

int StoreCompact(const Flags& flags) {
  const std::string path = flags.Get("store");
  Result<store::CompactionStats> stats = store::CompactCtStore(path);
  if (!stats.ok()) return Fail(stats.status());
  std::printf("%s: %zu blobs, %s -> %s\n", path.c_str(), stats.value().blobs,
              HumanBytes(stats.value().bytes_before).c_str(),
              HumanBytes(stats.value().bytes_after).c_str());
  return 0;
}

int StoreVerify(const Flags& flags) {
  const std::string path = flags.Get("store");
  Result<store::CtStoreReader> reader = store::CtStoreReader::Open(path);
  if (!reader.ok()) return Fail(reader.status());
  Status verified = reader.value().VerifyAll();
  if (!verified.ok()) return Fail(verified);
  std::printf(
      "%s: %zu blobs, %zu explain summaries verified ok (generation %u)\n",
      path.c_str(), reader.value().entries().size(),
      reader.value().explain_entries().size(), reader.value().generation());
  return 0;
}

/// Location id -> printable name; falls back to the numeric id when no
/// building is at hand (store decode mode) and "-" for the -1 sentinel.
std::string ExplainLocationName(const Building* building,
                                std::int32_t location) {
  if (location < 0) return "-";
  if (building != nullptr &&
      location < static_cast<std::int32_t>(building->NumLocations())) {
    return building->location(static_cast<LocationId>(location)).name;
  }
  return StrFormat("%d", location);
}

/// Resolves --location as a numeric id or (when a building is loaded) a
/// location name.
std::optional<std::int32_t> ResolveLocationArg(const std::string& text,
                                               const Building* building) {
  std::int32_t value = 0;
  if (ParseNumber(text, &value) && value >= 0) return value;
  if (building != nullptr) {
    for (LocationId l = 0;
         l < static_cast<LocationId>(building->NumLocations()); ++l) {
      if (building->location(l).name == text) {
        return static_cast<std::int32_t>(l);
      }
    }
  }
  return std::nullopt;
}

/// Human-readable rendering of one tag's attribution summary.
void PrintExplainSummary(const obs::ExplainTagSummary& summary,
                         const Building* building) {
  std::printf("tag %lld: %s\n", summary.tag, summary.status.c_str());
  std::printf(
      "  mass: %.6g survives, %.6g attributed to kills; conditioning loss "
      "%llu ppb backward + %llu ppb compaction\n",
      summary.surviving_mass, summary.attributed_mass,
      static_cast<unsigned long long>(summary.mass_lost_backward_ppb),
      static_cast<unsigned long long>(summary.mass_lost_compaction_ppb));
  std::printf("  kills by phase:");
  for (int p = 0; p < obs::kNumExplainPhases; ++p) {
    std::printf(" %s=%llu",
                obs::ExplainPhaseName(static_cast<obs::ExplainPhase>(p)),
                static_cast<unsigned long long>(summary.phase_kills[p]));
  }
  std::printf("\n  kills by constraint:\n");
  for (int c = 0; c < obs::kNumExplainConstraints; ++c) {
    const obs::ExplainConstraintTotal& total = summary.constraints[c];
    if (total.kills == 0 && total.mass == 0.0) continue;
    std::printf(
        "    %-12s %8llu kills, mass %.6g\n",
        obs::ExplainConstraintName(static_cast<obs::ExplainConstraint>(c)),
        static_cast<unsigned long long>(total.kills), total.mass);
  }
  if (!summary.top_edges.empty()) {
    std::printf("  top killed edges by mass:\n");
    for (const obs::ExplainKilledEdge& edge : summary.top_edges) {
      std::printf(
          "    t=%-5d %-14s -> %-14s %s/%s mass %.6g\n", edge.time,
          ExplainLocationName(building, edge.from_location).c_str(),
          ExplainLocationName(building, edge.to_location).c_str(),
          obs::ExplainPhaseName(edge.phase),
          obs::ExplainConstraintName(edge.constraint), edge.mass);
    }
  }
  std::printf("  killed candidates: %zu retained",
              summary.killed_candidates.size());
  if (summary.killed_candidates_truncated > 0) {
    std::printf(" (+%llu truncated)",
                static_cast<unsigned long long>(
                    summary.killed_candidates_truncated));
  }
  std::printf("\n");
}

/// Answers "why is location X absent at time t" from one tag's
/// killed-candidate list. Exits nonzero only when the list was truncated
/// and cannot prove the answer either way.
int AnswerExplainQuery(const obs::ExplainTagSummary& summary,
                       const Building* building, std::int32_t time,
                       std::int32_t location) {
  const std::string name = ExplainLocationName(building, location);
  for (const obs::ExplainKilledCandidate& candidate :
       summary.killed_candidates) {
    if (candidate.time == time && candidate.location == location) {
      std::printf(
          "tag %lld: %s is absent at t=%d: killed in the %s phase by the "
          "%s check (a-priori mass %.6g removed)\n",
          summary.tag, name.c_str(), time,
          obs::ExplainPhaseName(candidate.phase),
          obs::ExplainConstraintName(candidate.constraint), candidate.mass);
      return 0;
    }
  }
  if (summary.killed_candidates_truncated > 0) {
    std::fprintf(stderr,
                 "tag %lld: no retained kill record for %s at t=%d, but the "
                 "killed-candidate list was truncated by %llu entries — "
                 "re-run the clean to answer exactly\n",
                 summary.tag, name.c_str(), time,
                 static_cast<unsigned long long>(
                     summary.killed_candidates_truncated));
    return 1;
  }
  std::printf(
      "tag %lld: %s at t=%d was not killed: it either survives in the "
      "cleaned graph or was never an a-priori candidate\n",
      summary.tag, name.c_str(), time);
  return 0;
}

/// The `explain` subcommand: answers attribution queries either from
/// summaries persisted in a ct-store (`--store FILE [--tag N]`) or by
/// re-cleaning a directory under an explain session (`--dir DIR`).
int Explain(const Flags& flags) {
  const bool has_query = flags.Has("time") || flags.Has("location");
  if (has_query && (!flags.Has("time") || !flags.Has("location"))) {
    return Fail("--time and --location must be given together");
  }
  const Timestamp time = flags.GetInt("time", 0);
  const long long tag = flags.GetInt64("tag", 0);
  const std::string store_path = flags.Get("store");

  // A building is optional context in store mode (names instead of ids)
  // and required in re-clean mode.
  std::optional<Building> building;
  if (flags.Has("dir") || store_path.empty()) {
    Result<Building> loaded = LoadBuilding(flags.Get("dir", "."));
    if (!loaded.ok() && store_path.empty()) return Fail(loaded.status());
    if (loaded.ok()) building.emplace(std::move(loaded).value());
  }
  const Building* names = building.has_value() ? &*building : nullptr;

  std::optional<std::int32_t> location;
  if (has_query) {
    location = ResolveLocationArg(flags.Get("location"), names);
    if (!location.has_value()) {
      return Fail("--location is neither a location id nor a known name");
    }
  }

  if (!store_path.empty()) {
    // Decode mode: read the persisted summary; no cleaning, no session.
    Result<store::CtStoreReader> reader =
        store::CtStoreReader::Open(store_path);
    if (!reader.ok()) return Fail(reader.status());
    Result<obs::ExplainTagSummary> summary = reader.value().LoadExplain(tag);
    if (!summary.ok()) return Fail(summary.status());
    if (has_query) {
      return AnswerExplainQuery(summary.value(), names, time, *location);
    }
    PrintExplainSummary(summary.value(), names);
    return 0;
  }

  // Re-clean mode: run the full clean under an explain session and report
  // from the live collection. The cleaned graphs are discarded — this
  // command explains, it does not overwrite DIR's outputs.
  obs::ExplainOptions options;
  options.enabled = true;
  options.top_edges = static_cast<std::size_t>(flags.GetInt(
      "explain-top-edges", static_cast<int>(options.top_edges)));
  std::optional<CleanInputs> inputs =
      LoadCleanInputs(flags, flags.Get("dir", "."), *building);
  if (!inputs.has_value()) return 1;
  obs::StartExplain(options);
  (void)CleanWorkloads(*inputs);

  const obs::ExplainCollection collection = obs::CollectExplain();
  obs::StopExplain();
  const std::string json = flags.Get("json");
  if (!json.empty() && WriteReportFile(json, "json", [&](std::ostream& os) {
        WriteExplainReport(collection, os);
      }) != 0) {
    return 1;
  }
  if (has_query) {
    const obs::ExplainTagSummary* summary = collection.FindTag(tag);
    if (summary == nullptr) {
      return Fail(
          StrFormat("tag %lld was not cleaned (no summary recorded)", tag)
              .c_str());
    }
    return AnswerExplainQuery(*summary, names, time, *location);
  }
  for (const obs::ExplainTagSummary& summary : collection.tags) {
    PrintExplainSummary(summary, names);
  }
  return 0;
}

int PatternQuery(const Flags& flags) {
  Result<Building> building = LoadBuilding(flags.Get("dir", "."));
  if (!building.ok()) return Fail(building.status());
  Result<CtGraph> graph = LoadQueryGraph(flags);
  if (!graph.ok()) return Fail(graph.status());
  std::string text = flags.Get("pattern");
  if (text.empty()) return Fail("missing --pattern");
  Result<Pattern> pattern = Pattern::Parse(text, building.value());
  if (!pattern.ok()) return Fail(pattern.status());
  std::printf("P(trajectory matches \"%s\") = %.6f\n", text.c_str(),
              EvaluateTrajectoryQuery(graph.value(), pattern.value()));
  return 0;
}

int Sample(const Flags& flags) {
  Result<Building> building = LoadBuilding(flags.Get("dir", "."));
  if (!building.ok()) return Fail(building.status());
  Result<CtGraph> graph = LoadQueryGraph(flags);
  if (!graph.ok()) return Fail(graph.status());
  TrajectorySampler sampler(graph.value());
  Rng rng(static_cast<std::uint64_t>(flags.GetInt64("seed", 7)));
  int count = flags.GetInt("count", 3);
  for (int i = 0; i < count; ++i) {
    Trajectory sample = sampler.Sample(rng);
    std::printf("#%d:", i + 1);
    LocationId last = kInvalidLocation;
    for (Timestamp t = 0; t < sample.length(); ++t) {
      if (sample.At(t) != last) {
        last = sample.At(t);
        std::printf(" %s", building.value().location(last).name.c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}

int Report(const Flags& flags) {
  Result<Building> building = LoadBuilding(flags.Get("dir", "."));
  if (!building.ok()) return Fail(building.status());
  Result<CtGraph> graph = LoadQueryGraph(flags);
  if (!graph.ok()) return Fail(graph.status());
  const CtGraph& g = graph.value();

  if (flags.Has("audit")) {
    AuditReport audit = AuditGraph(g);
    std::printf("%s\n", audit.ToString().c_str());
    if (!audit.ok()) return 1;
  }

  std::printf("ct-graph: %d ticks, %zu nodes, %zu edges, ~%s\n",
              g.length(), g.NumNodes(), g.NumEdges(),
              HumanBytes(g.ApproximateBytes()).c_str());
  std::printf("residual uncertainty: %.2f bits (%.3g effective "
              "trajectories)\n",
              TrajectoryEntropy(g), EffectiveTrajectories(g));

  auto top = TopKTrajectories(g, 3);
  std::printf("top-%zu reconstructions:\n", top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    std::printf("  p=%-10.3g", top[i].second);
    LocationId last = kInvalidLocation;
    int printed = 0;
    for (Timestamp t = 0; t < top[i].first.length() && printed < 10; ++t) {
      if (top[i].first.At(t) != last) {
        last = top[i].first.At(t);
        std::printf(" %s", building.value().location(last).name.c_str());
        ++printed;
      }
    }
    std::printf(printed >= 10 ? " ...\n" : "\n");
  }

  // Busiest expected transitions (door traffic).
  std::size_t n = building.value().NumLocations();
  std::vector<double> flow = ExpectedTransitionCounts(g, n);
  std::printf("busiest transitions (expected counts):\n");
  for (int shown = 0; shown < 5; ++shown) {
    std::size_t best = 0;
    double best_flow = 0.0;
    for (std::size_t i = 0; i < flow.size(); ++i) {
      if (i / n != i % n && flow[i] > best_flow) {
        best_flow = flow[i];
        best = i;
      }
    }
    if (best_flow <= 0.0) break;
    std::printf("  %-14s -> %-14s %.2f\n",
                building.value()
                    .location(static_cast<LocationId>(best / n))
                    .name.c_str(),
                building.value()
                    .location(static_cast<LocationId>(best % n))
                    .name.c_str(),
                best_flow);
    flow[best] = 0.0;
  }
  return 0;
}

/// One subcommand: its name ("store <verb>" for the store verbs), the flags
/// it accepts, its usage line and its handler.
struct Command {
  const char* name;
  std::vector<FlagSpec> flags;
  const char* usage;
  int (*run)(const Flags&);
};

std::vector<FlagSpec> With(std::vector<FlagSpec> flags,
                           const std::vector<FlagSpec>& more) {
  flags.insert(flags.end(), more.begin(), more.end());
  return flags;
}

const std::vector<Command>& Commands() {
  using F = FlagSpec;
  // What LoadCleanInputs reads, for clean and explain's re-clean mode.
  const std::vector<FlagSpec> cleaning = {
      {"dir", F::kText}, {"families", F::kText}, {"seed", F::kInt64},
      {"jobs", F::kPositiveInt}, {"forward-threads", F::kPositiveInt},
      {"no-preflight", F::kSwitch}};
  // What LoadQueryGraph reads.
  const std::vector<FlagSpec> query = {
      {"dir", F::kText}, {"store", F::kText}, {"tag", F::kInt64}};
  static const std::vector<Command> commands = {
      {"generate",
       {{"floors", F::kPositiveInt}, {"duration", F::kPositiveInt},
        {"seed", F::kInt64}, {"out", F::kText}, {"tags", F::kNonNegativeInt}},
       "[--floors N] [--duration T] [--seed S] [--out DIR] [--tags N]",
       Generate},
      {"clean",
       With(cleaning, {{"audit", F::kSwitch}, {"dot", F::kText},
                       {"store", F::kText}, {"stats", F::kOptional},
                       {"trace", F::kOptional}, {"explain", F::kOptional},
                       {"trace-buffer-events", F::kPositiveInt},
                       {"explain-top-edges", F::kPositiveInt}}),
       "--dir DIR [--families DU|DU+LT|DU+LT+TT] [--seed S] [--jobs N]\n"
       "      [--forward-threads N] [--no-preflight] [--audit] [--dot FILE]\n"
       "      [--store FILE] [--stats[=FILE]] [--trace[=FILE]]\n"
       "      [--trace-buffer-events N] [--explain[=FILE]] "
       "[--explain-top-edges N]",
       Clean},
      {"explain",
       With(cleaning, {{"store", F::kText}, {"tag", F::kInt64},
                       {"time", F::kNonNegativeInt}, {"location", F::kText},
                       {"json", F::kText},
                       {"explain-top-edges", F::kPositiveInt}}),
       "[--store FILE] [--dir DIR] [--tag T] [--time T --location L]\n"
       "      [--json FILE] [--families F] [--seed S] [--jobs N]\n"
       "      [--forward-threads N] [--no-preflight] [--explain-top-edges N]\n"
       "      (with --store: decode the stored summary; else re-clean DIR)",
       Explain},
      {"check-constraints",
       {{"dir", F::kText}, {"families", F::kText}, {"seed", F::kInt64},
        {"json", F::kText}},
       "--dir DIR [--families F] [--seed S] [--json FILE]", CheckConstraints},
      {"stay", With(query, {{"time", F::kInt}}),
       "--dir DIR [--store FILE --tag T] --time T", Stay},
      {"pattern", With(query, {{"pattern", F::kText}}),
       "--dir DIR [--store FILE --tag T] --pattern \"? F0.RoomA[5] ?\"",
       PatternQuery},
      {"sample", With(query, {{"count", F::kInt}, {"seed", F::kInt64}}),
       "--dir DIR [--store FILE --tag T] [--count N] [--seed S]", Sample},
      {"report", With(query, {{"audit", F::kSwitch}}),
       "--dir DIR [--store FILE --tag T] [--audit]", Report},
      {"store ls", {{"store", F::kText}}, "--store FILE", StoreLs},
      {"store get",
       {{"store", F::kText}, {"tag", F::kInt64}, {"out", F::kText},
        {"raw", F::kSwitch}},
       "--store FILE --tag T --out FILE [--raw]", StoreGet},
      {"store put", {{"store", F::kText}, {"tag", F::kInt64}, {"in", F::kText}},
       "--store FILE --tag T --in FILE", StorePut},
      {"store compact", {{"store", F::kText}}, "--store FILE", StoreCompact},
      {"store verify", {{"store", F::kText}}, "--store FILE", StoreVerify},
  };
  return commands;
}

/// Runs the command named by argv[1] (and argv[2] for a store verb). Exits
/// 0 on success, 1 when the command fails, and 2 on a usage error (an
/// unknown command, or Flags::Parse's), which is diagnosed before any work.
int Main(int argc, char** argv) {
  std::string name = argc > 1 ? argv[1] : "";
  const int first = name == "store" && argc > 2 ? 3 : 2;
  if (first == 3) name = name + " " + argv[2];
  for (const Command& command : Commands()) {
    if (name != command.name) continue;
    Result<Flags> flags =
        Flags::Parse(command.flags, argc - first, argv + first);
    std::string error = flags.ok() ? "" : flags.status().message();
    // Every store verb operates on one container.
    if (flags.ok() && !flags->help() && first == 3 &&
        flags->Get("store").empty()) {
      error = "missing --store FILE";
    }
    if (error.empty() && !flags->help()) return command.run(*flags);
    if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
    std::fprintf(error.empty() ? stdout : stderr,
                 "usage: rfidclean_cli %s %s\n", command.name, command.usage);
    return error.empty() ? 0 : 2;
  }
  if (!name.empty()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
  }
  std::fprintf(stderr, "usage: rfidclean_cli <command> [--flag value ...]\n");
  for (const Command& command : Commands()) {
    std::fprintf(stderr, "  %s %s\n", command.name, command.usage);
  }
  return 2;
}

}  // namespace
}  // namespace rfidclean::cli

int main(int argc, char** argv) { return rfidclean::cli::Main(argc, argv); }
