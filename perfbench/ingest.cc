// `ingest`: the user's batch path. Each pass runs
// `rfidclean_cli clean --dir D --jobs J --store F` as a child process on
// the generated multi-tag feed, into a fresh F, and checks the store it
// wrote. The traced run replays the same calls in-process, one span per
// library call, and adds a sequential per-tag replay of what a batch
// worker does for the core and analysis layers.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "analysis/feasibility.h"
#include "common.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/builder.h"
#include "core/streaming.h"
#include "core/successor.h"
#include "io/readings_io.h"
#include "model/apriori.h"
#include "obs/cleaning_stats.h"
#include "runtime/batch_cleaner.h"
#include "store/ct_store.h"
#include "store/graph_codec.h"

namespace rfidclean::perfbench {
namespace {

constexpr int kSampledTags = 2;

/// What the store of `feed` must hold; two tags drawn from the seed are
/// built in-process for the graph-digest comparison.
StoreExpectation ExpectStore(const Options& options, const Feed& feed,
                             const Deployment& deployment) {
  StoreExpectation expected;
  expected.tags = feed.tags;
  for (const LSequence& sequence : feed.sequences) {
    expected.input_digests.push_back(sequence.Digest());
  }
  expected.constraint_digest = deployment.constraints.Digest();
  CtGraphBuilder builder(deployment.constraints);
  Rng rng(options.seed, /*stream=*/0x5A3D);
  while (expected.sampled_graph_digests.size() <
         std::min<std::size_t>(kSampledTags, feed.tags.size())) {
    const std::size_t i = rng.UniformIndex(feed.tags.size());
    if (expected.sampled_graph_digests.count(feed.tags[i]) > 0) continue;
    Result<CtGraph> graph = builder.Build(feed.sequences[i]);
    expected.sampled_graph_digests[feed.tags[i]] =
        graph.ok() ? graph.value().Digest() : 0;
  }
  return expected;
}

/// One CLI pass into a fresh store, checked; returns the child's run. A
/// store byte-identical to `*verified` (the digest of a store that passed
/// every check) passes; any other store gets the full CheckStore, and
/// becomes `*verified` when it passes.
ChildRun CliPass(const Options& options, const Feed& feed,
                 const StoreExpectation& expected,
                 const std::string& store_path, std::string* verified,
                 Report* report) {
  std::remove(store_path.c_str());
  const ChildRun run =
      RunChild(CleanCommand(options, feed.dir, store_path), feed.dir + "/clean.log");
  if (run.exit_code != 0) {
    report->Attempt(feed.tags.size());
    for (TagId tag : feed.tags) {
      report->Fail(StrFormat("ingest: clean exited %d (tag %lld)", run.exit_code,
                             static_cast<long long>(tag)));
    }
    return run;
  }
  SyncFile(store_path);
  const std::string digest = FileDigestHex(store_path);
  if (!verified->empty() && digest == *verified) {
    report->Attempt(feed.tags.size());
  } else if (CheckStore(store_path, expected, report) == 0) {
    *verified = digest;
  }
  return run;
}

/// Core and analysis layers: per tag, what a batch worker calls —
/// FeasibilityOracle::Analyze, StreamingCleaner::Push per tick, Finish —
/// sequentially on this thread, so counters and spans belong to one tag.
/// Returns the slowest tag's clean time in ms.
double SequentialReplay(const Feed& feed, const Deployment& deployment,
                      const StoreExpectation& expected, Report* report,
                      SpanLog* log) {
  const SuccessorGenerator successors(deployment.constraints);
  const FeasibilityOracle oracle(deployment.constraints);
  const obs::CleaningStats before = obs::CleaningStats::Capture();
  std::size_t candidates = 0;
  std::size_t pruned = 0;
  BuildStats totals;
  double slowest_tag_ms = 0.0;
  double total_tag_ms = 0.0;
  double heap_bytes_per_node = 0.0;
  for (std::size_t i = 0; i < feed.tags.size(); ++i) {
    const LSequence& sequence = feed.sequences[i];
    for (Timestamp t = 0; t < sequence.length(); ++t) {
      candidates += sequence.CandidatesAt(t).size();
    }
    report->Attempt();
    const double heap_before = HeapBytesInUse();
    const double tag_start = log->NowMs();
    PreflightPlan plan;
    {
      SpanLog::Scope span(log, "analysis.preflight", feed.tags[i]);
      plan = oracle.Analyze(sequence);
    }
    pruned += plan.candidates_pruned;
    std::optional<Result<CtGraph>> graph;
    BuildStats stats;
    {
      StreamingCleaner cleaner(successors);
      if (plan.any_pruned()) cleaner.SetPreflightPlan(&plan);
      Status pushed = Status::Ok();
      {
        SpanLog::Scope span(log, "core.forward", feed.tags[i]);
        for (Timestamp t = 0; t < sequence.length() && pushed.ok(); ++t) {
          pushed = cleaner.Push(sequence.CandidatesAt(t));
        }
      }
      if (plan.doomed() || !pushed.ok()) {
        report->Fail(StrFormat("ingest replay: tag %lld does not clean",
                               static_cast<long long>(feed.tags[i])));
        continue;
      }
      SpanLog::Scope span(log, "core.condition", feed.tags[i]);
      graph.emplace(std::move(cleaner).Finish(&stats));
    }
    const double tag_ms = log->NowMs() - tag_start;
    slowest_tag_ms = std::max(slowest_tag_ms, tag_ms);
    total_tag_ms += tag_ms;
    if (!graph->ok()) {
      report->Fail("ingest replay: " + graph->status().ToString());
      continue;
    }
    if (i == 0 && stats.final_nodes > 0) {
      heap_bytes_per_node = (HeapBytesInUse() - heap_before) /
                           static_cast<double>(stats.final_nodes);
    }
    auto sampled = expected.sampled_graph_digests.find(feed.tags[i]);
    if (sampled != expected.sampled_graph_digests.end() &&
        graph->value().Digest() != sampled->second) {
      report->Fail("ingest replay: streaming graph differs from Build");
    }
    totals.peak_nodes += stats.peak_nodes;
    totals.peak_edges += stats.peak_edges;
    totals.final_nodes += stats.final_nodes;
    totals.final_edges += stats.final_edges;
    SpanLog::Scope span(log, "replay.release", feed.tags[i]);
    graph.reset();
  }
  const obs::CleaningStats delta =
      obs::CleaningStats::Capture().DeltaSince(before);
  const double memo_hits =
      static_cast<double>(delta.Get(obs::Counter::kForwardMemoHits));
  const double expansions =
      static_cast<double>(delta.Get(obs::Counter::kForwardExpansions));
  const double keys =
      static_cast<double>(delta.Get(obs::Counter::kForwardKeysInterned));
  report->Metric("analysis.preflight_ms", log->SumMs("analysis.preflight"), "ms");
  report->Metric("analysis.pruned_share",
                 candidates > 0 ? static_cast<double>(pruned) / candidates : 0.0,
                 "ratio");
  report->Metric("core.forward_ms", log->SumMs("core.forward"), "ms");
  report->Metric("core.condition_ms", log->SumMs("core.condition"), "ms");
  report->Metric("core.build_ms", total_tag_ms, "ms");
  report->Metric("core.survival_share",
                 totals.peak_edges > 0
                     ? static_cast<double>(totals.final_edges) / totals.peak_edges
                     : 0.0,
                 "ratio");
  report->Metric("core.memo_hit_share",
                 memo_hits + expansions > 0 ? memo_hits / (memo_hits + expansions)
                                            : 0.0,
                 "ratio");
  report->Metric("core.probe_steps_per_key",
                 keys > 0 ? delta.Get(obs::Counter::kKeyProbeSteps) / keys : 0.0,
                 "steps/key");
  report->Metric("core.peak_nodes", static_cast<double>(totals.peak_nodes), "count");
  report->Metric("core.peak_edges", static_cast<double>(totals.peak_edges), "count");
  report->Metric("core.final_nodes", static_cast<double>(totals.final_nodes), "count");
  report->Metric("core.final_edges", static_cast<double>(totals.final_edges), "count");
  report->Metric("core.heap_bytes_per_node", heap_bytes_per_node, "B/node");
  report->Metric("model.candidates_per_tick",
                 static_cast<double>(candidates) / feed.TagTicks(), "count");
  return slowest_tag_ms;
}

/// The CLI's clean-to-store sequence, in-process, one span per library
/// call: set-up, parse, interpret, CleanAll, encode + write per tag,
/// release. Returns the pass's wall time in ms.
double LedgerPass(const Options& options, const Feed& feed,
                  const StoreExpectation& expected, Report* report,
                  SpanLog* log) {
  const std::string store_path = feed.dir + "/ledger.cts";
  std::remove(store_path.c_str());
  const double start = log->NowMs();
  std::unique_ptr<Deployment> deployment =
      SetUpDeployment(feed.dir, options.seed, log);
  std::optional<BatchCleaner> cleaner;
  {
    SpanLog::Scope span(log, "runtime.cleaner_init");
    BatchOptions batch;
    batch.jobs = kJobs;
    cleaner.emplace(deployment->constraints, batch);
  }
  std::optional<std::vector<TagReadings>> tags;
  {
    SpanLog::Scope span(log, "io.parse");
    std::ifstream is(feed.dir + "/readings.csv");
    Result<std::vector<TagReadings>> parsed = ReadMultiTagReadingsCsv(is);
    if (!parsed.ok()) throw std::runtime_error(parsed.status().ToString());
    tags.emplace(std::move(parsed).value());
  }
  std::optional<std::vector<TagWorkload>> workloads;
  {
    SpanLog::Scope span(log, "model.interpret");
    AprioriModel apriori(deployment->building, deployment->grid,
                         deployment->calibrated);
    workloads.emplace();
    for (const TagReadings& tag : *tags) {
      workloads->push_back(
          TagWorkload{tag.tag, LSequence::FromReadings(tag.readings, apriori)});
    }
  }
  const obs::CleaningStats before = obs::CleaningStats::Capture();
  std::optional<std::vector<TagOutcome>> outcomes;
  {
    SpanLog::Scope span(log, "runtime.clean_all");
    outcomes.emplace(cleaner->CleanAll(*workloads));
  }
  const obs::CleaningStats delta =
      obs::CleaningStats::Capture().DeltaSince(before);
  std::optional<store::CtStoreWriter> writer;
  {
    SpanLog::Scope span(log, "store.write");
    Result<store::CtStoreWriter> opened =
        store::CtStoreWriter::OpenOrCreate(store_path);
    if (!opened.ok()) throw std::runtime_error(opened.status().ToString());
    writer.emplace(std::move(opened).value());
  }
  const std::uint64_t constraint_digest = deployment->constraints.Digest();
  double blob_bytes = 0.0;
  double nodes = 0.0;
  for (std::size_t i = 0; i < outcomes->size(); ++i) {
    const TagOutcome& outcome = (*outcomes)[i];
    if (!outcome.graph.ok()) continue;  // CheckStore below counts it
    nodes += static_cast<double>(outcome.graph.value().NumNodes());
    std::string blob;
    {
      SpanLog::Scope span(log, "store.encode", outcome.tag);
      store::GraphProvenance provenance;
      provenance.input_digest = (*workloads)[i].sequence.Digest();
      provenance.constraint_digest = constraint_digest;
      blob = store::EncodeCtGraphBlob(outcome.graph.value(), outcome.tag,
                                      provenance);
    }
    blob_bytes += static_cast<double>(blob.size());
    SpanLog::Scope span(log, "store.write", outcome.tag);
    const Status put = writer->Put(outcome.tag, blob);
    if (!put.ok()) throw std::runtime_error(put.ToString());
  }
  {
    SpanLog::Scope span(log, "store.write");
    const Status finished = writer->Finish();
    if (!finished.ok()) throw std::runtime_error(finished.ToString());
    writer.reset();
  }
  {
    // What the CLI frees when its clean returns.
    SpanLog::Scope span(log, "core.release");
    outcomes.reset();
    workloads.reset();
    tags.reset();
  }
  const double wall_ms = log->NowMs() - start;
  report->Metric("trace.unaccounted_share",
                 1.0 - log->LayerMs(start, start + wall_ms) / wall_ms, "ratio");
  report->Metric("io.parse_ms", log->SumMs("io.parse"), "ms");
  report->Metric("model.interpret_ms", log->SumMs("model.interpret"), "ms");
  const double clean_all_ms = log->SumMs("runtime.clean_all");
  report->Metric("runtime.clean_all_ms", clean_all_ms, "ms");
  report->Metric("runtime.steals",
                 static_cast<double>(delta.Get(obs::Counter::kQueueSteals)),
                 "count");
  report->Metric("runtime.arena_reuses",
                 static_cast<double>(delta.Get(obs::Counter::kBatchArenaReuses)),
                 "count");
  const double encode_ms = log->SumMs("store.encode");
  report->Metric("store.encode_ms", encode_ms, "ms");
  report->Metric("store.encode_mib_per_s",
                 encode_ms > 0 ? blob_bytes / (1024.0 * 1024.0) / (encode_ms / 1000.0)
                               : 0.0,
                 "MiB/s");
  report->Metric("store.write_ms", log->SumMs("store.write"), "ms");
  report->Metric("store.blob_bytes_per_node", nodes > 0 ? blob_bytes / nodes : 0.0,
                 "B/node");
  report->Metric("core.release_ms", log->SumMs("core.release"), "ms");
  CheckStore(store_path, expected, report);
  std::remove(store_path.c_str());
  return wall_ms;
}

}  // namespace

void RunIngest(const Options& options, Report* report, SpanLog* log) {
  const Feed feed = GenerateFeed(options, options.work_dir + "/ingest",
                                 options.tags, options.ticks);
  std::unique_ptr<Deployment> deployment;
  std::optional<BatchCleaner> cleaner;
  MeasureSetup(options, report, [&](SpanLog* setup_log) {
    cleaner.reset();
    deployment = SetUpDeployment(feed.dir, options.seed, setup_log);
    SpanLog::Scope span(setup_log, "runtime.cleaner_init");
    BatchOptions batch;
    batch.jobs = kJobs;
    cleaner.emplace(deployment->constraints, batch);
  });
  const StoreExpectation expected = ExpectStore(options, feed, *deployment);
  const std::string store_path = feed.dir + "/ingest.cts";

  std::string verified;
  if (!options.trace) {
    Figures figures;
    std::vector<double> rss_mib;
    double timed_ms = 0.0;
    // One untimed pass first: the first run after the inputs are written
    // pays cold caches that the passes after it do not. Then a closed loop
    // of CLI passes until `seconds` of clean time (checks excluded) and at
    // least three passes for a median.
    CliPass(options, feed, expected, store_path, &verified, report);
    while (timed_ms < options.seconds * 1000.0 || rss_mib.size() < 3) {
      const ChildRun run =
          CliPass(options, feed, expected, store_path, &verified, report);
      figures.latency_ms.push_back(run.wall_ms);
      rss_mib.push_back(run.max_rss_mib);
      timed_ms += run.wall_ms;
    }
    double nodes = 0.0;
    Result<store::CtStoreReader> stored = store::CtStoreReader::Open(store_path);
    if (stored.ok()) {
      for (double tag_nodes : StoredNodes(stored.value(), feed.tags)) {
        nodes += tag_nodes;
      }
    }
    const double tag_ticks = static_cast<double>(feed.TagTicks());
    const double median_s = Median(figures.latency_ms) / 1000.0;
    figures.request_nodes.assign(figures.latency_ms.size(), nodes);
    figures.nodes_per_s = nodes / median_s;
    figures.tag_ticks_per_s = tag_ticks / median_s;
    figures.requests_per_s =
        static_cast<double>(figures.latency_ms.size()) / (timed_ms / 1000.0);
    figures.peak_rss_mib = Median(rss_mib);
    figures.peak_nodes = nodes;  // the CLI holds every graph until it exits
    figures.store_bytes = static_cast<double>(FileBytes(store_path));
    figures.store_nodes = nodes;
    figures.store_tag_ticks = tag_ticks;
    ReportFigures(figures, report);
    report->Info("store_digest", Quote(verified));
    std::string passes;
    for (double millis : figures.latency_ms) {
      passes += StrFormat("%s%.1f", passes.empty() ? "" : ", ", millis);
    }
    report->Info("pass_ms", "[" + passes + "]");
    std::remove(store_path.c_str());
    return;
  }

  const double slowest_tag_ms =
      SequentialReplay(feed, *deployment, expected, report, log);
  const double ledger_ms = LedgerPass(options, feed, expected, report, log);
  {
    // Single-threaded baseline of the same CleanAll.
    std::vector<TagWorkload> workloads;
    for (std::size_t i = 0; i < feed.tags.size(); ++i) {
      workloads.push_back(TagWorkload{feed.tags[i], feed.sequences[i]});
    }
    BatchOptions batch;
    batch.jobs = 1;
    const BatchCleaner serial(deployment->constraints, batch);
    std::optional<std::vector<TagOutcome>> outcomes;
    {
      SpanLog::Scope span(log, "runtime.clean_all_jobs1");
      outcomes.emplace(serial.CleanAll(workloads));
    }
    report->Attempt(outcomes->size());
    for (const TagOutcome& outcome : *outcomes) {
      if (!outcome.graph.ok()) {
        report->Fail("ingest jobs=1: " + outcome.graph.status().ToString());
      }
    }
  }
  const double clean_all_ms = log->SumMs("runtime.clean_all");
  const double jobs1_ms = log->SumMs("runtime.clean_all_jobs1");
  report->Metric("runtime.clean_all_jobs1_ms", jobs1_ms, "ms");
  report->Metric("runtime.speedup", clean_all_ms > 0 ? jobs1_ms / clean_all_ms : 0.0,
                 "ratio");
  report->Metric("runtime.max_tag_share",
                 clean_all_ms > 0 ? slowest_tag_ms / clean_all_ms : 0.0, "ratio");
  // Untraced reference passes of the real CLI for the tracing overhead.
  std::vector<double> walls_ms;
  for (int pass = 0; pass < 2; ++pass) {
    walls_ms.push_back(
        CliPass(options, feed, expected, store_path, &verified, report).wall_ms);
  }
  std::remove(store_path.c_str());
  report->Metric("trace.overhead_share", ledger_ms / Median(walls_ms) - 1.0,
                 "ratio");
}

}  // namespace rfidclean::perfbench
