#include "runtime/batch_cleaner.h"

#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/cleaning_stats.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/arena.h"
#include "runtime/shard_queue.h"

namespace rfidclean {

namespace {

/// Maps a tag outcome status onto its taxonomy counter. Internal errors
/// never reach here (exceptions are boxed in run_worker, which counts them
/// itself).
obs::Counter OutcomeCounter(const Result<CtGraph>& graph) {
  if (graph.ok()) return obs::Counter::kBatchTagsCleaned;
  switch (graph.status().code()) {
    case StatusCode::kFailedPrecondition:
      return obs::Counter::kBatchTagsFailedPrecondition;
    case StatusCode::kInternal:
      return obs::Counter::kBatchTagsInternalError;
    default:
      return obs::Counter::kBatchTagsInvalidArgument;
  }
}

/// Cleans one workload with the worker's recycled capacity hints. All
/// error messages are deterministic functions of the workload, so outcomes
/// compare bit-identical across job counts and runs.
TagOutcome CleanOne(const SuccessorGenerator& successors,
                    const FeasibilityOracle* oracle,
                    const TagWorkload& workload, const BatchOptions& options,
                    std::size_t index, runtime::WorkerArena* arena,
                    ThreadPool* pool, std::uint64_t constraint_digest) {
  obs::PhaseTimer phase_timer(obs::Phase::kTagClean);
  const Stopwatch tag_watch;
  // Every kill decision and summary recorded while this workload cleans —
  // by the preflight, the forward engine, or the conditioning pass —
  // carries this tag.
  obs::SetExplainTag(static_cast<long long>(workload.tag));
  BuildStats stats;
  bool conditioned = false;
  Result<CtGraph> graph = [&]() -> Result<CtGraph> {
    if (workload.sequence.length() == 0) {
      return InvalidArgumentError(
          StrFormat("tag %lld has an empty stream",
                    static_cast<long long>(workload.tag)));
    }
    StreamingCleaner cleaner(successors);
    RFID_RETURN_IF_ERROR(cleaner.Preflight(oracle, workload.sequence, &stats));
    cleaner.SetThreadPool(pool);
    arena->Prepare(&cleaner, workload.sequence.length());
    for (Timestamp t = 0; t < workload.sequence.length(); ++t) {
      Status pushed = cleaner.Push(workload.sequence.CandidatesAt(t));
      if (!pushed.ok()) return pushed;
      if (options.after_tick) options.after_tick(index, t);
    }
    conditioned = true;
    return std::move(cleaner).Finish(&stats);
  }();
  // Conditioning summarizes everything that reaches it and the preflight
  // summarizes doomed tags, so only the paths that die in between (empty
  // stream, a failed Push) need a summary from this layer, which keeps
  // every tag of the batch in the report exactly once.
  if (obs::ExplainArmed() && !graph.ok() && !conditioned &&
      stats.doomed_at < 0) {
    obs::ExplainTagSummary summary;
    summary.tag = static_cast<long long>(workload.tag);
    summary.status = graph.status().message();
    obs::RecordTagExplain(std::move(summary));
  }
  if (graph.ok()) arena->Observe(stats, workload.sequence.length());
  obs::Add(OutcomeCounter(graph));
  obs::ObserveValue(
      obs::Dist::kTagMicros,
      static_cast<std::uint64_t>(tag_watch.ElapsedMillis() * 1000.0));
  TagOutcome outcome{workload.tag, std::move(graph), stats};
  RecordOutcomeProvenance(workload, outcome, constraint_digest);
  return outcome;
}

}  // namespace

void RecordOutcomeProvenance(const TagWorkload& workload,
                             const TagOutcome& outcome,
                             std::uint64_t constraint_digest) {
  // Graph digesting is a full structural walk — only worth it when a
  // trace session is recording the provenance.
  if (!obs::TraceActive()) return;
  obs::TagProvenance provenance;
  provenance.tag = static_cast<long long>(outcome.tag);
  provenance.input_digest = workload.sequence.Digest();
  provenance.constraint_digest = constraint_digest;
  provenance.graph_digest =
      outcome.graph.ok() ? outcome.graph.value().Digest() : 0;
  provenance.forward_millis = outcome.stats.forward_millis;
  provenance.backward_millis = outcome.stats.backward_millis;
  provenance.status =
      outcome.graph.ok() ? "ok" : outcome.graph.status().ToString();
  obs::RecordTagProvenance(std::move(provenance));
}

BatchCleaner::BatchCleaner(const ConstraintSet& constraints,
                           BatchOptions options)
    : options_(std::move(options)),
      successors_(constraints, options_.clean.successor),
      constraint_digest_(constraints.Digest()) {
  if (options_.jobs < 1) options_.jobs = 1;
  if (options_.clean.preflight) oracle_.emplace(constraints);
}

std::vector<TagOutcome> BatchCleaner::CleanAll(
    const std::vector<TagWorkload>& workloads) const {
  if (options_.trace.enabled && !obs::TraceActive()) {
    obs::StartTracing(options_.trace);
  }
  if (options_.explain.enabled && !obs::ExplainArmed()) {
    obs::StartExplain(options_.explain);
  }
  obs::TraceSpan batch_span("batch", "batch_clean_all");
  batch_span.AddArg("tags", workloads.size());
  std::vector<std::optional<TagOutcome>> slots(workloads.size());
  if (!workloads.empty()) {
    const std::size_t num_workers =
        std::min(static_cast<std::size_t>(options_.jobs), workloads.size());
    batch_span.AddArg("workers", num_workers);
    runtime::ShardQueue queue(workloads.size(), num_workers);

    // Each worker owns slot writes for the shards it pops (shards are
    // handed out exactly once), so no synchronization beyond the queue and
    // the final joins is needed.
    auto run_worker = [&](std::size_t worker) {
      obs::SetTraceThreadName(
          StrFormat("worker-%d", static_cast<int>(worker)));
      runtime::WorkerArena arena;
      // Worker-private lanes for intra-tag layer parallelism; byte-identity
      // across forward_threads values rests on the engine's Phase A/B
      // split, so the pool's only observable effect is wall-clock.
      std::optional<ThreadPool> pool;
      if (options_.clean.forward_threads > 1) {
        pool.emplace(options_.clean.forward_threads);
      }
      std::size_t shard = 0;
      while (queue.Pop(worker, &shard)) {
        // Counted per popped shard (not inside CleanOne) so that every
        // shard gets exactly one provision count and one outcome count,
        // whichever path — success, error status, or throw — it takes.
        obs::Add(arena.tick_hint() > 0 ? obs::Counter::kBatchArenaReuses
                                       : obs::Counter::kBatchArenaColdStarts);
        // Outside the tag span: whether this worker's arena had hints is a
        // scheduling artifact, and tag_clean subtrees must stay identical
        // across job counts (tests/obs_trace_test.cc).
        obs::TraceInstant("batch", "arena_prepare", "reused",
                          static_cast<std::uint64_t>(arena.tick_hint() > 0));
        {
          obs::TraceSpan tag_span("batch", "tag_clean");
          tag_span.AddArg("tag",
                          static_cast<std::uint64_t>(workloads[shard].tag));
          try {
            if (options_.before_tag) options_.before_tag(shard);
            slots[shard].emplace(CleanOne(
                successors_, oracle_.has_value() ? &*oracle_ : nullptr,
                workloads[shard], options_, shard, &arena,
                pool.has_value() ? &*pool : nullptr, constraint_digest_));
          } catch (const std::exception& e) {
            obs::Add(obs::Counter::kBatchTagsInternalError);
            slots[shard].emplace(TagOutcome{
                workloads[shard].tag,
                InternalError(StrFormat(
                    "uncaught exception while cleaning tag %lld: %s",
                    static_cast<long long>(workloads[shard].tag), e.what())),
                BuildStats{}});
          } catch (...) {
            obs::Add(obs::Counter::kBatchTagsInternalError);
            slots[shard].emplace(TagOutcome{
                workloads[shard].tag,
                InternalError(StrFormat(
                    "uncaught exception while cleaning tag %lld",
                    static_cast<long long>(workloads[shard].tag))),
                BuildStats{}});
          }
          tag_span.AddArg("ok",
                          static_cast<std::uint64_t>(slots[shard]->graph.ok()));
        }
        // Counter tracks sample global snapshots, which depend on what the
        // other workers have finished — also outside the tag span.
        obs::TraceSampleCounterTracks();
      }
    };

    if (num_workers == 1) {
      run_worker(0);
    } else {
      std::vector<std::thread> workers;
      workers.reserve(num_workers);
      for (std::size_t w = 0; w < num_workers; ++w) {
        workers.emplace_back(run_worker, w);
      }
      for (std::thread& worker : workers) worker.join();
    }
  }

  std::vector<TagOutcome> outcomes;
  outcomes.reserve(slots.size());
  for (std::optional<TagOutcome>& slot : slots) {
    RFID_CHECK(slot.has_value());
    outcomes.push_back(std::move(*slot));
  }
  return outcomes;
}

}  // namespace rfidclean
