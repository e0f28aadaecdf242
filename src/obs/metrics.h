#ifndef RFIDCLEAN_OBS_METRICS_H_
#define RFIDCLEAN_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>

#include "common/stopwatch.h"

/// \file
/// Low-overhead runtime metrics for the cleaning pipeline.
///
/// Every instrumentation point increments a counter in a thread-local sink
/// that only its thread writes (a relaxed atomic load and store, no locked
/// read-modify-write); sinks register themselves in a process-wide
/// registry and `CleaningStats::Capture()` sums live sinks plus the folded
/// totals of exited threads under one mutex, so the hot path never
/// synchronizes. Hot loops
/// (per-edge, per-intern) accumulate in locals or in object members and
/// flush once per layer or per build — a probe costs one or two register
/// adds, never a TLS lookup per edge. The probes only observe: results are
/// bit-identical whether or not anyone reads the totals.
///
/// The thread sinks and their registry are shared with the trace and
/// explain layers (obs/sink_registry.h).

namespace rfidclean::obs {

/// Monotonic event counters. Each enumerator is one aggregated uint64; the
/// semantics (and the invariants tying them together) are documented in
/// docs/ALGORITHM.md §9 and CounterName().
enum class Counter : std::uint8_t {
  // io layer (readings_io, building_io).
  kIoRowsParsed,     ///< data rows/lines accepted by a text parser
  kIoRowsRejected,   ///< rows/lines that produced a parse error

  // Forward phase (core/forward.cc).
  kForwardLayers,        ///< layers recorded (sources + expansions)
  kForwardNodes,         ///< work-graph nodes materialized
  kForwardEdges,         ///< work-graph edges materialized
  kForwardExpansions,    ///< frontier nodes expanded via the generator
  kForwardMemoHits,      ///< frontier nodes replayed from the memo
  kForwardKeysInterned,  ///< distinct node keys stored by the arenas

  // Streaming cleaner (core/streaming.cc).
  kStreamAlphaUnderflows,  ///< Pushes rejected: filtered mass hit exact zero

  // Key-interning arena (core/key_arena.cc).
  kKeyInternCalls,  ///< NodeKeyArena::Intern invocations
  kKeyProbeSteps,   ///< hash-table probe steps across both tables

  // Backward phase (core/work_graph.cc).
  kBackwardEdgesBuilt,    ///< edges entering conditioning (== kForwardEdges)
  kBackwardEdgesKilled,   ///< edges conditioned to zero or owned by dead nodes
  kBackwardEdgesKept,     ///< edges with positive conditioned probability
  kBackwardNodesDead,     ///< nodes with no surviving suffix (S(n) = 0)
  kBackwardRenormPasses,  ///< per-layer rescaling passes

  // Batch runtime (runtime/batch_cleaner.cc, runtime/shard_queue.cc).
  kBatchTagsCleaned,             ///< tags that produced a graph
  kBatchTagsFailedPrecondition,  ///< tags with no consistent interpretation
  kBatchTagsInvalidArgument,     ///< tags rejected before cleaning
  kBatchTagsInternalError,       ///< tags boxed from an uncaught exception
  kBatchArenaReuses,             ///< per-tag cleanings seeded by recycled hints
  kBatchArenaColdStarts,         ///< per-tag cleanings with no hints yet
  kQueuePopsLocal,               ///< shards served from the worker's own lane
  kQueueSteals,                  ///< shards stolen from another worker's lane

  // Preflight feasibility analysis (analysis/feasibility.cc).
  kPreflightNodesPruned,  ///< statically-dead candidates removed pre-build
  kPreflightEdgesPruned,  ///< relaxed transitions with a dead endpoint
  kPreflightTagsDoomed,   ///< cleans rejected before building any layer

  // Persistent ct-store (store/graph_codec.cc, store/ct_store.cc).
  kStoreBlobsEncoded,  ///< ct-graph blobs serialized to the binary format
  kStoreBytesEncoded,  ///< blob bytes produced by the encoder
  kStoreBlobsDecoded,  ///< blobs parsed back into a CtGraph
  kStoreBytesDecoded,  ///< blob bytes parsed and checksum-verified
  kStoreCrcFailures,   ///< blobs/sections rejected on a checksum mismatch

  kCount
};

/// Wall-time phase accumulators (milliseconds, summed across threads).
enum class Phase : std::uint8_t {
  kForward,    ///< forward expansion (layer construction)
  kBackward,   ///< conditioning + compaction
  kIoParse,      ///< text parsing (readings, buildings)
  kTagClean,     ///< whole-tag cleaning in the batch runtime
  kPreflight,    ///< static feasibility analysis before the build
  kStoreEncode,  ///< binary blob serialization (store/graph_codec.cc)
  kStoreDecode,  ///< binary blob parse/verify/map (store/*)
  kCount
};

/// Value distributions, collected as log2-bucketed histograms. Ratios and
/// per-build maxima are sampled once per build so count/mean/max summarize
/// the fleet of builds.
enum class Dist : std::uint8_t {
  kLayerWidth,       ///< nodes per recorded forward layer
  kTagMicros,        ///< per-tag cleaning wall time, microseconds
  kKeyProbeMax,      ///< longest intern probe chain, per build
  kKeyOccupancyPct,  ///< persistent key-table load percent, per build
  /// Conditioning mass loss (1 - source mass), ppb, split by the phase
  /// that removed it: the backward sweep (dead suffixes) vs compaction
  /// (nodes stranded from every surviving source). Each build samples
  /// both, so the per-build sum equals the old aggregate mass_lost_ppb
  /// and reconciles with the explain report (obs/explain.h).
  kMassLostBackwardPpb,
  kMassLostCompactionPpb,
  kCount
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);
inline constexpr int kNumPhases = static_cast<int>(Phase::kCount);
inline constexpr int kNumDists = static_cast<int>(Dist::kCount);
/// Bucket i of a histogram holds values whose bit width is i, i.e. value 0
/// lands in bucket 0 and value v > 0 in bucket floor(log2(v)) + 1.
inline constexpr int kHistogramBuckets = 40;

/// Aggregated state of one distribution.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }

  void MergeFrom(const HistogramData& other) {
    count += other.count;
    sum += other.sum;
    max = other.max > max ? other.max : max;
    for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
  }
};

/// Records `n` occurrences of `counter` in the calling thread's sink.
void Add(Counter counter, std::uint64_t n = 1);

/// Adds `millis` of wall time to `phase`.
void AddMillis(Phase phase, double millis);

/// Records one sample of `dist`.
void ObserveValue(Dist dist, std::uint64_t value);

/// RAII phase timer: adds the scope's wall time to `phase` on destruction.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase) : phase_(phase) {}
  ~PhaseTimer() { AddMillis(phase_, watch_.ElapsedMillis()); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Phase phase_;
  Stopwatch watch_;
};

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_OBS_METRICS_H_
