#ifndef RFIDCLEAN_OBS_SINK_REGISTRY_H_
#define RFIDCLEAN_OBS_SINK_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/cleaning_stats.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file
/// Internal substrate shared by the three observability layers (metrics,
/// trace, explain); included only by their translation units.
///
/// Every instrumented thread owns one ThreadSink that all three layers
/// record into, and one process-wide SinkRegistry lists the live sinks
/// next to the state folded out of threads that have exited: BatchCleaner
/// workers are short-lived, and what they recorded must outlive them. The
/// sink registers itself on the thread's first probe and folds into the
/// retired state when the thread exits.
///
/// Only the owning thread writes its sink, without locks. Arming, snapshots,
/// resets and teardown touch sinks under the registry mutex while their
/// threads are quiesced (BatchCleaner joins its pool before returning): a
/// snapshot that races a probe may miss that probe but never tears state.

namespace rfidclean::obs::internal {

/// Fixed-capacity event ring with drop-oldest overwrite. Disarmed (empty)
/// rings drop every event quietly, which covers a probe racing a stop.
template <typename Event>
class EventRing {
 public:
  /// Empties the ring and sizes it for `capacity` events.
  void Arm(std::size_t capacity) {
    ring_.assign(capacity, Event{});
    next_ = 0;
    written_ = 0;
  }

  /// Empties the ring and releases its storage.
  void Disarm() {
    ring_.clear();
    ring_.shrink_to_fit();
    next_ = 0;
    written_ = 0;
  }

  void Append(const Event& event) {
    if (ring_.empty()) return;
    ring_[next_] = event;
    ++next_;
    if (next_ == ring_.size()) next_ = 0;
    ++written_;
  }

  /// Total events ever appended since the last Arm.
  std::uint64_t written() const { return written_; }

  /// Events lost to overwrite.
  std::uint64_t DroppedEvents() const {
    return written_ > ring_.size() ? written_ - ring_.size() : 0;
  }

  /// Appends the surviving events, oldest first, to `out`.
  void LinearizeInto(std::vector<Event>* out) const {
    const std::size_t kept = written_ < ring_.size()
                                 ? static_cast<std::size_t>(written_)
                                 : ring_.size();
    const std::size_t start = written_ > ring_.size() ? next_ : 0;
    for (std::size_t i = 0; i < kept; ++i) {
      out->push_back(ring_[(start + i) % ring_.size()]);
    }
  }

 private:
  std::vector<Event> ring_;
  std::size_t next_ = 0;
  std::uint64_t written_ = 0;
};

/// One thread's metric accumulators. Only the owning thread writes them,
/// but CleaningStats::Capture() reads them while the thread runs (trace
/// counter tracks sample mid-batch), so every cell is an atomic that the
/// owner updates with a relaxed load and store: the same plain moves as a
/// non-atomic increment, with a well-defined concurrent read.
struct LiveMetrics {
  struct Histogram {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
    std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
  };

  std::atomic<std::uint64_t> counters[kNumCounters] = {};
  std::atomic<double> phase_millis[kNumPhases] = {};
  Histogram dists[kNumDists];

  /// Adds the current values into `out`.
  void FoldInto(CleaningStats* out) const;
  /// Zeroes every cell.
  void Clear();
};

/// One thread's sink for all three layers.
struct ThreadSink {
  LiveMetrics metrics;

  EventRing<TraceEvent> trace;
  int trace_tid = 0;       ///< registration order, stable for the process
  std::string trace_name;  ///< from SetTraceThreadName()

  EventRing<ExplainEvent> explain;
  long long explain_tag = 0;  ///< SetExplainTag()

  /// The trace ring as an exported thread track, oldest event first.
  TraceThread LinearizeTrace() const {
    TraceThread thread;
    thread.tid = trace_tid;
    thread.name = trace_name;
    thread.dropped_events = trace.DroppedEvents();
    trace.LinearizeInto(&thread.events);
    return thread;
  }
};

/// Process-wide registry: the live sinks plus each layer's session state
/// and what it folded out of exited threads. Guarded by `mutex`.
struct SinkRegistry {
  std::mutex mutex;
  std::vector<ThreadSink*> live;
  int next_tid = 0;

  CleaningStats retired_metrics;

  TraceOptions trace_options;
  std::vector<TraceThread> retired_trace;
  std::vector<TagProvenance> provenance;

  ExplainOptions explain_options;
  std::vector<ExplainEvent> retired_explain;
  std::uint64_t retired_explain_dropped = 0;
  std::vector<ExplainTagSummary> explain_tags;
};

/// The registry. Leaked, so it outlives every thread-local sink.
SinkRegistry& Registry();

/// Owns one thread's sink: the constructor registers it (arming the rings
/// of any active session), the destructor folds what the thread recorded
/// into the retired state and deregisters.
struct ThreadSinkOwner {
  ThreadSinkOwner();
  ~ThreadSinkOwner();
  ThreadSinkOwner(const ThreadSinkOwner&) = delete;
  ThreadSinkOwner& operator=(const ThreadSinkOwner&) = delete;

  ThreadSink sink;
};

/// The calling thread's sink, registered on first use. Inline so a probe
/// costs the thread-local access and nothing more.
inline ThreadSink& LocalSink() {
  thread_local ThreadSinkOwner owner;
  return owner.sink;
}

}  // namespace rfidclean::obs::internal

#endif  // RFIDCLEAN_OBS_SINK_REGISTRY_H_
