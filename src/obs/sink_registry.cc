#include "obs/sink_registry.h"

namespace rfidclean::obs::internal {

void LiveMetrics::FoldInto(CleaningStats* out) const {
  constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  for (int i = 0; i < kNumCounters; ++i) {
    out->counters[i] += counters[i].load(kRelaxed);
  }
  for (int i = 0; i < kNumPhases; ++i) {
    out->phase_millis[i] += phase_millis[i].load(kRelaxed);
  }
  for (int i = 0; i < kNumDists; ++i) {
    HistogramData hist;
    hist.count = dists[i].count.load(kRelaxed);
    hist.sum = dists[i].sum.load(kRelaxed);
    hist.max = dists[i].max.load(kRelaxed);
    for (int b = 0; b < kHistogramBuckets; ++b) {
      hist.buckets[b] = dists[i].buckets[b].load(kRelaxed);
    }
    out->dists[i].MergeFrom(hist);
  }
}

void LiveMetrics::Clear() {
  constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  for (std::atomic<std::uint64_t>& counter : counters) {
    counter.store(0, kRelaxed);
  }
  for (std::atomic<double>& millis : phase_millis) millis.store(0.0, kRelaxed);
  for (Histogram& hist : dists) {
    hist.count.store(0, kRelaxed);
    hist.sum.store(0, kRelaxed);
    hist.max.store(0, kRelaxed);
    for (std::atomic<std::uint64_t>& bucket : hist.buckets) {
      bucket.store(0, kRelaxed);
    }
  }
}

SinkRegistry& Registry() {
  static SinkRegistry* registry = new SinkRegistry();
  return *registry;
}

ThreadSinkOwner::ThreadSinkOwner() {
  SinkRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  sink.trace_tid = registry.next_tid++;
  if (TraceArmed()) sink.trace.Arm(registry.trace_options.buffer_events);
  if (ExplainArmedRelaxed()) {
    sink.explain.Arm(registry.explain_options.buffer_events);
  }
  registry.live.push_back(&sink);
}

ThreadSinkOwner::~ThreadSinkOwner() {
  SinkRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  sink.metrics.FoldInto(&registry.retired_metrics);
  if (TraceArmed() && sink.trace.written() > 0) {
    registry.retired_trace.push_back(sink.LinearizeTrace());
  }
  if (ExplainArmedRelaxed() && sink.explain.written() > 0) {
    sink.explain.LinearizeInto(&registry.retired_explain);
    registry.retired_explain_dropped += sink.explain.DroppedEvents();
  }
  for (std::size_t i = 0; i < registry.live.size(); ++i) {
    if (registry.live[i] == &sink) {
      registry.live[i] = registry.live.back();
      registry.live.pop_back();
      break;
    }
  }
}

}  // namespace rfidclean::obs::internal
