#include "obs/metrics.h"

#include <atomic>
#include <bit>

#include "obs/sink_registry.h"

namespace rfidclean::obs {
namespace {

int BucketOf(std::uint64_t value) {
  const int bucket = std::bit_width(value);  // 0 -> 0, v>0 -> floor(log2)+1
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

/// Adds `n` to a cell of the calling thread's sink. The thread is the
/// cell's only writer, so a relaxed load and store replace a locked
/// read-modify-write.
template <typename T>
void Bump(std::atomic<T>& cell, T n) {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace

void Add(Counter counter, std::uint64_t n) {
  Bump(internal::LocalSink().metrics.counters[static_cast<int>(counter)], n);
}

void AddMillis(Phase phase, double millis) {
  Bump(internal::LocalSink().metrics.phase_millis[static_cast<int>(phase)],
       millis);
}

void ObserveValue(Dist dist, std::uint64_t value) {
  internal::LiveMetrics::Histogram& h =
      internal::LocalSink().metrics.dists[static_cast<int>(dist)];
  Bump(h.count, std::uint64_t{1});
  Bump(h.sum, value);
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
  Bump(h.buckets[BucketOf(value)], std::uint64_t{1});
}

}  // namespace rfidclean::obs
