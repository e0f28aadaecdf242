#include "runtime/shard_queue.h"

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean::runtime {

ShardQueue::ShardQueue(std::size_t num_shards, std::size_t num_workers) {
  RFID_CHECK_GT(num_workers, 0u);
  lanes_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    Lane& lane = *lanes_[shard % num_workers];
    lane.shards.push_back(shard);
    lane.approx_size.store(lane.shards.size(), std::memory_order_relaxed);
  }
}

bool ShardQueue::Pop(std::size_t worker, std::size_t* shard) {
  RFID_CHECK_LT(worker, lanes_.size());
  Lane& own = *lanes_[worker];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.shards.empty()) {
      *shard = own.shards.front();
      own.shards.pop_front();
      own.approx_size.store(own.shards.size(), std::memory_order_relaxed);
      obs::Add(obs::Counter::kQueuePopsLocal);
      return true;
    }
  }
  // Own lane drained: steal from the back of the most loaded victim. The
  // approximate sizes may be stale, so retry until an actual steal succeeds
  // or every lane reads empty under its lock.
  while (true) {
    std::size_t victim = lanes_.size();
    std::size_t victim_size = 0;
    for (std::size_t v = 0; v < lanes_.size(); ++v) {
      if (v == worker) continue;
      std::size_t size = lanes_[v]->approx_size.load(std::memory_order_relaxed);
      if (size > victim_size) {
        victim_size = size;
        victim = v;
      }
    }
    if (victim == lanes_.size()) return false;  // everything reads empty
    Lane& lane = *lanes_[victim];
    std::lock_guard<std::mutex> lock(lane.mu);
    if (lane.shards.empty()) {
      // Lost the race for the victim's last shard; re-scan.
      lane.approx_size.store(0, std::memory_order_relaxed);
      continue;
    }
    *shard = lane.shards.back();
    lane.shards.pop_back();
    lane.approx_size.store(lane.shards.size(), std::memory_order_relaxed);
    obs::Add(obs::Counter::kQueueSteals);
    obs::TraceInstant("batch", "steal", "victim",
                      static_cast<std::uint64_t>(victim));
    return true;
  }
}

}  // namespace rfidclean::runtime
