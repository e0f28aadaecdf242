#include "obs/explain.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "obs/sink_registry.h"

namespace rfidclean::obs {

// The store codec validates enum ranges against these tables and the CLI
// prints them for persisted summaries.
const char* ExplainPhaseName(ExplainPhase phase) {
  switch (phase) {
    case ExplainPhase::kPreflight: return "preflight";
    case ExplainPhase::kForward: return "forward";
    case ExplainPhase::kBackward: return "backward";
    case ExplainPhase::kCompaction: return "compaction";
    case ExplainPhase::kCount: break;
  }
  RFID_CHECK(false);  // unreachable: exhaustive switch
  return "";
}

const char* ExplainConstraintName(ExplainConstraint constraint) {
  switch (constraint) {
    case ExplainConstraint::kUnreachable: return "unreachable";
    case ExplainConstraint::kTravelTime: return "travel_time";
    case ExplainConstraint::kLatency: return "latency";
    case ExplainConstraint::kInfeasible: return "infeasible";
    case ExplainConstraint::kPropagated: return "propagated";
    case ExplainConstraint::kStranded: return "stranded";
    case ExplainConstraint::kRenormalized: return "renormalized";
    case ExplainConstraint::kCount: break;
  }
  RFID_CHECK(false);  // unreachable: exhaustive switch
  return "";
}

namespace internal {
std::atomic<bool> g_explain_armed{false};
}  // namespace internal

void StartExplain(const ExplainOptions& options) {
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  ExplainOptions& session = registry.explain_options;
  session = options;
  if (session.buffer_events < 8) session.buffer_events = 8;
  if (session.top_edges < 1) session.top_edges = 1;
  registry.retired_explain.clear();
  registry.retired_explain_dropped = 0;
  registry.explain_tags.clear();
  for (internal::ThreadSink* sink : registry.live) {
    sink->explain.Arm(session.buffer_events);
  }
  internal::g_explain_armed.store(true, std::memory_order_release);
}

void StopExplain() {
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  internal::g_explain_armed.store(false, std::memory_order_release);
  registry.retired_explain.clear();
  registry.retired_explain_dropped = 0;
  registry.explain_tags.clear();
  for (internal::ThreadSink* sink : registry.live) sink->explain.Disarm();
}

ExplainOptions ExplainSessionOptions() {
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.explain_options;
}

void RecordExplainEvent(const ExplainEvent& event) {
  if (!internal::ExplainArmedRelaxed()) return;
  internal::LocalSink().explain.Append(event);
}

void RecordTagExplain(ExplainTagSummary summary) {
  if (!internal::ExplainArmedRelaxed()) return;
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.explain_tags.push_back(std::move(summary));
}

void SetExplainTag(long long tag) { internal::LocalSink().explain_tag = tag; }

long long ExplainCurrentTag() { return internal::LocalSink().explain_tag; }

ExplainCollection CollectExplain() {
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  ExplainCollection collection;
  collection.tags = registry.explain_tags;
  std::sort(collection.tags.begin(), collection.tags.end(),
            [](const ExplainTagSummary& a, const ExplainTagSummary& b) {
              return a.tag < b.tag;
            });
  collection.events = registry.retired_explain;
  collection.dropped_events = registry.retired_explain_dropped;
  for (const internal::ThreadSink* sink : registry.live) {
    sink->explain.LinearizeInto(&collection.events);
    collection.dropped_events += sink->explain.DroppedEvents();
  }
  // Each tag is cleaned by exactly one worker, so grouping by tag while
  // preserving within-stream order makes the collection independent of the
  // worker count and of the tag->worker assignment.
  std::stable_sort(collection.events.begin(), collection.events.end(),
                   [](const ExplainEvent& a, const ExplainEvent& b) {
                     return a.tag < b.tag;
                   });
  return collection;
}

}  // namespace rfidclean::obs
