#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

#include "obs/sink_registry.h"

namespace rfidclean::obs {
namespace {

std::uint64_t SteadyNowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Session epoch (steady-clock nanos at StartTracing). Read without the
/// registry lock on the hot path; written only while arming a session.
std::atomic<std::uint64_t> g_epoch_nanos{0};

std::uint64_t SessionNanos() {
  const std::uint64_t epoch = g_epoch_nanos.load(std::memory_order_relaxed);
  const std::uint64_t now = SteadyNowNanos();
  return now > epoch ? now - epoch : 0;
}

TraceEvent MakeEvent(TraceEventType type, const char* category,
                     const char* name) {
  TraceEvent event;
  event.type = type;
  event.category = category;
  event.name = name;
  event.ts_nanos = SessionNanos();
  return event;
}

}  // namespace

namespace internal {

std::atomic<bool> g_trace_armed{false};

void EmitBegin(const char* category, const char* name) {
  LocalSink().trace.Append(MakeEvent(TraceEventType::kBegin, category, name));
}

void EmitEnd(const char* category, const char* name,
             const char* const* arg_names, const std::uint64_t* arg_values,
             int num_args) {
  TraceEvent event = MakeEvent(TraceEventType::kEnd, category, name);
  if (num_args > kMaxTraceArgs) num_args = kMaxTraceArgs;
  event.num_args = static_cast<std::uint8_t>(num_args);
  for (int i = 0; i < num_args; ++i) {
    event.arg_names[i] = arg_names[i];
    event.arg_values[i] = arg_values[i];
  }
  LocalSink().trace.Append(event);
}

}  // namespace internal

void StartTracing(const TraceOptions& options) {
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.trace_options = options;
  if (registry.trace_options.buffer_events < 8) {
    registry.trace_options.buffer_events = 8;
  }
  registry.retired_trace.clear();
  registry.provenance.clear();
  for (internal::ThreadSink* sink : registry.live) {
    sink->trace.Arm(registry.trace_options.buffer_events);
  }
  g_epoch_nanos.store(SteadyNowNanos(), std::memory_order_relaxed);
  internal::g_trace_armed.store(true, std::memory_order_release);
}

void StopTracing() {
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  internal::g_trace_armed.store(false, std::memory_order_release);
  registry.retired_trace.clear();
  registry.provenance.clear();
  for (internal::ThreadSink* sink : registry.live) sink->trace.Disarm();
}

bool TraceActive() { return internal::TraceArmed(); }

TraceCollection CollectTrace() {
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  TraceCollection collection;
  collection.threads = registry.retired_trace;
  for (const internal::ThreadSink* sink : registry.live) {
    if (sink->trace.written() > 0 || !sink->trace_name.empty()) {
      collection.threads.push_back(sink->LinearizeTrace());
    }
  }
  std::sort(collection.threads.begin(), collection.threads.end(),
            [](const TraceThread& a, const TraceThread& b) {
              return a.tid < b.tid;
            });
  collection.provenance = registry.provenance;
  return collection;
}

void SetTraceThreadName(const std::string& name) {
  if (!internal::TraceArmed()) return;
  internal::ThreadSink& sink = internal::LocalSink();
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  sink.trace_name = name;
}

void TraceInstant(const char* category, const char* name) {
  if (!internal::TraceArmed()) return;
  internal::LocalSink().trace.Append(
      MakeEvent(TraceEventType::kInstant, category, name));
}

void TraceInstant(const char* category, const char* name,
                  const char* arg_name, std::uint64_t arg_value) {
  if (!internal::TraceArmed()) return;
  TraceEvent event = MakeEvent(TraceEventType::kInstant, category, name);
  event.num_args = 1;
  event.arg_names[0] = arg_name;
  event.arg_values[0] = arg_value;
  internal::LocalSink().trace.Append(event);
}

void TraceCounter(const char* name, std::uint64_t value) {
  if (!internal::TraceArmed()) return;
  TraceEvent event = MakeEvent(TraceEventType::kCounter, "counters", name);
  event.num_args = 1;
  event.arg_names[0] = "value";
  event.arg_values[0] = value;
  internal::LocalSink().trace.Append(event);
}

void RecordTagProvenance(TagProvenance provenance) {
  if (!internal::TraceArmed()) return;
  internal::SinkRegistry& registry = internal::Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.provenance.push_back(std::move(provenance));
}

}  // namespace rfidclean::obs
