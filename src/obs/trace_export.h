#ifndef RFIDCLEAN_OBS_TRACE_EXPORT_H_
#define RFIDCLEAN_OBS_TRACE_EXPORT_H_

#include <ostream>
#include <vector>

#include "obs/trace.h"

/// \file
/// Chrome trace-event JSON export for trace collections (obs/trace.h).
/// The output is the JSON-object flavor of the trace-event format — a
/// `traceEvents` array plus metadata — and loads directly in Perfetto
/// (ui.perfetto.dev) and chrome://tracing. Schema documented in
/// docs/FORMATS.md.

namespace rfidclean::obs {

/// Serializes `provenance` as a JSON array of per-tag records (digests as
/// 16-digit hex strings, durations as milliseconds). Each line is indented
/// by `indent` spaces.
void WriteProvenanceJson(const std::vector<TagProvenance>& provenance,
                         std::ostream& os, int indent);

/// Writes `collection` as Chrome trace-event JSON: thread-name metadata
/// events, then every buffered event with pid/tid/ts (microseconds since
/// the session epoch)/cat/args, then `otherData` (tool, dropped-event
/// total) and the per-tag `provenance` array.
void WriteChromeTrace(const TraceCollection& collection, std::ostream& os);

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_OBS_TRACE_EXPORT_H_
