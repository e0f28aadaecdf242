#ifndef RFIDCLEAN_OBS_EXPLAIN_EXPORT_H_
#define RFIDCLEAN_OBS_EXPLAIN_EXPORT_H_

#include <ostream>

#include "obs/explain.h"

/// \file
/// Versioned JSON report for explain collections (obs/explain.h): session
/// totals (per-constraint kill counts and root-cause masses, per-phase kill
/// counts, ppb splits), the per-timestamp uncertainty-reduction timeline,
/// and one record per tag with its killed-candidate list and top-K killed
/// edges. Schema documented in docs/FORMATS.md ("explain report"). The
/// output is deterministic for a given input set and worker count
/// independent (cross-checked by the differential battery).

namespace rfidclean::obs {

/// Report schema version (the "explain_format_version" field).
inline constexpr int kExplainFormatVersion = 1;

/// Writes `collection` as one JSON object, indented by `indent` spaces.
/// Entries of the killed-candidate and top-edge arrays are one line each so
/// the report stays greppable (`rfidclean explain --report` relies on it).
void WriteExplainReport(const ExplainCollection& collection, std::ostream& os,
                        int indent = 0);

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_OBS_EXPLAIN_EXPORT_H_
