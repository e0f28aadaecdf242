#ifndef RFIDCLEAN_STORE_EXPLAIN_CODEC_H_
#define RFIDCLEAN_STORE_EXPLAIN_CODEC_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "obs/explain.h"

/// \file
/// Byte codec for one persisted explain summary (obs::ExplainTagSummary):
/// the per-constraint kill counts, mass splits, uncertainty-reduction
/// series, killed-candidate list and top-K killed edges of one cleaned
/// tag, serialized so `rfidclean explain --store` can answer attribution
/// queries on an already-cleaned store without re-running the clean.
///
/// Layout (little-endian throughout; authoritative spec in
/// docs/FORMATS.md):
///
///   [0, 8)   magic "RFCTEX01"
///   u32      version (1)
///   u32      reserved (0)
///   i64      tag
///   u64      mass_lost_backward_ppb
///   u64      mass_lost_compaction_ppb
///   f64      surviving_mass
///   f64      attributed_mass
///   u64[4]   phase_kills
///   {u64 kills, f64 mass}[7]   per-constraint totals
///   u64      killed_candidates_truncated
///   u32      status length, then that many status bytes
///   u32      tick count
///   u32      killed-candidate count
///   u32      top-edge count
///   per tick:       {i32 time, u32 candidates, u32 killed,
///                    f64 mass_lost, f64 alpha_delta}
///   per candidate:  {i32 time, i32 location, u32 phase, u32 constraint,
///                    f64 mass}
///   per top edge:   {i32 time, i32 from, i32 to, u32 phase,
///                    u32 constraint, f64 mass}
///   u32      CRC-32 of every preceding byte

namespace rfidclean::store {

/// Serializes one summary. The encoding is a pure function of the summary,
/// so identical cleans persist byte-identical blobs.
std::string EncodeExplainBlob(const obs::ExplainTagSummary& summary);

/// Parses and validates one explain blob: magic, version, trailing CRC,
/// enum ranges, exact byte consumption.
Result<obs::ExplainTagSummary> DecodeExplainBlob(const unsigned char* data,
                                                 std::size_t size);

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_EXPLAIN_CODEC_H_
