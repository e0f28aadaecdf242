// Fuzz surface: the binary ct-graph blob readers (store/blob_layout.h and
// every CtGraph load funneling through it, at both verification tiers). The
// input is arbitrary bytes standing in for a mapped blob; every parse path
// must return a diagnostic Result, never crash, RFID_CHECK, or read out of
// bounds (run under asan+ubsan). On inputs that do parse, cross-path
// invariants are asserted: the verification tiers must be consistent with
// each other and a loaded graph must re-encode to the exact input bytes
// (the v1 encoding is canonical).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/check.h"
#include "store/blob_layout.h"
#include "store/graph_codec.h"

using rfidclean::store::MapVerify;
using rfidclean::store::SectionChecks;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace store = rfidclean::store;

  const auto all = store::ParseBlobContents(data, size, SectionChecks::kAll);
  const auto geometry =
      store::ParseBlobContents(data, size, SectionChecks::kGeometry);
  // kGeometry verifies a strict subset of what kAll verifies.
  if (all.ok()) RFID_CHECK(geometry.ok());

  const auto info = store::InspectCtGraphBlob(data, size);
  // Inspection checks header + table only; any fully parsed blob inspects.
  if (geometry.ok()) RFID_CHECK(info.ok());

  const auto structural =
      store::DecodeCtGraphBlob(data, size, MapVerify::kStructural);
  const auto full = store::DecodeCtGraphBlob(data, size, MapVerify::kFull);
  const auto owned = store::DecodeCtGraphBlob(
      std::string(reinterpret_cast<const char*>(data), size),
      MapVerify::kFull);
  // A structural load is exactly the geometry-tier parse; a full load only
  // adds checks on top of it.
  RFID_CHECK_EQ(structural.ok(), geometry.ok());
  if (full.ok()) RFID_CHECK(structural.ok());
  // A graph aliasing the input and one owning a copy of it run the same
  // checks over the same bytes; they must agree on validity and content.
  RFID_CHECK_EQ(full.ok(), owned.ok());
  if (full.ok()) {
    RFID_CHECK_EQ(full.value().Digest(), owned.value().Digest());
    RFID_CHECK_EQ(full.value().Digest(), structural.value().Digest());
    // Canonical encoding: load -> encode reproduces the input blob.
    const std::string reencoded = store::EncodeCtGraphBlob(
        full.value(), info.value().header.tag,
        store::GraphProvenance{info.value().header.input_digest,
                               info.value().header.constraint_digest});
    RFID_CHECK_EQ(reencoded.size(), size);
    RFID_CHECK(std::memcmp(reencoded.data(), data, size) == 0);
  }
  return 0;
}
