#include "io/readings_io.h"

#include <limits>
#include <map>
#include <string>
#include <unordered_set>

#include "common/check.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean {

namespace {

void WriteReaderSet(const ReaderSet& readers, std::ostream& os) {
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (i > 0) os << ' ';
    os << readers[i];
  }
}

/// Parses "<time>,<space-separated readers>" into `reading` (shared tail of
/// the single-tag and multi-tag row grammars).
Status ParseTimeAndReaders(std::string_view content, int line_number,
                           Reading* reading) {
  std::size_t comma = content.find(',');
  if (comma == std::string_view::npos) {
    return InvalidArgumentError(
        StrFormat("line %d: expected 'time,readers'", line_number));
  }
  long time = 0;
  if (!ParseNumber(StripWhitespace(content.substr(0, comma)), &time) ||
      time < 0) {
    return InvalidArgumentError(
        StrFormat("line %d: invalid timestamp", line_number));
  }
  // Range-check before narrowing: Timestamp is 32-bit while ParseNumber
  // accepts the full `long` range, so a value like 4294967296 would
  // otherwise truncate to 0 and silently misparse the row.
  if (time > static_cast<long>(std::numeric_limits<Timestamp>::max())) {
    return InvalidArgumentError(
        StrFormat("line %d: timestamp %ld out of range", line_number, time));
  }
  reading->time = static_cast<Timestamp>(time);
  for (const std::string& token : StrSplit(content.substr(comma + 1), ' ')) {
    std::string_view id_text = StripWhitespace(token);
    if (id_text.empty()) continue;
    long id = 0;
    if (!ParseNumber(id_text, &id) || id < 0) {
      return InvalidArgumentError(
          StrFormat("line %d: invalid reader id", line_number));
    }
    if (id > static_cast<long>(std::numeric_limits<ReaderId>::max())) {
      return InvalidArgumentError(
          StrFormat("line %d: reader id %ld out of range", line_number, id));
    }
    reading->readers.push_back(static_cast<ReaderId>(id));
  }
  return Status::Ok();
}

}  // namespace

void WriteReadingsCsv(const RSequence& sequence, std::ostream& os) {
  os << "time,readers\n";
  for (Timestamp t = 0; t < sequence.length(); ++t) {
    os << t << ',';
    WriteReaderSet(sequence.ReadersAt(t), os);
    os << '\n';
  }
}

Result<RSequence> ReadReadingsCsv(std::istream& is) {
  obs::PhaseTimer phase_timer(obs::Phase::kIoParse);
  obs::TraceSpan span("io", "io_parse_readings");
  std::string line;
  if (!std::getline(is, line) || StripWhitespace(line) != "time,readers") {
    obs::Add(obs::Counter::kIoRowsRejected);
    return InvalidArgumentError("missing 'time,readers' header");
  }
  std::vector<Reading> readings;
  std::unordered_set<Timestamp> seen_times;
  int line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    std::string_view content = StripWhitespace(line);
    if (content.empty()) continue;
    Reading reading;
    Status parsed = ParseTimeAndReaders(content, line_number, &reading);
    // Duplicates are also structurally invalid (RSequence::Create requires
    // exact 0..n-1 coverage), but detecting them here attaches the line
    // number of the offending row.
    if (parsed.ok() && !seen_times.insert(reading.time).second) {
      parsed = InvalidArgumentError(
          StrFormat("line %d: duplicate time %d", line_number,
                    static_cast<int>(reading.time)));
    }
    if (!parsed.ok()) {
      obs::Add(obs::Counter::kIoRowsRejected);
      return parsed;
    }
    obs::Add(obs::Counter::kIoRowsParsed);
    readings.push_back(std::move(reading));
  }
  span.AddArg("rows", readings.size());
  return RSequence::Create(std::move(readings));
}

void WriteMultiTagReadingsCsv(const std::vector<TagReadings>& tags,
                              std::ostream& os) {
  std::unordered_set<TagId> seen;
  os << kMultiTagReadingsHeader << '\n';
  for (const TagReadings& tag : tags) {
    RFID_CHECK(seen.insert(tag.tag).second);  // distinct tag ids
    for (Timestamp t = 0; t < tag.readings.length(); ++t) {
      os << tag.tag << ',' << t << ',';
      WriteReaderSet(tag.readings.ReadersAt(t), os);
      os << '\n';
    }
  }
}

Result<std::vector<TagReadings>> ReadMultiTagReadingsCsv(std::istream& is) {
  obs::PhaseTimer phase_timer(obs::Phase::kIoParse);
  obs::TraceSpan span("io", "io_parse_readings_multi");
  std::string line;
  if (!std::getline(is, line) ||
      StripWhitespace(line) != kMultiTagReadingsHeader) {
    obs::Add(obs::Counter::kIoRowsRejected);
    return InvalidArgumentError("missing 'tag,time,readers' header");
  }
  // std::map: tags come out sorted by id, independent of row order.
  struct TagRows {
    std::vector<Reading> readings;
    std::unordered_set<Timestamp> seen_times;
  };
  std::map<TagId, TagRows> by_tag;
  int line_number = 1;
  auto reject = [&](Status status) {
    obs::Add(obs::Counter::kIoRowsRejected);
    return status;
  };
  while (std::getline(is, line)) {
    ++line_number;
    std::string_view content = StripWhitespace(line);
    if (content.empty()) continue;
    std::size_t comma = content.find(',');
    if (comma == std::string_view::npos) {
      return reject(InvalidArgumentError(
          StrFormat("line %d: expected 'tag,time,readers'", line_number)));
    }
    long long tag = 0;
    if (!ParseNumber(StripWhitespace(content.substr(0, comma)), &tag) ||
        tag < 0) {
      return reject(InvalidArgumentError(
          StrFormat("line %d: invalid tag id", line_number)));
    }
    Reading reading;
    Status parsed = ParseTimeAndReaders(content.substr(comma + 1),
                                        line_number, &reading);
    if (!parsed.ok()) return reject(std::move(parsed));
    TagRows& rows = by_tag[static_cast<TagId>(tag)];
    if (!rows.seen_times.insert(reading.time).second) {
      return reject(InvalidArgumentError(
          StrFormat("line %d: duplicate time %d for tag %lld", line_number,
                    static_cast<int>(reading.time), tag)));
    }
    obs::Add(obs::Counter::kIoRowsParsed);
    rows.readings.push_back(std::move(reading));
  }
  if (by_tag.empty()) {
    return InvalidArgumentError("multi-tag readings file has no data rows");
  }
  span.AddArg("tags", by_tag.size());
  std::vector<TagReadings> tags;
  tags.reserve(by_tag.size());
  for (auto& [tag, rows] : by_tag) {
    // RSequence::Create enforces the per-tag 0..n-1 coverage, rejecting
    // gaps (duplicates were already rejected with their line number above);
    // prefix its message with the tag.
    Result<RSequence> sequence = RSequence::Create(std::move(rows.readings));
    if (!sequence.ok()) {
      return Status(sequence.status().code(),
                    StrFormat("tag %lld: %s", static_cast<long long>(tag),
                              sequence.status().message().c_str()));
    }
    tags.push_back(TagReadings{tag, std::move(sequence).value()});
  }
  return tags;
}

}  // namespace rfidclean
