#include "query/pattern.h"

#include <limits>

#include "common/strings.h"

namespace rfidclean {

Result<Pattern> Pattern::Parse(std::string_view text,
                               const NameResolver& resolver) {
  std::vector<PatternItem> items;
  for (const std::string& token : Tokenize(text)) {
    if (token == "?") {
      items.push_back(PatternItem::Wildcard());
      continue;
    }
    std::string_view name = token;
    Timestamp min_duration = 1;
    std::size_t bracket = token.find('[');
    if (bracket != std::string::npos) {
      if (token.back() != ']' || bracket + 2 > token.size()) {
        return InvalidArgumentError(
            StrFormat("malformed condition '%s'", token.c_str()));
      }
      name = name.substr(0, bracket);
      // Out-of-range counts are rejected instead of wrapping through a
      // silent narrowing cast (strtol used to saturate at LONG_MAX
      // unnoticed and then truncate to 32 bits).
      long long value = 0;
      bool out_of_range = false;
      const bool parsed = ParseNumber(
          std::string_view(token).substr(bracket + 1,
                                         token.size() - bracket - 2),
          &value, &out_of_range);
      if (out_of_range ||
          (parsed && value > static_cast<long long>(
                                 std::numeric_limits<Timestamp>::max()))) {
        return InvalidArgumentError(
            StrFormat("duration out of range in '%s'", token.c_str()));
      }
      if (!parsed || value < 1) {
        return InvalidArgumentError(
            StrFormat("invalid duration in '%s'", token.c_str()));
      }
      min_duration = static_cast<Timestamp>(value);
    }
    LocationId location = resolver(name);
    if (location == kInvalidLocation) {
      return NotFoundError(StrFormat("unknown location '%.*s'",
                                     static_cast<int>(name.size()),
                                     name.data()));
    }
    items.push_back(PatternItem::Condition(location, min_duration));
  }
  if (items.empty()) {
    return InvalidArgumentError("empty pattern");
  }
  return Pattern(std::move(items));
}

Result<Pattern> Pattern::Parse(std::string_view text,
                               const Building& building) {
  return Parse(text, [&building](std::string_view name) {
    return building.FindLocationByName(name);
  });
}

std::size_t Pattern::NumConditions() const {
  std::size_t count = 0;
  for (const PatternItem& item : items_) {
    if (!item.wildcard) ++count;
  }
  return count;
}

std::string Pattern::ToString() const {
  std::string out;
  for (const PatternItem& item : items_) {
    if (!out.empty()) out += ' ';
    if (item.wildcard) {
      out += '?';
    } else if (item.min_duration > 1) {
      out += StrFormat("L%d[%d]", item.location, item.min_duration);
    } else {
      out += StrFormat("L%d", item.location);
    }
  }
  return out;
}

}  // namespace rfidclean
