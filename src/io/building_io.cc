#include "io/building_io.h"

#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean {

namespace {

// ParseNumber accepts "inf"/"nan" spellings; non-finite geometry would
// poison every downstream distance computation, so treat it as malformed
// input rather than a number.
bool ParseFinite(const std::string& text, double* out) {
  return ParseNumber(text, out) && std::isfinite(*out);
}

std::optional<LocationKind> ParseKind(const std::string& text) {
  if (text == "room") return LocationKind::kRoom;
  if (text == "corridor") return LocationKind::kCorridor;
  if (text == "stairwell") return LocationKind::kStairwell;
  return std::nullopt;
}

}  // namespace

void WriteBuilding(const Building& building, std::ostream& os) {
  const Rect& bounds = building.floor_bounds();
  os << StrFormat("building %d %g %g %g %g\n", building.num_floors(),
                  bounds.min.x, bounds.min.y, bounds.max.x, bounds.max.y);
  for (const Location& location : building.locations()) {
    os << StrFormat("location %s %s %d %g %g %g %g\n",
                    location.name.c_str(),
                    LocationKindToString(location.kind), location.floor,
                    location.footprint.min.x, location.footprint.min.y,
                    location.footprint.max.x, location.footprint.max.y);
  }
  for (const Door& door : building.doors()) {
    os << StrFormat("door %s %s %g %g %g\n",
                    building.location(door.a).name.c_str(),
                    building.location(door.b).name.c_str(), door.position.x,
                    door.position.y, door.width);
  }
  for (const StairEdge& stair : building.stairs()) {
    os << StrFormat("stairs %s %s %g\n",
                    building.location(stair.lower).name.c_str(),
                    building.location(stair.upper).name.c_str(),
                    stair.length);
  }
}

Result<Building> ReadBuilding(std::istream& is) {
  obs::PhaseTimer phase_timer(obs::Phase::kIoParse);
  obs::TraceSpan span("io", "io_parse_building");
  std::optional<BuildingBuilder> builder;
  std::unordered_map<std::string, LocationId> by_name;
  std::string line;
  int line_number = 0;
  auto error = [&line_number](const char* message) {
    obs::Add(obs::Counter::kIoRowsRejected);
    return InvalidArgumentError(
        StrFormat("line %d: %s", line_number, message));
  };
  while (std::getline(is, line)) {
    ++line_number;
    std::string_view content = StripWhitespace(line);
    if (content.empty() || content[0] == '#') continue;
    std::vector<std::string> tokens = Tokenize(content);
    const std::string& kind = tokens[0];
    if (kind == "building") {
      if (builder.has_value()) return error("duplicate 'building' line");
      double coords[4];
      int floors = 0;
      if (tokens.size() != 6 || !ParseNumber(tokens[1], &floors) ||
          !ParseFinite(tokens[2], &coords[0]) ||
          !ParseFinite(tokens[3], &coords[1]) ||
          !ParseFinite(tokens[4], &coords[2]) ||
          !ParseFinite(tokens[5], &coords[3]) || floors < 1) {
        return error("expected 'building <floors> <minx> <miny> <maxx> <maxy>'");
      }
      builder.emplace(
          Rect{{coords[0], coords[1]}, {coords[2], coords[3]}});
    } else if (kind == "location") {
      if (!builder.has_value()) return error("'location' before 'building'");
      double coords[4];
      int floor = 0;
      if (tokens.size() != 8 || !ParseNumber(tokens[3], &floor) ||
          !ParseFinite(tokens[4], &coords[0]) ||
          !ParseFinite(tokens[5], &coords[1]) ||
          !ParseFinite(tokens[6], &coords[2]) ||
          !ParseFinite(tokens[7], &coords[3])) {
        return error(
            "expected 'location <name> <kind> <floor> <minx> <miny> <maxx> "
            "<maxy>'");
      }
      std::optional<LocationKind> location_kind = ParseKind(tokens[2]);
      if (!location_kind.has_value()) return error("unknown location kind");
      if (by_name.count(tokens[1]) > 0) return error("duplicate location");
      LocationId id = builder->AddLocation(
          tokens[1], *location_kind, floor,
          Rect{{coords[0], coords[1]}, {coords[2], coords[3]}});
      by_name.emplace(tokens[1], id);
    } else if (kind == "door") {
      if (!builder.has_value()) return error("'door' before 'building'");
      double x = 0.0, y = 0.0, width = 0.0;
      if (tokens.size() != 6 || !ParseFinite(tokens[3], &x) ||
          !ParseFinite(tokens[4], &y) || !ParseFinite(tokens[5], &width)) {
        return error("expected 'door <a> <b> <x> <y> <width>'");
      }
      auto a = by_name.find(tokens[1]);
      auto b = by_name.find(tokens[2]);
      if (a == by_name.end() || b == by_name.end()) {
        return error("door references unknown location");
      }
      builder->AddDoor(a->second, b->second, {x, y}, width);
    } else if (kind == "stairs") {
      if (!builder.has_value()) return error("'stairs' before 'building'");
      double length = 0.0;
      if (tokens.size() != 4 || !ParseFinite(tokens[3], &length)) {
        return error("expected 'stairs <lower> <upper> <length>'");
      }
      auto lower = by_name.find(tokens[1]);
      auto upper = by_name.find(tokens[2]);
      if (lower == by_name.end() || upper == by_name.end()) {
        return error("stairs reference unknown location");
      }
      builder->AddStairs(lower->second, upper->second, length);
    } else {
      return error("unknown directive");
    }
    obs::Add(obs::Counter::kIoRowsParsed);
  }
  if (!builder.has_value()) {
    return InvalidArgumentError("no 'building' line found");
  }
  span.AddArg("rows", static_cast<std::uint64_t>(line_number));
  return builder->Build();
}

}  // namespace rfidclean
