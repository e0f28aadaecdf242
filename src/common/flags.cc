#include "common/flags.h"

#include "common/check.h"
#include "common/strings.h"

namespace rfidclean {

namespace {

/// Whether `text` is a valid value of a numeric flag of kind `kind`.
bool IsValidNumber(FlagSpec::Kind kind, const std::string& text) {
  std::int64_t value = 0;
  int narrow = 0;
  if (kind == FlagSpec::kInt64) return ParseNumber(text, &value);
  if (!ParseNumber(text, &narrow)) return false;
  if (kind == FlagSpec::kPositiveInt) return narrow >= 1;
  return kind != FlagSpec::kNonNegativeInt || narrow >= 0;
}

}  // namespace

Result<Flags> Flags::Parse(const std::vector<FlagSpec>& specs, int argc,
                           const char* const* argv) {
  Flags flags;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      flags.help_ = true;
      continue;
    }
    if (!arg.starts_with("--")) {
      return InvalidArgumentError(
          StrFormat("unexpected argument '%s'", argv[i]));
    }
    const std::size_t equals = arg.find('=');
    const std::string name(arg.substr(2, equals - 2));
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& declared : specs) {
      if (name == declared.name) spec = &declared;
    }
    if (spec == nullptr) return InvalidArgumentError("unknown flag --" + name);
    const bool valued =
        spec->kind != FlagSpec::kSwitch && spec->kind != FlagSpec::kOptional;
    std::optional<std::string> value;
    if (equals != std::string_view::npos) {
      value.emplace(arg.substr(equals + 1));
    } else if (spec->kind != FlagSpec::kSwitch && i + 1 < argc &&
               !std::string_view(argv[i + 1]).starts_with("--")) {
      value.emplace(argv[++i]);
    }
    if (spec->kind == FlagSpec::kSwitch && value.has_value()) {
      return InvalidArgumentError("--" + name + " takes no value");
    }
    if (valued && !value.has_value()) {
      return InvalidArgumentError("missing value for --" + name);
    }
    if (valued && spec->kind != FlagSpec::kText &&
        !IsValidNumber(spec->kind, *value)) {
      const char* what = spec->kind == FlagSpec::kPositiveInt ? "a positive"
                         : spec->kind == FlagSpec::kNonNegativeInt
                             ? "a non-negative"
                             : "an";
      return InvalidArgumentError("--" + name + " must be " + what +
                                  " integer");
    }
    flags.given_.insert_or_assign(name, std::move(value));
  }
  return flags;
}

std::string Flags::Get(std::string_view name, std::string fallback) const {
  const auto it = given_.find(name);
  if (it == given_.end() || !it->second.has_value()) return fallback;
  return *it->second;
}

std::int64_t Flags::GetInt64(std::string_view name,
                             std::int64_t fallback) const {
  const auto it = given_.find(name);
  if (it == given_.end()) return fallback;
  std::int64_t value = 0;
  RFID_CHECK(ParseNumber(*it->second, &value));  // validated by Parse
  return value;
}

}  // namespace rfidclean
