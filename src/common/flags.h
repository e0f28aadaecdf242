#ifndef RFIDCLEAN_COMMON_FLAGS_H_
#define RFIDCLEAN_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace rfidclean {

/// One flag a command accepts: bare `--name` (kSwitch), `--name V` or
/// `--name=V` (the others), or either (kOptional). A numeric value must be
/// an int (kInt64: std::int64_t) that ParseNumber reads, in the kind's range.
struct FlagSpec {
  enum Kind {
    kText, kSwitch, kOptional, kInt, kNonNegativeInt, kPositiveInt, kInt64
  };
  const char* name;  ///< without the leading "--"
  Kind kind;
};

/// A command line checked against the flags a command declares. A separate
/// value may not start with "--", `--help`/`-h` asks for help, and the last
/// of a repeated flag wins. An undeclared flag, a missing value, a switch
/// with one, a bad number or a positional argument fails Parse, naming it.
class Flags {
 public:
  static Result<Flags> Parse(const std::vector<FlagSpec>& specs, int argc,
                             const char* const* argv);

  bool help() const { return help_; }
  bool Has(std::string_view name) const { return given_.count(name) > 0; }
  /// The value given to `name`; `fallback` when it is absent or bare.
  std::string Get(std::string_view name, std::string fallback = "") const;
  /// The value of a numeric flag; `fallback` when it is absent.
  std::int64_t GetInt64(std::string_view name, std::int64_t fallback) const;
  int GetInt(std::string_view name, int fallback) const {
    return static_cast<int>(GetInt64(name, fallback));  // Parse checked it
  }

 private:
  bool help_ = false;
  std::map<std::string, std::optional<std::string>, std::less<>> given_;
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_COMMON_FLAGS_H_
