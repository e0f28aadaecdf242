#ifndef RFIDCLEAN_COMMON_STRINGS_H_
#define RFIDCLEAN_COMMON_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace rfidclean {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Splits `line` into its tokens: the maximal runs of characters other than
/// ' ' and '\t'. Empty tokens never appear.
std::vector<std::string> Tokenize(std::string_view line);

/// The one number parser: reads all of `text` as a base-10 integer ('-'
/// for signed types only) or a double via std::from_chars; whitespace, '+'
/// and trailing characters are malformed. Returns false for malformed or
/// out-of-range text and sets `*out_of_range` (if given) to whether it was
/// out of range. Doubles accept "inf"/"nan"; callers check std::isfinite.
template <typename T>
bool ParseNumber(std::string_view text, T* out, bool* out_of_range = nullptr) {
  const char* const end = text.data() + text.size();
  const std::from_chars_result parsed = std::from_chars(text.data(), end, *out);
  if (out_of_range != nullptr) {
    *out_of_range = parsed.ec == std::errc::result_out_of_range;
  }
  return parsed.ec == std::errc() && parsed.ptr == end;
}

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a byte count as "640.0 KiB", "25.1 MiB", ...
std::string HumanBytes(std::size_t bytes);

}  // namespace rfidclean

#endif  // RFIDCLEAN_COMMON_STRINGS_H_
