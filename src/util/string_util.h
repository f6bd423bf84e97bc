// String helpers shared across the storage, hash, and workload layers.
// NormalizeValue defines the canonical cell-value form used both at indexing
// time and at query time, so equi-join semantics are consistent everywhere.
// Its two ASCII predicates, IsAsciiSpace and AsciiToLower, are the only
// definition of whitespace and case: Trim and ToLower use them too, and
// bytes >= 0x80 are never folded.

#ifndef MATE_UTIL_STRING_UTIL_H_
#define MATE_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace mate {

/// ASCII whitespace, the "C" locale's isspace set: ' ', \t, \n, \v, \f, \r.
inline constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') < 5;
}

/// Folds 'A'-'Z' to 'a'-'z'; every other byte is returned unchanged.
inline constexpr char AsciiToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// ASCII-lowercases a copy of `s`.
std::string ToLower(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
inline std::string_view Trim(std::string_view s) {
  // Most cells have nothing to strip: two byte tests decide.
  if (s.empty() || (!IsAsciiSpace(s.front()) && !IsAsciiSpace(s.back()))) {
    return s;
  }
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsAsciiSpace(s[begin])) ++begin;
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

/// Canonical form of a cell value for indexing and joining: trimmed and
/// ASCII-lowercased (the paper's corpora are case-folded the same way).
std::string NormalizeValue(std::string_view raw);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` consists only of ASCII digits (and is non-empty).
bool IsAllDigits(std::string_view s);

/// Strict parse of a small non-negative integer flag: digits only, no sign,
/// value <= `max`. Returns false (leaving *out untouched) on garbage,
/// overflow, or out-of-range input — never throws. Shared by the CLI and
/// bench flag parsers so validation policy cannot drift between them.
bool ParseSmallUint(std::string_view s, unsigned max, unsigned* out);

/// Printable "a|b|c" rendering of a composite key, used in examples/benches.
std::string FormatKeyCombo(const std::vector<std::string>& values);

}  // namespace mate

#endif  // MATE_UTIL_STRING_UTIL_H_
