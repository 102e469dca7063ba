// Small string helpers shared across sash libraries. Kept deliberately tiny;
// anything with real semantics (shell word splitting, glob matching) lives in
// the module that owns those semantics.
#ifndef SASH_UTIL_STRINGS_H_
#define SASH_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sash {

// Splits `s` on `sep`, keeping empty fields ("a::b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

// Splits `s` into lines; a trailing newline does not produce an empty line.
std::vector<std::string> SplitLines(std::string_view s);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Whitespace trimming (space, tab, newline, carriage return).
std::string_view TrimLeft(std::string_view s);
std::string_view TrimRight(std::string_view s);
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool Contains(std::string_view s, std::string_view needle);

// Escapes a string for display inside single quotes in diagnostics: control
// characters become \xNN, backslash and quote are escaped.
std::string EscapeForDisplay(std::string_view s);

// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from, std::string_view to);

// ASCII-only lowercase conversion.
std::string AsciiLower(std::string_view s);

// Strict base-10 integer parsing for CLI flags and config values: an
// optional leading '-', then digits only — no whitespace, no trailing
// garbage, no empty input — with overflow checked against int64. Returns
// false (leaving *out untouched) on any violation, where atoi/atoll would
// silently return 0 or saturate.
bool ParseInt64(std::string_view s, int64_t* out);

// An `exit N` / `return N` operand as a shell status: N & 255 for an integer
// N >= 0 in ParseInt64's syntax. Returns false (leaving *status untouched)
// for anything else, where dash prints "Illegal number" and uses status 2.
bool ParseExitStatus(std::string_view s, int* status);

}  // namespace sash

#endif  // SASH_UTIL_STRINGS_H_
