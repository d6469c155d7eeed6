//===- support/StringUtils.h - String formatting helpers --------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers used by diagnostics, the IR printer and the
/// benchmark tables: printf-style formatting into std::string,
/// human-readable number rendering, and JSON string escaping.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SUPPORT_STRINGUTILS_H
#define EFFECTIVE_SUPPORT_STRINGUTILS_H

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>

namespace effective {

/// printf into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list variant of formatString.
std::string formatStringV(const char *Fmt, va_list Args);

/// Renders 1234567 as "1,234,567".
std::string withThousandsSep(uint64_t Value);

/// Renders a byte count as "1.5 KB" / "3.2 MB" / ...
std::string formatBytes(uint64_t Bytes);

/// \p S with the characters a JSON string may not hold raw escaped
/// (quote, backslash, newline and tab by name, other controls as \uXXXX).
std::string jsonEscape(std::string_view S);

/// Returns true if \p S starts with \p Prefix.
inline bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.substr(0, Prefix.size()) == Prefix;
}

} // namespace effective

#endif // EFFECTIVE_SUPPORT_STRINGUTILS_H
