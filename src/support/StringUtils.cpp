//===- support/StringUtils.cpp - String formatting helpers ----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cstdio>

using namespace effective;

std::string effective::formatStringV(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Len <= 0)
    return std::string();
  std::string Result(static_cast<size_t>(Len), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  return Result;
}

std::string effective::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = formatStringV(Fmt, Args);
  va_end(Args);
  return Result;
}

std::string effective::withThousandsSep(uint64_t Value) {
  std::string Digits = std::to_string(Value);
  std::string Result;
  Result.reserve(Digits.size() + Digits.size() / 3);
  size_t Lead = Digits.size() % 3;
  if (Lead == 0)
    Lead = 3;
  for (size_t I = 0; I < Digits.size(); ++I) {
    if (I != 0 && (I - Lead) % 3 == 0 && I >= Lead)
      Result.push_back(',');
    Result.push_back(Digits[I]);
  }
  return Result;
}

std::string effective::formatBytes(uint64_t Bytes) {
  static const char *const Units[] = {"B", "KB", "MB", "GB", "TB"};
  double Value = static_cast<double>(Bytes);
  unsigned Unit = 0;
  while (Value >= 1024.0 && Unit < 4) {
    Value /= 1024.0;
    ++Unit;
  }
  if (Unit == 0)
    return formatString("%llu B", (unsigned long long)Bytes);
  return formatString("%.1f %s", Value, Units[Unit]);
}

std::string effective::jsonEscape(std::string_view S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.append(1, '\\').append(1, C);
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (static_cast<unsigned char>(C) < 0x20)
      Out += formatString("\\u%04x", static_cast<unsigned>(C));
    else
      Out += C;
  }
  return Out;
}
