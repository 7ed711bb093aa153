#include "support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include "support/error.hpp"

namespace mamps {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::uint64_t parseU64(std::string_view s) {
  s = trim(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty()) {
    throw ParseError("not an unsigned integer: '" + std::string(s) + "'");
  }
  return value;
}

std::uint32_t parseU32(std::string_view s) {
  const std::uint64_t value = parseU64(s);
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw ParseError("unsigned integer exceeds 32 bits: '" + std::string(trim(s)) + "'");
  }
  return static_cast<std::uint32_t>(value);
}

std::int64_t parseI64(std::string_view s) {
  s = trim(s);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty()) {
    throw ParseError("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list argsCopy;
  va_copy(argsCopy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, argsCopy);
  }
  va_end(argsCopy);
  return out;
}

std::string sanitizeIdentifier(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front())) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace mamps
