// Small string utilities shared across the flow.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mamps {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Split on a separator character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// True when `s` starts with `prefix`.
[[nodiscard]] bool startsWith(std::string_view s, std::string_view prefix);

/// Parse a non-negative integer; throws mamps::ParseError on junk.
[[nodiscard]] std::uint64_t parseU64(std::string_view s);

/// Parse a non-negative integer that fits 32 bits; throws
/// mamps::ParseError on junk and on values above UINT32_MAX (which a
/// narrowing cast would silently wrap).
[[nodiscard]] std::uint32_t parseU32(std::string_view s);

/// Parse a signed integer; throws mamps::ParseError on junk.
[[nodiscard]] std::int64_t parseI64(std::string_view s);

/// Parse a double; throws mamps::ParseError on junk.
[[nodiscard]] double parseDouble(std::string_view s);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// A valid C identifier derived from an arbitrary name (for codegen).
[[nodiscard]] std::string sanitizeIdentifier(std::string_view name);

}  // namespace mamps
