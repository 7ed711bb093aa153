// Minimal leveled logging to stderr behind one global level filter
// (Warning by default). The flow reports through logWarning.
#pragma once

#include <string>

namespace mamps {

enum class LogLevel { Debug = 0, Info = 1, Warning = 2, Error = 3, Off = 4 };

/// Set the global minimum level that is actually printed.
void setLogLevel(LogLevel level);
[[nodiscard]] LogLevel logLevel();

/// Emit one log line to stderr when `level` passes the global filter.
void logMessage(LogLevel level, const std::string& message);

inline void logWarning(const std::string& message) { logMessage(LogLevel::Warning, message); }

}  // namespace mamps
