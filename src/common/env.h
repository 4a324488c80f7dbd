#ifndef SQLCLASS_COMMON_ENV_H_
#define SQLCLASS_COMMON_ENV_H_

#include <cstdint>
#include <optional>

namespace sqlclass {

/// The one parser for SQLCLASS_* environment knobs. An unset or empty
/// variable always means "keep the configured value"; each Resolve* helper
/// applies its own range check and precedence on top of these.

/// "0", "false" and "off" read as false, any other value as true; unset or
/// empty returns `configured`.
bool EnvFlag(const char* name, bool configured);

/// The variable as a base-10 integer; nullopt when unset, empty, or not an
/// integer in full ("4x" is malformed, not 4).
std::optional<int64_t> EnvInt(const char* name);

/// The variable as a finite double; nullopt when unset, empty, or not a
/// number in full.
std::optional<double> EnvDouble(const char* name);

}  // namespace sqlclass

#endif  // SQLCLASS_COMMON_ENV_H_
