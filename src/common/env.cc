#include "common/env.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace sqlclass {

namespace {

/// The variable's value, or null when unset or empty.
const char* EnvValue(const char* name) {
  const char* env = std::getenv(name);
  return env == nullptr || env[0] == '\0' ? nullptr : env;
}

}  // namespace

bool EnvFlag(const char* name, bool configured) {
  const char* env = EnvValue(name);
  if (env == nullptr) return configured;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "false") == 0 ||
           std::strcmp(env, "off") == 0);
}

std::optional<int64_t> EnvInt(const char* name) {
  const char* env = EnvValue(name);
  if (env == nullptr) return std::nullopt;
  char* end = nullptr;
  const long long parsed = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0') return std::nullopt;
  return static_cast<int64_t>(parsed);
}

std::optional<double> EnvDouble(const char* name) {
  const char* env = EnvValue(name);
  if (env == nullptr) return std::nullopt;
  char* end = nullptr;
  const double parsed = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(parsed)) {
    return std::nullopt;
  }
  return parsed;
}

}  // namespace sqlclass
