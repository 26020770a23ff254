// Environment-variable overrides for bench/example scale knobs.

#ifndef SPES_COMMON_ENV_H_
#define SPES_COMMON_ENV_H_

#include <cstdint>

namespace spes {

/// \brief Reads an integer environment variable, or `fallback` when unset
/// or unparsable.
int64_t GetEnvInt(const char* name, int64_t fallback);

}  // namespace spes

#endif  // SPES_COMMON_ENV_H_
