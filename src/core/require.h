#ifndef ACCELFLOW_CORE_REQUIRE_H_
#define ACCELFLOW_CORE_REQUIRE_H_

#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

/**
 * @file
 * Named rejection of configuration values that would complete no request
 * or cast a NaN or infinite time into picoseconds (the Machine,
 * AccelFlowEngine and BaselineOrchestrator constructors).
 */

namespace accelflow::core {

/** Throws std::invalid_argument naming `field` unless `value` is > 0
 *  and, if floating-point, finite. */
template <typename Value>
void require_positive(Value value, const char* field) {
  bool ok = value > 0;
  if constexpr (std::is_floating_point_v<Value>) {
    ok = ok && std::isfinite(value);
  }
  if (!ok) {
    throw std::invalid_argument(std::string(field) +
                                " must be finite and > 0, got " +
                                std::to_string(value));
  }
}

/** The same where 0 is valid (a time meaning none, a count): finite
 *  and >= 0. */
inline void require_non_negative(double value, const char* field) {
  if (!(value >= 0.0 && std::isfinite(value))) {
    throw std::invalid_argument(std::string(field) +
                                " must be finite and >= 0, got " +
                                std::to_string(value));
  }
}

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_REQUIRE_H_
