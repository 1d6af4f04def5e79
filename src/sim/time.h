#ifndef ACCELFLOW_SIM_TIME_H_
#define ACCELFLOW_SIM_TIME_H_

#include <cstdint>
#include <string>

/**
 * @file
 * Simulated-time primitives.
 *
 * All simulation time is kept as unsigned 64-bit picoseconds so every model
 * is bit-deterministic and immune to floating-point drift. 2^64 ps is about
 * 213 days of simulated time, far beyond any experiment in this repo.
 */

/** Root namespace of the AccelFlow reproduction. */
namespace accelflow {
/** Deterministic discrete-event simulation kernel and its primitives. */
namespace sim {

/** Simulated time or duration, in picoseconds. */
using TimePs = std::uint64_t;

/** Sentinel for "no deadline / never". */
inline constexpr TimePs kTimeNever = ~TimePs{0};

/** Picoseconds per nanosecond. */
inline constexpr TimePs kPsPerNs = 1'000;
/** Picoseconds per microsecond. */
inline constexpr TimePs kPsPerUs = 1'000'000;
/** Picoseconds per millisecond. */
inline constexpr TimePs kPsPerMs = 1'000'000'000;
/** Picoseconds per second. */
inline constexpr TimePs kPsPerSec = 1'000'000'000'000;

/** Builds a duration from nanoseconds. */
constexpr TimePs nanoseconds(double ns) {
  return static_cast<TimePs>(ns * static_cast<double>(kPsPerNs));
}

/** Builds a duration from microseconds. */
constexpr TimePs microseconds(double us) {
  return static_cast<TimePs>(us * static_cast<double>(kPsPerUs));
}

/** Builds a duration from milliseconds. */
constexpr TimePs milliseconds(double ms) {
  return static_cast<TimePs>(ms * static_cast<double>(kPsPerMs));
}

/** Builds a duration from seconds. */
constexpr TimePs seconds(double s) {
  return static_cast<TimePs>(s * static_cast<double>(kPsPerSec));
}

/** Converts a duration to (fractional) nanoseconds. */
constexpr double to_nanoseconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerNs);
}

/** Converts a duration to (fractional) microseconds. */
constexpr double to_microseconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerUs);
}

/** Converts a duration to (fractional) milliseconds. */
constexpr double to_milliseconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerMs);
}

/** Converts a duration to (fractional) seconds. */
constexpr double to_seconds(TimePs t) {
  return static_cast<double>(t) / static_cast<double>(kPsPerSec);
}

/**
 * A frequency domain: converts between clock cycles and picoseconds.
 *
 * Cycles are accepted as doubles because derived quantities (e.g. an
 * accelerator running a CPU-measured computation at `cycles / speedup`) are
 * naturally fractional; the conversion to TimePs rounds to the nearest
 * picosecond.
 */
class Clock {
 public:
  /** Creates a clock running at `ghz` gigahertz. */
  constexpr explicit Clock(double ghz = 1.0) : ghz_(ghz) {}

  /** Duration of one clock period. */
  constexpr TimePs period() const { return cycles_to_ps(1.0); }

  /** Converts a cycle count to picoseconds (rounded to nearest). */
  constexpr TimePs cycles_to_ps(double cycles) const {
    return static_cast<TimePs>(cycles * 1000.0 / ghz_ + 0.5);
  }

  /** Converts a duration to a fractional cycle count. */
  constexpr double ps_to_cycles(TimePs t) const {
    return static_cast<double>(t) * ghz_ / 1000.0;
  }

 private:
  double ghz_;
};

/** Formats a duration with an auto-selected unit, e.g. "12.34us". */
std::string format_time(TimePs t);

}  // namespace sim
}  // namespace accelflow

#endif  // ACCELFLOW_SIM_TIME_H_
