#ifndef ACCELFLOW_CORE_CHAIN_PROGRAM_H_
#define ACCELFLOW_CORE_CHAIN_PROGRAM_H_

namespace accelflow::core {

/** Always false: this header remains only so perfbench/ builds. */
constexpr bool af_compile_enabled() { return false; }

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_CHAIN_PROGRAM_H_
