#ifndef ACCELFLOW_CORE_ORCHESTRATOR_H_
#define ACCELFLOW_CORE_ORCHESTRATOR_H_

#include <memory>
#include <string_view>

#include "core/chain.h"
#include "core/engine.h"
#include "core/machine.h"
#include "core/trace_library.h"

/**
 * @file
 * The architecture roster of Section VI: Non-acc, CPU-Centric, RELIEF,
 * Cohort, AccelFlow, plus the Figure-13 ablation rungs and the Figure-14
 * Ideal system. All of them implement the Orchestrator interface
 * (core/chain.h) and execute the same logical chains on the same Machine;
 * only the coordination mechanism (and hence where time is spent) differs.
 */

namespace accelflow::core {

/** The architectures and ablations evaluated in the paper. */
enum class OrchKind : std::uint8_t {
  kNonAcc = 0,        ///< No accelerators: tax runs on cores.
  kCpuCentric,        ///< Cores invoke accelerators one at a time.
  kRelief,            ///< Centralized HW manager, single central queue.
  kReliefPerTypeQ,    ///< Fig. 13: + a queue per accelerator type.
  kCohort,            ///< Static pair chaining, cores otherwise.
  kAccelFlowDirect,   ///< Fig. 13: traces + direct transfer; manager
                      ///< resolves branches and transforms.
  kAccelFlowCntrFlow, ///< Fig. 13: + branches in the dispatchers.
  kAccelFlow,         ///< Full system.
  kIdeal,             ///< Fig. 14: direct communication, zero glue.
};

inline constexpr std::size_t kNumOrchKinds = 9;

constexpr std::string_view name_of(OrchKind k) {
  constexpr std::string_view kNames[kNumOrchKinds] = {
      "Non-acc",  "CPU-Centric", "RELIEF",   "PerAccTypeQ", "Cohort",
      "Direct",   "CntrFlow",    "AccelFlow", "Ideal"};
  return kNames[static_cast<std::size_t>(k)];
}

/**
 * Builds an orchestrator of the given kind driving `machine`.
 *
 * @param engine_overrides applied to AccelFlow-family kinds (the ablation
 *        flags themselves are forced by the kind).
 */
std::unique_ptr<Orchestrator> make_orchestrator(
    OrchKind kind, Machine& machine, const TraceLibrary& lib,
    const EngineConfig& engine_overrides = {});

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_ORCHESTRATOR_H_
