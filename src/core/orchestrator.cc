#include "core/orchestrator.h"

#include <stdexcept>

#include "core/orch_baselines.h"

namespace accelflow::core {

std::unique_ptr<Orchestrator> make_orchestrator(
    OrchKind kind, Machine& machine, const TraceLibrary& lib,
    const EngineConfig& engine_overrides) {
  auto engine = [&](bool branches, bool transforms,
                    bool zero) -> std::unique_ptr<Orchestrator> {
    EngineConfig cfg = engine_overrides;
    cfg.dispatcher_branches = branches;
    cfg.dispatcher_transforms = transforms;
    cfg.zero_overhead = zero;
    return std::make_unique<AccelFlowEngine>(machine, lib, cfg,
                                             name_of(kind));
  };
  switch (kind) {
    case OrchKind::kNonAcc:
      return std::make_unique<BaselineOrchestrator>(
          BaselineMode::kNonAcc, machine, lib, /*relief_central_queue=*/false);
    case OrchKind::kCpuCentric:
      return std::make_unique<BaselineOrchestrator>(
          BaselineMode::kCpuCentric, machine, lib, false);
    case OrchKind::kRelief:
      return std::make_unique<BaselineOrchestrator>(
          BaselineMode::kRelief, machine, lib, /*relief_central_queue=*/true);
    case OrchKind::kReliefPerTypeQ:
      return std::make_unique<BaselineOrchestrator>(
          BaselineMode::kRelief, machine, lib, /*relief_central_queue=*/false);
    case OrchKind::kCohort:
      return std::make_unique<BaselineOrchestrator>(
          BaselineMode::kCohort, machine, lib, false);
    // The AccelFlow family: the kind forces the Fig. 13/14 ablation flags.
    case OrchKind::kAccelFlowDirect:
      return engine(/*branches=*/false, /*transforms=*/false, /*zero=*/false);
    case OrchKind::kAccelFlowCntrFlow:
      return engine(true, false, false);
    case OrchKind::kAccelFlow:
      return engine(true, true, false);
    case OrchKind::kIdeal:
      return engine(true, true, true);
  }
  throw std::invalid_argument("unknown orchestrator kind");
}

}  // namespace accelflow::core
