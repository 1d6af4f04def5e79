#ifndef ACCELFLOW_CORE_MACHINE_H_
#define ACCELFLOW_CORE_MACHINE_H_

#include <array>
#include <memory>
#include <string_view>

#include "accel/accelerator.h"
#include "accel/dma.h"
#include "core/atm.h"
#include "core/trace_library.h"
#include "cpu/core_cluster.h"
#include "mem/iommu.h"
#include "mem/memory_system.h"
#include "noc/interconnect.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/server.h"
#include "sim/simulator.h"

/**
 * @file
 * Composition of the full modeled server (Section VI, Table III): 36
 * Sunny-Cove-like cores plus the nine-accelerator ensemble, spread over a
 * configurable number of chiplets (Figure 6, Section VII-C.1), with shared
 * memory system, IOMMU, package interconnect, A-DMA pool, ATM, and the
 * centralized hardware manager used by the RELIEF baseline.
 */

namespace accelflow::core {

class ValidationHooks;

/** Modeled processor generations (Section VII-C.4). */
enum class Generation : std::uint8_t {
  kHaswell = 0,
  kSkylake,
  kIceLake,  ///< The baseline configuration.
  kSapphireRapids,
  kEmeraldRapids,
};

inline constexpr std::size_t kNumGenerations = 5;

constexpr std::string_view name_of(Generation g) {
  constexpr std::string_view kNames[kNumGenerations] = {
      "Haswell", "Skylake", "IceLake", "SapphireRapids", "EmeraldRapids"};
  return kNames[static_cast<std::size_t>(g)];
}

/**
 * Single-thread speed of each generation relative to Ice Lake for the
 * *application logic*. Datacenter-tax code is memory/IO-bound and benefits
 * far less from wider cores (the paper's Section VII-C.4 observation); its
 * scaling is compressed toward 1.
 */
constexpr double app_speed_of(Generation g) {
  constexpr double kSpeed[kNumGenerations] = {0.68, 0.82, 1.0, 1.14, 1.22};
  return kSpeed[static_cast<std::size_t>(g)];
}

constexpr double tax_speed_of(Generation g) {
  constexpr double kSpeed[kNumGenerations] = {0.88, 0.94, 1.0, 1.04, 1.06};
  return kSpeed[static_cast<std::size_t>(g)];
}

/** Full machine configuration; defaults reproduce Table III. */
struct MachineConfig {
  cpu::CpuParams cpu;
  mem::MemParams mem;
  mem::WalkParams walk;
  accel::DmaParams dma;

  int pes_per_accel = 8;
  std::size_t accel_queue_entries = 64;
  std::size_t overflow_capacity = 64;
  double speedup_scale = 1.0;  ///< Section VII-C.5 sensitivity.
  accel::SchedPolicy policy = accel::SchedPolicy::kFifo;
  /** Input-queue slots per accelerator held back from priority-0 entries
   *  (QoS headroom, DESIGN.md §19). 0 = off. */
  std::size_t reserved_input_slots = 0;
  /** Priority-aging quantum in µs under SchedPolicy::kPriority
   *  (DESIGN.md §19); 0 = aging off. */
  double sched_aging_quantum_us = 0.0;

  /** Package organization: 1, 2 (default), 3, 4 or 6 chiplets. */
  int num_chiplets = 2;
  double inter_chiplet_cycles = 60.0;  ///< Section VII-C.2 sensitivity.
  double inter_chiplet_gbps = 8.0;

  double atm_read_cycles = 20.0;
  /** RELIEF hardware-manager occupancy per completion event (Section VII-A:
   *  "the time for the orchestrator to get interrupted plus to process the
   *  information is ~1.5us"). */
  double manager_event_us = 1.5;
  /** Cheaper manager action for issuing (not completing) an operation. */
  double manager_dispatch_us = 0.3;
  /**
   * Concurrent scheduling contexts in the hardware manager. RELIEF's
   * scheduler tracks many in-flight chains; modeling it as fully serial
   * would saturate at a fraction of the loads the paper reports for it,
   * so the manager is a small pool of parallel FSMs that still becomes
   * the bottleneck at high load (Section VII-A's analysis).
   */
  int manager_contexts = 13;
  /**
   * In-flight operations admitted through RELIEF's centralized queue.
   * RELIEF's scheduler bounds in-flight data to relieve memory pressure;
   * with fine-grained (KB) payloads the 64-entry queue is the bound, but
   * coarse-grained suites (Fig. 15) are bounded by staging capacity in
   * frames.
   */
  int relief_inflight_cap = 64;

  std::uint64_t seed = 0xACCE1F10;

  /** Applies a processor generation's scaling factors. */
  void apply_generation(Generation g) {
    cpu.app_speed = app_speed_of(g);
    cpu.tax_speed = tax_speed_of(g);
  }
};

/** Chiplet index hosting each accelerator for a given organization. */
std::array<int, accel::kNumAccelTypes> accel_chiplet_assignment(
    int num_chiplets);

/** The composed server. */
class Machine {
 public:
  /** Throws std::invalid_argument naming the field unless every count
   *  (PEs per accelerator, queue entries, cores, DMA engines) is > 0 and
   *  every rate (speedup scale, link bandwidth, CPU clock, tax and app
   *  speeds) is finite and > 0, or when config.num_chiplets names no
   *  supported organization. */
  explicit Machine(const MachineConfig& config);

  sim::Simulator& sim() { return sim_; }
  cpu::CoreCluster& cores() { return *cores_; }
  mem::MemorySystem& memory() { return *mem_; }
  mem::Iommu& iommu() { return *iommu_; }
  noc::Interconnect& net() { return *net_; }
  accel::DmaPool& dma() { return *dma_; }
  Atm& atm() { return *atm_; }
  sim::FifoServer& manager() { return *manager_; }

  accel::Accelerator& accel(accel::AccelType t) {
    return *accels_[accel::index_of(t)];
  }
  const accel::Accelerator& accel(accel::AccelType t) const {
    return *accels_[accel::index_of(t)];
  }

  noc::Location core_location(int core) const;
  noc::Location manager_location() const { return manager_loc_; }

  const MachineConfig& config() const { return s_.config; }

  /** Installs every trace of `lib` into the ATM. */
  void load_traces(const TraceLibrary& lib);

  /** Installs `handler` as the output handler of all nine accelerators. */
  void install_output_handler(accel::OutputHandler* handler);

  /**
   * Attaches (or, with nullptr, detaches) the span tracer to every
   * instrumented component — accelerators (PEs, queues, dispatcher FSMs,
   * TLBs), the A-DMA pool, the interconnect and the IOMMU — and registers
   * human-readable Perfetto track names ("TCP.pe0", "dma3", "tlb.RPC").
   * The machine does not own the tracer; it must outlive the run.
   */
  void set_tracer(obs::Tracer* tracer);

  /** The attached tracer, or nullptr when tracing is off. */
  obs::Tracer* tracer() const { return tracer_; }

  /**
   * Attaches (nullptr: detaches) the validation-hook observer that the
   * orchestrators report chain progress to (see core/validation_hooks.h).
   * Like the tracer, the checker is not owned, must outlive the run, and
   * never perturbs scheduling — a checked run is bit-identical to an
   * unchecked one.
   */
  void set_checker(ValidationHooks* checker) { checker_ = checker; }

  /** The attached checker, or nullptr when validation is off. */
  ValidationHooks* checker() const { return checker_; }

  /**
   * Attaches (nullptr: detaches) the fault-injection sink to every
   * fault-capable component: the nine accelerators (keyed by ensemble
   * index), the A-DMA pool, the interconnect, and the IOMMU — see
   * DESIGN.md §14. The machine does not own the sink; it must outlive
   * the run. Unlike the tracer/checker, an attached sink perturbs
   * simulated time, so it is part of the deterministic run state
   * (workload::SweepSession checkpoints its injector with the fork).
   */
  void set_fault_hooks(sim::FaultHooks* hooks);

  /** The attached fault sink, or nullptr for a fault-free run. The
   *  orchestrator arms its hop watchdogs only when this is non-null. */
  sim::FaultHooks* fault_hooks() const { return fault_hooks_; }

  /**
   * Exports the hardware-side counters under the conventional dotted
   * names ("accel.tcp.jobs", "noc.hops", "mem.tlb.miss_rate", ...) —
   * see OBSERVABILITY.md for the full taxonomy. Orchestration-level
   * metrics are added separately by the engine.
   */
  void snapshot_metrics(obs::MetricsRegistry& reg) const;

  // --- Checkpoint / fork (DESIGN.md §13) --------------------------------

  /** The machine's own state: the knobs at capture time, copied whole
   *  by checkpoint() (divergence knobs below edit them). */
  struct State {
    MachineConfig config;
  };

  /**
   * Copy of the machine's full deterministic state at quiescence: State
   * plus the kernel scalars and every hardware component's Checkpoint.
   * Captured once after a shared warmup and restored per sweep point by
   * workload::SweepSession; restorable any number of times.
   */
  struct Checkpoint : State {
    sim::Simulator::Checkpoint kernel;          ///< Clock, stamps, counters.
    mem::MemorySystem::Checkpoint mem;          ///< LLC/DRAM channels.
    mem::Iommu::Checkpoint iommu;               ///< Walkers + fault RNG.
    noc::Interconnect::Checkpoint net;          ///< Meshes + links.
    accel::DmaPool::Checkpoint dma;             ///< A-DMA engines.
    cpu::CoreCluster::Checkpoint cores;         ///< Core occupancy.
    Atm::Checkpoint atm;                        ///< Trace memory.
    sim::FifoServer::Checkpoint manager;        ///< RELIEF manager.
    std::array<accel::Accelerator::Checkpoint, accel::kNumAccelTypes>
        accels;                                 ///< Per-accelerator state.
  };

  /**
   * Captures the machine's full state into `out`. Only at quiescence:
   * throws std::logic_error while events are pending (see
   * Simulator::checkpoint), and every accelerator must be idle (asserted).
   */
  void checkpoint(Checkpoint& out) const;

  /**
   * Restores state captured by checkpoint(), in place — the fork
   * operation. Events still pending on the abandoned timeline are
   * discarded. Component objects are reused (raw pointers held by model
   * callbacks stay valid); divergence knobs (PE counts, speed factors)
   * reset to their captured values. Tracer/checker attachments are
   * orthogonal run-scoped wiring and are left as-is.
   */
  void restore(const Checkpoint& c);

  // --- Divergence knobs for forked sweep points -------------------------

  /**
   * Re-sizes every accelerator's PE array (Fig. 19 sweeps). Requires all
   * accelerators idle — call only at a quiescent fork point. Throws
   * std::invalid_argument unless `pes` > 0.
   */
  void set_pes_per_accel(int pes);

  /**
   * Re-sizes one accelerator class's PE array (the auto-tuner's
   * per-class PE knob). Same idleness requirement and `pes` > 0 check as
   * set_pes_per_accel.
   * Leaves MachineConfig::pes_per_accel untouched (it describes the
   * uniform baseline); a restore() undoes the divergence because PE
   * arrays are part of each accelerator's captured state.
   */
  void set_pes_for(accel::AccelType type, int pes);

  /**
   * Re-sizes every accelerator's input/output SRAM queues (queue-depth
   * sweeps, the auto-tuner's queue knob). Requires all queues and
   * overflow areas empty — call only at a quiescent fork point. Throws
   * std::invalid_argument unless `entries` > 0.
   */
  void set_accel_queue_entries(std::size_t entries);

  /**
   * Re-sizes the A-DMA engine pool (the auto-tuner's DMA knob). All
   * engines come up free; call only at a quiescent fork point. Throws
   * std::invalid_argument unless `engines` > 0.
   */
  void set_dma_engines(int engines);

  /** Re-derives every accelerator's speedup for `scale` (Fig. 13/20). */
  void set_speedup_scale(double scale);

  /** Applies a processor generation's core speed factors (Fig. 20). */
  void set_generation(Generation g);

 private:
  State s_;
  sim::Simulator sim_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<mem::Iommu> iommu_;
  std::unique_ptr<noc::Interconnect> net_;
  std::unique_ptr<accel::DmaPool> dma_;
  std::unique_ptr<cpu::CoreCluster> cores_;
  std::unique_ptr<Atm> atm_;
  std::unique_ptr<sim::FifoServer> manager_;
  noc::Location manager_loc_;
  std::array<std::unique_ptr<accel::Accelerator>, accel::kNumAccelTypes>
      accels_;
  obs::Tracer* tracer_ = nullptr;
  ValidationHooks* checker_ = nullptr;
  sim::FaultHooks* fault_hooks_ = nullptr;
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_MACHINE_H_
