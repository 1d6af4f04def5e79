#include "core/machine.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/require.h"

namespace accelflow::core {

using accel::AccelType;

std::array<int, accel::kNumAccelTypes> accel_chiplet_assignment(
    int num_chiplets) {
  // Index order: TCP, Encr, Decr, RPC, Ser, Dser, Cmp, Dcmp, LdB.
  // LdB always lives with the cores (it is tightly coupled with them).
  switch (num_chiplets) {
    case 1:
      return {0, 0, 0, 0, 0, 0, 0, 0, 0};
    case 2:  // Base design (Figure 6).
      return {1, 1, 1, 1, 1, 1, 1, 1, 0};
    case 3:  // TCP+(De)Encr | RPC+(De)Ser+(De)Cmp.
      return {1, 1, 1, 2, 2, 2, 2, 2, 0};
    case 4:  // TCP+(De)Encr | RPC+(De)Ser | (De)Cmp.
      return {1, 1, 1, 2, 2, 2, 3, 3, 0};
    case 6:  // TCP | (De)Encr | RPC | (De)Ser | (De)Cmp.
      return {1, 2, 2, 3, 4, 4, 5, 5, 0};
    default:
      throw std::invalid_argument(
          "supported chiplet organizations: 1, 2, 3, 4, 6");
  }
}

Machine::Machine(const MachineConfig& config) : s_{config} {
  require_positive(s_.config.pes_per_accel, "pes_per_accel");
  require_positive(s_.config.accel_queue_entries, "accel_queue_entries");
  require_positive(s_.config.speedup_scale, "speedup_scale");
  require_positive(s_.config.inter_chiplet_gbps, "inter_chiplet_gbps");
  require_positive(s_.config.cpu.num_cores, "cpu.num_cores");
  require_positive(s_.config.cpu.clock_ghz, "cpu.clock_ghz");
  require_positive(s_.config.cpu.tax_speed, "cpu.tax_speed");
  require_positive(s_.config.cpu.app_speed, "cpu.app_speed");
  require_positive(s_.config.dma.num_engines, "dma.num_engines");
  mem_ = std::make_unique<mem::MemorySystem>(sim_, s_.config.mem,
                                             s_.config.seed ^ 0x11);
  iommu_ = std::make_unique<mem::Iommu>(sim_, *mem_, s_.config.walk,
                                        /*concurrent_walkers=*/4,
                                        s_.config.seed ^ 0x22);

  // Chiplet 0 carries the 36 cores on a 7x6 mesh (the seventh column hosts
  // LdB, the ATM access port, and the edge router); accelerator chiplets
  // use a compact 3x3 mesh.
  noc::InterconnectParams np;
  np.clock_ghz = s_.config.cpu.clock_ghz;
  np.inter_chiplet_cycles = s_.config.inter_chiplet_cycles;
  np.inter_chiplet_gbps = s_.config.inter_chiplet_gbps;
  {
    noc::MeshParams core_mesh;
    // The single-chiplet organization hosts all nine accelerators plus the
    // ATM and manager next to the cores, needing two extra columns.
    core_mesh.width = s_.config.num_chiplets == 1 ? 8 : 7;
    core_mesh.height = 6;
    core_mesh.clock_ghz = s_.config.cpu.clock_ghz;
    np.chiplet_meshes.push_back(core_mesh);
    noc::MeshParams accel_mesh;
    accel_mesh.width = 3;
    accel_mesh.height = 3;
    accel_mesh.clock_ghz = s_.config.cpu.clock_ghz;
    for (int c = 1; c < s_.config.num_chiplets; ++c) {
      np.chiplet_meshes.push_back(accel_mesh);
    }
  }
  net_ = std::make_unique<noc::Interconnect>(sim_, np);
  dma_ = std::make_unique<accel::DmaPool>(sim_, *net_, s_.config.dma);
  cores_ = std::make_unique<cpu::CoreCluster>(sim_, s_.config.cpu);

  // Place the accelerators.
  const auto chiplet_of = accel_chiplet_assignment(s_.config.num_chiplets);
  std::array<int, 8> placed_on_chiplet{};  // Next mesh slot per chiplet.
  for (const AccelType t : accel::kAllAccelTypes) {
    const std::size_t i = accel::index_of(t);
    const int chiplet = chiplet_of[i];
    noc::Location loc;
    loc.chiplet = chiplet;
    if (chiplet == 0) {
      // On the core chiplet accelerators fill the extra columns.
      const int slot = placed_on_chiplet[0]++;
      loc.coord = {6 + slot / 6, slot % 6};
    } else {
      const int slot = placed_on_chiplet[static_cast<std::size_t>(chiplet)]++;
      loc.coord = {slot % 3, slot / 3};
    }
    accel::AccelParams ap;
    ap.type = t;
    ap.num_pes = s_.config.pes_per_accel;
    ap.input_queue_entries = s_.config.accel_queue_entries;
    ap.output_queue_entries = s_.config.accel_queue_entries;
    ap.speedup = accel::default_speedup(t) * s_.config.speedup_scale;
    ap.clock_ghz = s_.config.cpu.clock_ghz;
    ap.overflow_capacity = s_.config.overflow_capacity;
    ap.policy = s_.config.policy;
    ap.reserved_input_slots = s_.config.reserved_input_slots;
    ap.aging_quantum_us = s_.config.sched_aging_quantum_us;
    accels_[i] =
        std::make_unique<accel::Accelerator>(sim_, ap, *mem_, *iommu_, loc);
  }

  // The ATM and the RELIEF manager live on the first accelerator chiplet
  // (or the single chiplet): next to the accelerators they serve.
  const int service_chiplet = s_.config.num_chiplets > 1 ? 1 : 0;
  const noc::Coord service_coord =
      service_chiplet == 0 ? noc::Coord{7, 4} : noc::Coord{2, 2};
  atm_ = std::make_unique<Atm>(
      s_.config.cpu.clock_ghz, s_.config.atm_read_cycles,
      noc::Location{service_chiplet, service_coord});
  manager_loc_ = noc::Location{
      service_chiplet,
      service_chiplet == 0 ? noc::Coord{7, 5} : noc::Coord{2, 1}};
  manager_ = std::make_unique<sim::FifoServer>(
      sim_, static_cast<std::size_t>(s_.config.manager_contexts));
}

noc::Location Machine::core_location(int core) const {
  assert(core >= 0 && core < s_.config.cpu.num_cores);
  return noc::Location{0, {core % 6, core / 6}};
}

void Machine::load_traces(const TraceLibrary& lib) {
  for (const AtmAddr addr : lib.addresses()) {
    if (lib.stored(addr)) atm_->store(addr, lib.get(addr));
  }
}

void Machine::install_output_handler(accel::OutputHandler* handler) {
  for (const AccelType t : accel::kAllAccelTypes) {
    accel(t).set_output_handler(handler);
  }
}

void Machine::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  net_->set_tracer(tracer);
  dma_->set_tracer(tracer);
  for (const AccelType t : accel::kAllAccelTypes) {
    const auto i = static_cast<std::uint32_t>(accel::index_of(t));
    accel(t).set_tracer(tracer, i);
  }
  if (tracer == nullptr) return;

  // Name the Perfetto tracks so the export is readable without a legend.
  using obs::Subsys;
  for (const AccelType t : accel::kAllAccelTypes) {
    const auto i = static_cast<std::uint32_t>(accel::index_of(t));
    const std::uint32_t base = i * accel::Accelerator::kTidStride;
    const std::string name(accel::name_of(t));
    for (int pe = 0; pe < s_.config.pes_per_accel; ++pe) {
      tracer->name_thread(Subsys::kAccel,
                          base + static_cast<std::uint32_t>(pe),
                          name + ".pe" + std::to_string(pe));
    }
    tracer->name_thread(Subsys::kAccel, base + accel::Accelerator::kQueueTid,
                        name + ".queue");
    tracer->name_thread(Subsys::kAccel,
                        base + accel::Accelerator::kDispatcherTid,
                        name + ".dispatcher");
    tracer->name_thread(Subsys::kMem, i + 1, "tlb." + name);
  }
  tracer->name_thread(Subsys::kMem, 0, "iommu");
  for (int e = 0; e < dma_->num_engines(); ++e) {
    tracer->name_thread(Subsys::kDma, static_cast<std::uint32_t>(e),
                        "dma" + std::to_string(e));
  }
  for (int c = 0; c < net_->num_chiplets(); ++c) {
    tracer->name_thread(Subsys::kNoc, static_cast<std::uint32_t>(c),
                        "chiplet" + std::to_string(c));
  }
  tracer->name_thread(Subsys::kNoc, noc::Interconnect::kLinkTid,
                      "package-links");
  for (int c = 0; c < s_.config.cpu.num_cores; ++c) {
    tracer->name_thread(Subsys::kEngine, static_cast<std::uint32_t>(c),
                        "core" + std::to_string(c));
    tracer->name_thread(Subsys::kCpu, static_cast<std::uint32_t>(c),
                        "core" + std::to_string(c));
  }
  tracer->name_thread(Subsys::kEngine, obs::kManagerTid, "manager");
}

void Machine::set_fault_hooks(sim::FaultHooks* hooks) {
  fault_hooks_ = hooks;
  net_->set_fault_hooks(hooks);
  dma_->set_fault_hooks(hooks);
  iommu_->set_fault_hooks(hooks);
  for (const AccelType t : accel::kAllAccelTypes) {
    accel(t).set_fault_hooks(hooks, static_cast<int>(accel::index_of(t)));
  }
}

void Machine::checkpoint(Checkpoint& out) const {
  out.kernel = sim_.checkpoint();  // Throws unless quiescent.
  static_cast<State&>(out) = s_;
  out.mem = mem_->checkpoint();
  out.iommu = iommu_->checkpoint();
  out.net = net_->checkpoint();
  out.dma = dma_->checkpoint();
  out.cores = cores_->checkpoint();
  out.atm = atm_->checkpoint();
  out.manager = manager_->checkpoint();
  for (const AccelType t : accel::kAllAccelTypes) {
    out.accels[accel::index_of(t)] = accel(t).checkpoint();
  }
}

void Machine::restore(const Checkpoint& c) {
  s_ = c;
  sim_.restore(c.kernel);
  mem_->restore(c.mem);
  iommu_->restore(c.iommu);
  net_->restore(c.net);
  dma_->restore(c.dma);
  cores_->restore(c.cores);
  atm_->restore(c.atm);
  manager_->restore(c.manager);
  for (const AccelType t : accel::kAllAccelTypes) {
    accels_[accel::index_of(t)]->restore(c.accels[accel::index_of(t)]);
  }
}

void Machine::set_pes_per_accel(int pes) {
  require_positive(pes, "pes_per_accel");
  for (const AccelType t : accel::kAllAccelTypes) {
    accels_[accel::index_of(t)]->set_num_pes(pes);
  }
  s_.config.pes_per_accel = pes;
}

void Machine::set_pes_for(accel::AccelType type, int pes) {
  require_positive(pes, "pes");
  accels_[accel::index_of(type)]->set_num_pes(pes);
}

void Machine::set_accel_queue_entries(std::size_t entries) {
  require_positive(entries, "accel_queue_entries");
  for (const AccelType t : accel::kAllAccelTypes) {
    accels_[accel::index_of(t)]->set_queue_capacity(entries);
  }
  s_.config.accel_queue_entries = entries;
}

void Machine::set_dma_engines(int engines) {
  require_positive(engines, "dma.num_engines");
  dma_->set_num_engines(engines);
  s_.config.dma.num_engines = engines;
}

void Machine::set_speedup_scale(double scale) {
  require_positive(scale, "speedup_scale");
  for (const AccelType t : accel::kAllAccelTypes) {
    accels_[accel::index_of(t)]->set_speedup(accel::default_speedup(t) *
                                             scale);
  }
  s_.config.speedup_scale = scale;
}

void Machine::set_generation(Generation g) {
  s_.config.apply_generation(g);
  cores_->set_speeds(s_.config.cpu.app_speed, s_.config.cpu.tax_speed);
}

void Machine::snapshot_metrics(obs::MetricsRegistry& reg) const {
  using Kind = obs::MetricsRegistry::Kind;
  std::uint64_t tlb_lookups = 0;
  std::uint64_t tlb_misses = 0;
  for (const AccelType t : accel::kAllAccelTypes) {
    const accel::Accelerator& a = accel(t);
    const accel::AccelStats& s = a.stats();
    const std::string p = obs::metric_path("accel", accel::name_of(t));
    reg.set(p + ".jobs", static_cast<double>(s.jobs));
    reg.set(p + ".queue_depth", static_cast<double>(a.input_occupancy()),
            Kind::kGauge);
    reg.set(p + ".overflow_enqueues",
            static_cast<double>(s.overflow_enqueues));
    reg.set(p + ".overflow_rejections",
            static_cast<double>(s.overflow_rejections));
    reg.set(p + ".deadline_misses", static_cast<double>(s.deadline_misses));
    reg.set(p + ".tenant_wipes", static_cast<double>(s.tenant_wipes));
    reg.set(p + ".faults", static_cast<double>(s.faults));
    reg.set(p + ".killed_jobs", static_cast<double>(s.killed_jobs));
    reg.set(p + ".injected_rejections",
            static_cast<double>(s.injected_rejections));
    reg.set(p + ".pe_utilization", a.pe_utilization(), Kind::kGauge);
    reg.set(p + ".mean_queue_delay_ps", s.input_queue_delay.mean(),
            Kind::kGauge);
    tlb_lookups += a.tlb_stats().lookups;
    tlb_misses += a.tlb_stats().misses();
  }
  reg.set("noc.intra_transfers",
          static_cast<double>(net_->stats().intra_transfers));
  reg.set("noc.inter_transfers",
          static_cast<double>(net_->stats().inter_transfers));
  reg.set("noc.inter_bytes", static_cast<double>(net_->stats().inter_bytes));
  reg.set("noc.hops", static_cast<double>(net_->stats().hops));
  reg.set("dma.transfers", static_cast<double>(dma_->stats().transfers));
  reg.set("dma.bytes", static_cast<double>(dma_->stats().bytes));
  reg.set("dma.engine_wait_ps",
          static_cast<double>(dma_->stats().engine_wait));
  reg.set("dma.utilization", dma_->utilization(), Kind::kGauge);
  reg.set("mem.tlb.lookups", static_cast<double>(tlb_lookups));
  reg.set("mem.tlb.miss_rate",
          tlb_lookups ? static_cast<double>(tlb_misses) /
                            static_cast<double>(tlb_lookups)
                      : 0.0,
          Kind::kGauge);
  reg.set("mem.iommu.walks", static_cast<double>(iommu_->stats().walks));
  reg.set("mem.iommu.faults", static_cast<double>(iommu_->stats().faults));
  reg.set("sim.events", static_cast<double>(sim_.executed_events()));
  reg.set("sim.scheduled",
          static_cast<double>(sim_.kernel_stats().scheduled));
  reg.set("sim.cancelled",
          static_cast<double>(sim_.kernel_stats().cancelled));
  reg.set("sim.now_ps", static_cast<double>(sim_.now()), Kind::kGauge);
  reg.set("sim.pending_high_water",
          static_cast<double>(sim_.kernel_stats().pending_high_water),
          Kind::kGauge);
}

}  // namespace accelflow::core
