/**
 * @file
 * Soft-SLO scheduling (Section IV-C): the same overloaded mix run with
 * FIFO input dispatchers and with deadline-aware (EDF) dispatchers that
 * reorder queued requests when an earlier one has slack. Short-deadline
 * services keep their tail under pressure from a heavyweight neighbor.
 *
 *   $ ./examples/slo_scheduling
 */

#include <iostream>

#include "core/trace_templates.h"
#include "stats/table.h"
#include "workload/experiment.h"

using namespace accelflow;

int main() {
  // Two custom services engineered to be *accelerator-bound* (tiny app
  // logic): a bulky batch-style service saturating the TCP/Ser PEs, and a
  // small latency-critical service. Deadline-aware dispatch lets the small
  // service's operations jump ahead of queued bulk operations.
  workload::ServiceSpec bulk;
  bulk.name = "Bulk";
  bulk.total_cpu_time = sim::microseconds(400);
  bulk.fractions = {0.05, 0.30, 0.17, 0.03, 0.27, 0.10, 0.08};
  workload::StageSpec in;
  in.kind = workload::StageSpec::Kind::kChains;
  in.groups = {workload::ChainGroup{"T1", 1, {}}};
  workload::StageSpec cpu;
  cpu.kind = workload::StageSpec::Kind::kCpu;
  cpu.cpu_weight = 1.0;
  workload::StageSpec out;
  out.kind = workload::StageSpec::Kind::kChains;
  out.groups = {workload::ChainGroup{"T2", 1, {}}};
  bulk.stages = {in, cpu, out};

  workload::ServiceSpec tiny = bulk;
  tiny.name = "Tiny";
  tiny.total_cpu_time = sim::microseconds(25);

  auto run = [&](bool edf) {
    workload::ExperimentConfig cfg;
    cfg.kind = core::OrchKind::kAccelFlow;
    cfg.specs = {bulk, tiny};
    cfg.load_model = workload::LoadGenerator::Model::kPoisson;
    cfg.machine.pes_per_accel = 4;
    cfg.per_service_rps = {95000.0, 40000.0};  // Bulk, Tiny.
    cfg.warmup = sim::milliseconds(10);
    cfg.measure = sim::milliseconds(80);
    cfg.drain = sim::milliseconds(20);
    if (edf) {
      cfg.machine.policy = accel::SchedPolicy::kEdf;
      // Per-step budgets: loose for Bulk, tight for Tiny.
      cfg.step_deadline_budgets = {sim::microseconds(400),
                                   sim::microseconds(6)};
    }
    return workload::run_experiment(cfg);
  };

  const auto fifo = run(false);
  const auto edf = run(true);

  stats::Table t("FIFO vs deadline-aware (EDF) dispatch under pressure");
  t.set_header({"Service", "FIFO p99 (us)", "EDF p99 (us)", "change"});
  for (std::size_t s = 0; s < fifo.services.size(); ++s) {
    t.add_row({fifo.services[s].name,
               stats::Table::fmt_us(fifo.services[s].p99_us),
               stats::Table::fmt_us(edf.services[s].p99_us),
               stats::Table::fmt_pct(edf.services[s].p99_us /
                                         fifo.services[s].p99_us -
                                     1.0)});
  }
  t.print(std::cout);
  std::cout << "Accelerator-side reorders under EDF: "
            << edf.deadline_misses << " deadline misses recorded; TCP PEs "
            << stats::Table::fmt_pct(edf.accel_utilization[accel::index_of(
                   accel::AccelType::kTcp)])
            << " busy\n";
  return 0;
}
