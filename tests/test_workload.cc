/**
 * @file
 * Tests for the workload layer: service calibration (Table IV accelerator
 * counts, Figure 1 budget split), suites, load generators, and the request
 * engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "core/machine.h"
#include "core/orchestrator.h"
#include "core/trace_templates.h"
#include "workload/experiment.h"
#include "workload/load_generator.h"
#include "workload/request_engine.h"
#include "workload/suites.h"

namespace accelflow::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() {
    core::register_templates(lib_);
    register_relief_traces(lib_);
  }
  core::TraceLibrary lib_;
};

TEST_F(WorkloadTest, TableIvAccelCountsReproduced) {
  // The paper's Table IV "#" column: accelerators per service invocation
  // on the most common execution path.
  const std::map<std::string, int> expected = {
      {"CPost", 87}, {"ReadH", 28}, {"StoreP", 18}, {"Follow", 30},
      {"Login", 29}, {"CUrls", 19}, {"UniqId", 9},  {"RegUsr", 25}};
  const auto services = build_services(social_network_specs(), lib_);
  ASSERT_EQ(services.size(), expected.size());
  for (const auto& svc : services) {
    ASSERT_TRUE(expected.count(svc->name())) << svc->name();
    EXPECT_EQ(svc->invocations_most_common_path(),
              expected.at(svc->name()))
        << svc->name();
  }
}

TEST_F(WorkloadTest, SuiteAverageFractionsMatchFigure1) {
  const auto specs = social_network_specs();
  for (std::size_t c = 0; c < kNumTaxCategories; ++c) {
    double avg = 0;
    for (const auto& s : specs) avg += s.fractions[c];
    avg /= static_cast<double>(specs.size());
    EXPECT_NEAR(avg, kPaperAverageFractions[c], 0.01)
        << name_of(static_cast<TaxCategory>(c));
  }
}

TEST_F(WorkloadTest, FractionsSumToOne) {
  for (const auto& specs :
       {social_network_specs(), hotel_reservation_specs(),
        media_services_specs(), train_ticket_specs(), serverless_specs(),
        relief_suite_specs()}) {
    for (const auto& s : specs) {
      double sum = 0;
      for (const double f : s.fractions) sum += f;
      EXPECT_NEAR(sum, 1.0, 0.015) << s.name;
    }
  }
}

TEST_F(WorkloadTest, CategoryBudgetsSplitAcrossOps) {
  const auto services = build_services(social_network_specs(), lib_);
  for (const auto& svc : services) {
    double reconstructed = 0;
    for (std::size_t c = 1; c < kNumTaxCategories; ++c) {
      reconstructed += svc->category_ops()[c] *
                       static_cast<double>(svc->mean_op_cost(
                           [](std::size_t cat) {
                             // Any accel type of this category.
                             switch (cat) {
                               case 1:
                                 return accel::AccelType::kTcp;
                               case 2:
                                 return accel::AccelType::kEncr;
                               case 3:
                                 return accel::AccelType::kRpc;
                               case 4:
                                 return accel::AccelType::kSer;
                               case 5:
                                 return accel::AccelType::kCmp;
                               default:
                                 return accel::AccelType::kLdb;
                             }
                           }(c)));
    }
    const double tax_budget =
        (1.0 - svc->spec().fractions[0]) *
        static_cast<double>(svc->spec().total_cpu_time);
    EXPECT_NEAR(reconstructed / tax_budget, 1.0, 0.02) << svc->name();
  }
}

TEST_F(WorkloadTest, ConditionalChainShares) {
  // Section III Q2: the share of CPU-initiated chains with at least one
  // conditional, per suite (paper: SocialNet 69.2%, Hotel 62.5%, Media
  // 82.5%, TrainTicket 53.8%). Weighted per service invocation.
  auto share = [&](const std::vector<ServiceSpec>& specs) {
    int cond = 0, total = 0;
    const auto services = build_services(specs, lib_);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& spec = specs[i];
      for (std::size_t s = 0; s < spec.stages.size(); ++s) {
        if (spec.stages[s].kind != StageSpec::Kind::kChains) continue;
        for (std::size_t g = 0; g < spec.stages[s].groups.size(); ++g) {
          const int n = spec.stages[s].groups[g].count;
          total += n;
          if (core::chain_has_conditional(lib_,
                                          services[i]->group_addr(s, g))) {
            cond += n;
          }
        }
      }
    }
    return static_cast<double>(cond) / static_cast<double>(total);
  };
  // The SocialNetwork suite should be in the ballpark of the paper's
  // 69.2%, and the ordering Media > SocialNet > Hotel > TrainTicket holds.
  const double sn = share(social_network_specs());
  const double hotel = share(hotel_reservation_specs());
  const double media = share(media_services_specs());
  const double train = share(train_ticket_specs());
  EXPECT_NEAR(sn, 0.692, 0.08);
  EXPECT_NEAR(hotel, 0.625, 0.08);
  EXPECT_NEAR(media, 0.825, 0.06);
  EXPECT_NEAR(train, 0.538, 0.12);
  // Ordering as in the paper: Media > SocialNet > Hotel > TrainTicket.
  EXPECT_GT(media, sn);
  EXPECT_GT(sn, hotel);
  EXPECT_GT(hotel, train);
}

TEST_F(WorkloadTest, TransformedSizesFollowDocumentedRatios) {
  EXPECT_EQ(default_transformed_size(accel::AccelType::kCmp, 10000), 3500u);
  EXPECT_EQ(default_transformed_size(accel::AccelType::kDcmp, 3500),
            9999u);  // ~inverse.
  EXPECT_GT(default_transformed_size(accel::AccelType::kSer, 1000), 1000u);
  EXPECT_LT(default_transformed_size(accel::AccelType::kDser, 1000), 1000u);
  // Clamped below.
  EXPECT_EQ(default_transformed_size(accel::AccelType::kCmp, 64), 64u);
}

TEST_F(WorkloadTest, AlibabaRatesAverageToTarget) {
  const auto rates = alibaba_like_rates(8, 13400.0);
  double avg = 0;
  for (const double r : rates) avg += r;
  avg /= 8.0;
  EXPECT_NEAR(avg, 13400.0, 1.0);
  // Skewed: max at least 2x min.
  const auto [mn, mx] = std::minmax_element(rates.begin(), rates.end());
  EXPECT_GT(*mx, 1.5 * *mn);
}

TEST_F(WorkloadTest, PoissonGeneratorHitsTargetRate) {
  core::Machine machine(core::MachineConfig{});
  auto orch = core::make_orchestrator(core::OrchKind::kIdeal, machine, lib_);
  const auto specs = social_network_specs();
  auto services = build_services(specs, lib_);
  std::vector<Service*> ptrs;
  for (auto& s : services) ptrs.push_back(s.get());
  RequestEngine engine(machine, *orch, ptrs, 42);
  LoadGenerator gen(machine.sim(), engine, /*service=*/6,
                    LoadGenerator::Model::kPoisson, 5000.0,
                    sim::milliseconds(200), 7);
  machine.sim().run_until(sim::milliseconds(250));
  // 5000 RPS x 0.2s = ~1000 requests.
  EXPECT_NEAR(static_cast<double>(gen.generated()), 1000.0, 120.0);
}

TEST_F(WorkloadTest, BurstyGeneratorIsBurstier) {
  core::Machine m1(core::MachineConfig{}), m2(core::MachineConfig{});
  auto o1 = core::make_orchestrator(core::OrchKind::kIdeal, m1, lib_);
  auto o2 = core::make_orchestrator(core::OrchKind::kIdeal, m2, lib_);
  const auto specs = serverless_specs();
  auto s1 = build_services(specs, lib_);
  auto s2 = build_services(specs, lib_);
  std::vector<Service*> p1, p2;
  for (auto& s : s1) p1.push_back(s.get());
  for (auto& s : s2) p2.push_back(s.get());
  RequestEngine e1(m1, *o1, p1, 1), e2(m2, *o2, p2, 1);

  // Count arrivals in 10ms windows and compare dispersion.
  auto dispersion = [](core::Machine& m, RequestEngine& e,
                       LoadGenerator::Model model) {
    LoadGenerator gen(m.sim(), e, 0, model, 3000.0, sim::milliseconds(400),
                      77);
    std::vector<std::uint64_t> counts;
    std::uint64_t last = 0;
    for (int w = 1; w <= 40; ++w) {
      m.sim().run_until(sim::milliseconds(10.0 * w));
      counts.push_back(gen.generated() - last);
      last = gen.generated();
    }
    double mean = 0, var = 0;
    for (const auto c : counts) mean += static_cast<double>(c);
    mean /= static_cast<double>(counts.size());
    for (const auto c : counts) {
      var += (static_cast<double>(c) - mean) * (static_cast<double>(c) - mean);
    }
    var /= static_cast<double>(counts.size());
    return mean > 0 ? var / mean : 0.0;  // Index of dispersion.
  };
  const double poisson_d = dispersion(m1, e1, LoadGenerator::Model::kPoisson);
  const double bursty_d = dispersion(m2, e2, LoadGenerator::Model::kBursty);
  EXPECT_GT(bursty_d, 2.0 * poisson_d);
}

TEST_F(WorkloadTest, RequestEngineCompletesRequestsEndToEnd) {
  core::Machine machine(core::MachineConfig{});
  auto orch =
      core::make_orchestrator(core::OrchKind::kAccelFlow, machine, lib_);
  const auto specs = social_network_specs();
  auto services = build_services(specs, lib_);
  std::vector<Service*> ptrs;
  for (auto& s : services) ptrs.push_back(s.get());
  RequestEngine engine(machine, *orch, ptrs, 42);
  for (std::size_t s = 0; s < ptrs.size(); ++s) {
    machine.sim().schedule_at(sim::microseconds(10 * (s + 1)),
                              [&engine, s] { engine.inject(s); });
  }
  machine.sim().run();
  // Every external request completed, plus the nested sub-requests that
  // CPost/ReadH/RegUsr spawned into their colocated callees.
  EXPECT_GT(engine.total_completed(), ptrs.size());
  for (std::size_t s = 0; s < ptrs.size(); ++s) {
    EXPECT_GE(engine.stats(s).completed, 1u) << ptrs[s]->name();
    EXPECT_GT(engine.stats(s).latency.mean(), 0.0);
  }
  // CPost alone fans out 7 nested RPCs: 8 external + >=9 internal.
  EXPECT_GE(engine.total_completed(), 17u);
}

TEST_F(WorkloadTest, RequestLatencyIncludesRemoteWaits) {
  core::Machine machine(core::MachineConfig{});
  auto orch =
      core::make_orchestrator(core::OrchKind::kAccelFlow, machine, lib_);
  const auto specs = social_network_specs();
  auto services = build_services(specs, lib_);
  std::vector<Service*> ptrs;
  for (auto& s : services) ptrs.push_back(s.get());
  RequestEngine engine(machine, *orch, ptrs, 42);
  engine.inject(4);  // Login: cache miss -> DB -> write-back.
  machine.sim().run();
  // Latency must exceed the sum of remote means on the miss path.
  EXPECT_GT(engine.stats(4).latency.mean(),
            static_cast<double>(sim::microseconds(60)));
}

TEST_F(WorkloadTest, ReliefSuiteServicesRun) {
  core::Machine machine(core::MachineConfig{});
  auto orch =
      core::make_orchestrator(core::OrchKind::kAccelFlow, machine, lib_);
  const auto specs = relief_suite_specs();
  auto services = build_services(specs, lib_);
  std::vector<Service*> ptrs;
  for (auto& s : services) ptrs.push_back(s.get());
  RequestEngine engine(machine, *orch, ptrs, 42);
  for (std::size_t s = 0; s < ptrs.size(); ++s) engine.inject(s);
  machine.sim().run();
  EXPECT_EQ(engine.total_completed(), ptrs.size());
}

TEST(Experiment, RejectsNonFiniteRate) {
  // A NaN or infinite rate passes a `rps <= 0` filter; the generator must
  // reject it by name instead of scheduling arrivals forever.
  const auto what_of = [](const ExperimentConfig& cfg) -> std::string {
    try {
      run_experiment(cfg);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no exception)";
  };
  for (const double rate : {std::nan(""),
                            std::numeric_limits<double>::infinity()}) {
    ExperimentConfig uniform;
    uniform.specs = social_network_specs();
    uniform.rps_per_service = rate;
    uniform.warmup = sim::milliseconds(1);
    uniform.measure = sim::milliseconds(1);
    uniform.drain = sim::milliseconds(1);
    EXPECT_NE(what_of(uniform).find("rps"), std::string::npos) << rate;

    ExperimentConfig per_service = uniform;
    per_service.rps_per_service = 1000.0;
    per_service.per_service_rps.assign(per_service.specs.size(), 1000.0);
    per_service.per_service_rps.back() = rate;
    EXPECT_NE(what_of(per_service).find("rps"), std::string::npos) << rate;
  }
}

}  // namespace
}  // namespace accelflow::workload
