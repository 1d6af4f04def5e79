/**
 * @file
 * Unit tests for the mesh and package interconnect.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/interconnect.h"
#include "noc/mesh.h"
#include "sim/simulator.h"

namespace accelflow::noc {
namespace {

MeshParams small_mesh() {
  MeshParams p;
  p.width = 4;
  p.height = 4;
  p.hop_cycles = 3;
  p.link_bytes_per_cycle = 16;
  p.clock_ghz = 2.0;  // 500ps cycle: easy math.
  return p;
}

TEST(Mesh, HopCountIsManhattan) {
  sim::Simulator sim;
  Mesh mesh(sim, small_mesh());
  EXPECT_EQ(mesh.hops({0, 0}, {3, 3}), 6);
  EXPECT_EQ(mesh.hops({1, 2}, {1, 2}), 0);
  EXPECT_EQ(mesh.hops({0, 3}, {3, 0}), 6);
}

TEST(Mesh, ZeroLoadLatency) {
  sim::Simulator sim;
  Mesh mesh(sim, small_mesh());
  // 2 hops * 3 cycles * 500ps = 3000ps; 32B at 16B/cycle = 2 cycles = 1000ps.
  EXPECT_EQ(mesh.zero_load_latency({0, 0}, {2, 0}, 32), 4000u);
}

TEST(Mesh, SameNodeTransferIsFree) {
  sim::Simulator sim;
  Mesh mesh(sim, small_mesh());
  EXPECT_EQ(mesh.transfer({1, 1}, {1, 1}, 4096), sim.now());
}

TEST(Mesh, ContentionDelaysSecondTransfer) {
  sim::Simulator sim;
  Mesh mesh(sim, small_mesh());
  const auto t1 = mesh.transfer({0, 0}, {3, 0}, 1024);
  const auto t2 = mesh.transfer({0, 0}, {3, 0}, 1024);
  EXPECT_GT(t2, t1);
  EXPECT_GT(mesh.stats().contention_time, 0u);
}

TEST(Mesh, DisjointPathsDoNotContend) {
  sim::Simulator sim;
  Mesh mesh(sim, small_mesh());
  const auto t1 = mesh.transfer({0, 0}, {1, 0}, 1024);
  const auto t2 = mesh.transfer({0, 3}, {1, 3}, 1024);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(mesh.stats().contention_time, 0u);
}

TEST(Mesh, ReadyAtDefersTransfer) {
  sim::Simulator sim;
  Mesh mesh(sim, small_mesh());
  const auto base = mesh.zero_load_latency({0, 0}, {1, 0}, 64);
  const auto t = mesh.transfer({0, 0}, {1, 0}, 64, 10000);
  EXPECT_EQ(t, 10000 + base);
}

InterconnectParams two_chiplets() {
  InterconnectParams p;
  p.chiplet_meshes = {small_mesh(), small_mesh()};
  p.inter_chiplet_cycles = 60;
  p.inter_chiplet_gbps = 128;
  p.clock_ghz = 2.0;
  return p;
}

TEST(Interconnect, IntraChipletUsesMeshOnly) {
  sim::Simulator sim;
  Interconnect net(sim, two_chiplets());
  const auto t = net.transfer({0, {0, 0}}, {0, {2, 0}}, 32, 0, /*flow=*/0);
  EXPECT_EQ(t, net.mesh(0).zero_load_latency({0, 0}, {2, 0}, 32));
  EXPECT_EQ(net.stats().intra_transfers, 1u);
  EXPECT_EQ(net.stats().inter_transfers, 0u);
}

TEST(Interconnect, InterChipletCrossesLink) {
  sim::Simulator sim;
  Interconnect net(sim, two_chiplets());
  const auto intra = net.zero_load_latency({0, {1, 1}}, {0, {1, 2}}, 64);
  const auto inter = net.zero_load_latency({0, {1, 1}}, {1, {1, 2}}, 64);
  EXPECT_GT(inter, intra);
  // At least the 60-cycle crossing (30ns at 2GHz).
  EXPECT_GE(inter, sim::nanoseconds(30));
}

TEST(Interconnect, TransferMatchesZeroLoadWhenUncontended) {
  sim::Simulator sim;
  Interconnect net(sim, two_chiplets());
  const auto expect = net.zero_load_latency({0, {1, 1}}, {1, {2, 2}}, 256);
  const auto got = net.transfer({0, {1, 1}}, {1, {2, 2}}, 256, 0, /*flow=*/0);
  EXPECT_EQ(got, expect);
}

TEST(Interconnect, LinkContentionSerializes) {
  sim::Simulator sim;
  auto p = two_chiplets();
  p.inter_chiplet_gbps = 1;  // Slow link: contention obvious.
  Interconnect net(sim, p);
  const auto t1 = net.transfer({0, {0, 0}}, {1, {0, 0}}, 1 << 16, 0,
                               /*flow=*/0);
  const auto t2 = net.transfer({0, {0, 0}}, {1, {0, 0}}, 1 << 16, 0,
                               /*flow=*/0);
  EXPECT_GT(t2, t1);
}

TEST(Interconnect, ManyChiplets) {
  sim::Simulator sim;
  InterconnectParams p;
  for (int i = 0; i < 6; ++i) p.chiplet_meshes.push_back(small_mesh());
  Interconnect net(sim, p);
  // Every pair reachable.
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a == b) continue;
      EXPECT_GT(net.zero_load_latency({a, {0, 0}}, {b, {0, 0}}, 64), 0u);
    }
  }
}

TEST(Interconnect, PairLinksAreSymmetricAndDistinct) {
  // Pins the triangular pair indexing behind link(a, b): the unordered
  // pair (a, b) and (b, a) must resolve to the same channel, and every
  // distinct pair in a 6-chiplet package to a different one — in
  // particular no pair may alias a neighbour of the (excluded) diagonal.
  sim::Simulator sim;
  InterconnectParams p;
  for (int i = 0; i < 6; ++i) p.chiplet_meshes.push_back(small_mesh());
  const Interconnect net(sim, p);
  std::vector<const sim::Channel*> seen;
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      const sim::Channel* ab = &net.link(a, b);
      EXPECT_EQ(ab, &net.link(b, a)) << a << "," << b;
      for (const sim::Channel* prior : seen) {
        EXPECT_NE(ab, prior) << a << "," << b;
      }
      seen.push_back(ab);
    }
  }
  // All 6*5/2 links exist, including both boundary pairs (0,1), (4,5).
  EXPECT_EQ(seen.size(), 15u);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
TEST(InterconnectDeathTest, SelfLinkAsserts) {
  // A chiplet has no link to itself: before the assert, pair_index(a, a)
  // silently aliased a neighbouring pair's channel (and (n-1, n-1)
  // indexed out of range).
  sim::Simulator sim;
  Interconnect net(sim, two_chiplets());
  const Interconnect& cnet = net;
  EXPECT_DEATH((void)cnet.link(1, 1), "no inter-chiplet link|a != b");
  EXPECT_DEATH((void)cnet.link(0, 0), "no inter-chiplet link|a != b");
}
#endif  // !NDEBUG && GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace accelflow::noc
