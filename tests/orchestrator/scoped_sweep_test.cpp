// Scoped-sweep quiescence: after every fault or recovery event, no live
// chain may still classify to a sweep verdict other than kNone.
//
// Each handler sweeps only its event's blast radius (the clusters whose AL
// it examined). That equals a full sweep exactly when every chain outside
// the scope classifies kNone at handler entry — and because classification
// never depends on applying another chain's verdict, it suffices that the
// control plane is quiescent after every event: nothing the previous
// sweeps left behind, so only the current event can create work, and only
// inside its scope. chains_needing_sweep() classifies every live chain
// (the full sweep's decision procedure), so an empty result after each
// event proves the scoped sweep did everything a full sweep would have.
// These schedules drive only fault events; ALs reshaped between events by
// direct ClusterManager calls are covered by the failure and soak tests.
//
// 20 seeds replay the chaos soak's mixed OPS/ToR/server/link schedules plus
// a whole-AL outage; odd seeds run under kWaterFill near port capacity so
// rebalances shed and restore chains between sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/alvc.h"
#include "faults/fault_injector.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultScheduleParams;
using alvc::nfv::VnfType;
using alvc::util::NfcId;

constexpr std::uint64_t kSeeds = 20;

std::unique_ptr<core::DataCenter> make_dc(std::uint64_t seed, bool water_fill) {
  core::DataCenterConfig config;
  config.topology.rack_count = 6;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 16;
  config.topology.tor_ops_degree = 6;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.service_count = 3;
  config.topology.seed = seed * 7 + 1;
  config.seed = seed;
  auto dc = std::make_unique<core::DataCenter>(config);
  auto clusters = dc->build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  if (water_fill) dc->orchestrator().set_allocation_policy(AllocationPolicy::kWaterFill);
  for (std::uint32_t s = 0; s < 3; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    // Water-fill seeds run near port capacity so the allocator actually
    // has contention to arbitrate between sweeps.
    spec.bandwidth_gbps = water_fill ? 6.0 : 1.0;
    spec.functions = {*dc->catalog().find_by_type(VnfType::kFirewall),
                      *dc->catalog().find_by_type(VnfType::kNat)};
    ALVC_IGNORE_STATUS(dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "warm-up: capacity conflicts just mean fewer live chains");
  }
  return dc;
}

std::vector<FaultEvent> make_schedule(const core::DataCenter& dc, std::uint64_t seed) {
  FaultScheduleParams params;
  params.ops = {.mtbf_s = 35, .mttr_s = 7};
  params.tor = {.mtbf_s = 55, .mttr_s = 6};
  params.server = {.mtbf_s = 45, .mttr_s = 5};
  params.link = {.mtbf_s = 40, .mttr_s = 6};
  params.horizon_s = 40;
  params.seed = seed;
  auto events = FaultInjector::generate(dc.topology(), params);
  const auto* vc0 = dc.clusters().clusters().front();
  if (!vc0->layer.opss.empty()) {
    auto scripted = FaultInjector::whole_al(*vc0, 12.0, 8.0, 0.5);
    events.insert(events.end(), scripted.begin(), scripted.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  return events;
}

std::string ids_to_string(const std::vector<NfcId>& ids) {
  std::string out;
  for (NfcId id : ids) {
    if (!out.empty()) out += ',';
    out += std::to_string(id.value());
  }
  return out;
}

TEST(ScopedSweepTest, NoChainNeedsASweepAfterAnyEvent) {
  std::size_t total_repaired = 0;
  std::size_t total_degraded = 0;
  std::size_t water_fill_rebalances = 0;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    const bool water_fill = (seed % 2) == 1;
    auto dc = make_dc(seed, water_fill);
    auto& orch = dc->orchestrator();
    ASSERT_FALSE(orch.chains().empty());
    ASSERT_TRUE(orch.chains_needing_sweep().empty()) << "dirty before the first event";

    const auto events = make_schedule(*dc, seed);
    ASSERT_FALSE(events.empty());
    for (const FaultEvent& event : events) {
      const auto result = alvc::faults::apply_fault(orch, event);
      ASSERT_TRUE(result.has_value()) << result.error().to_string();
      const auto pending = orch.chains_needing_sweep();
      ASSERT_TRUE(pending.empty())
          << "chains " << ids_to_string(pending) << " still need a sweep after t="
          << event.time_s << " " << to_string(event.kind)
          << (event.failure ? " failure" : " recovery") << " id=" << event.id;
    }

    total_repaired += orch.stats().chains_repaired;
    total_degraded += orch.stats().chains_degraded;
    if (water_fill) water_fill_rebalances += orch.stats().alloc_rebalances;
  }

  // The check must exercise the machinery it certifies.
  EXPECT_GT(total_repaired, 0u) << "no sweep ever repaired a chain";
  EXPECT_GT(total_degraded, 0u) << "no chain ever entered degraded mode";
  EXPECT_GT(water_fill_rebalances, 0u) << "the water-fill seeds never rebalanced";
}

}  // namespace
}  // namespace alvc::orchestrator
