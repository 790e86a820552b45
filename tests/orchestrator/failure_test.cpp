// Failure injection at the orchestration layer: OPS failures that strand
// VNF instances and break chain routes; the orchestrator must relocate,
// re-route, and re-program — or tear the chain down cleanly. Every handler
// must also leave the control plane quiescent (no chain still needing a
// sweep), since the next event's sweep only visits its own blast radius.
#include <gtest/gtest.h>

#include <algorithm>
#include <variant>
#include <vector>

#include "core/alvc.h"
#include "faults/state_auditor.h"
#include "orchestrator/orchestrator.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::nfv::NfcSpec;
using alvc::nfv::VnfType;
using alvc::test::ClusterFixture;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::ServiceId;
using alvc::util::TorId;

struct FailureFixture : ClusterFixture {
  NetworkOrchestrator orch{manager, catalog};

  alvc::util::NfcId provision(std::initializer_list<VnfType> types) {
    NfcSpec spec;
    spec.name = "chain";
    spec.service = ServiceId{0};
    spec.bandwidth_gbps = 1.0;
    for (auto t : types) spec.functions.push_back(*catalog.find_by_type(t));
    const GreedyOpticalPlacement placement;
    auto id = orch.provision_chain(spec, placement);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    return *id;
  }
};

TEST(OrchestratorFailureTest, ChainsUsingOpsDetectsHostsAndRoutes) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall, VnfType::kNat});
  const auto* chain = f.orch.chain(id);
  // Find the OPS hosting the first VNF.
  const auto* host_ops = std::get_if<OpsId>(&chain->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr) << "greedy-optical should host light VNFs optically";
  const auto affected = f.orch.chains_using_ops(*host_ops);
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0], id);
  // An OPS in no route and hosting nothing affects nothing.
  OpsId untouched = OpsId::invalid();
  for (std::size_t i = 0; i < f.topo.ops_count(); ++i) {
    const OpsId o{static_cast<OpsId::value_type>(i)};
    if (f.orch.chains_using_ops(o).empty()) {
      untouched = o;
      break;
    }
  }
  if (untouched.valid()) {
    EXPECT_TRUE(f.orch.chains_using_ops(untouched).empty());
  }
}

TEST(OrchestratorFailureTest, VnfRelocatedOffFailedRouter) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall, VnfType::kNat});
  const auto* chain = f.orch.chain(id);
  const auto* host_ops = std::get_if<OpsId>(&chain->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr);
  const OpsId victim = *host_ops;

  const auto repaired = f.orch.handle_ops_failure(victim);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, 1u);
  EXPECT_EQ(f.orch.stats().chains_repaired, 1u);
  EXPECT_GE(f.orch.stats().vnfs_relocated, 1u);

  const auto* after = f.orch.chain(id);
  ASSERT_NE(after, nullptr) << "chain must survive";
  for (const auto& host : after->placement.hosts) {
    if (const auto* o = std::get_if<OpsId>(&host)) {
      EXPECT_NE(*o, victim) << "VNF still on the failed router";
    }
  }
  // Route avoids the failed OPS.
  const std::size_t failed_vertex = f.topo.ops_vertex(victim);
  for (std::size_t v : after->route.vertices) EXPECT_NE(v, failed_vertex);
  EXPECT_GT(after->flow_rules, 0u);
  EXPECT_TRUE(f.orch.check_isolation().empty());
}

TEST(OrchestratorFailureTest, UnrelatedFailureLeavesChainAlone) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall});
  // Find an OPS not used by the chain and not in the AL.
  OpsId unrelated = OpsId::invalid();
  for (std::size_t i = 0; i < f.topo.ops_count(); ++i) {
    const OpsId o{static_cast<OpsId::value_type>(i)};
    if (f.orch.chains_using_ops(o).empty() && f.manager.ownership().is_free(o)) {
      unrelated = o;
      break;
    }
  }
  if (!unrelated.valid()) GTEST_SKIP() << "fixture too small to have an unrelated OPS";
  const auto rules_before = f.orch.chain(id)->flow_rules;
  const auto repaired = f.orch.handle_ops_failure(unrelated);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, 0u);
  EXPECT_EQ(f.orch.chain(id)->flow_rules, rules_before);
  EXPECT_EQ(f.orch.stats().chains_lost, 0u);
}

TEST(OrchestratorFailureTest, BadOpsIdRejected) {
  FailureFixture f;
  const auto result = f.orch.handle_ops_failure(OpsId{999});
  ASSERT_FALSE(result.has_value());
}

TEST(OrchestratorFailureTest, CascadingFailuresEndInCleanTeardown) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall, VnfType::kNat});
  // Fail every OPS one by one; at some point the chain becomes
  // unrepairable and must be torn down, never left half-dead.
  for (std::size_t i = 0; i < f.topo.ops_count(); ++i) {
    const OpsId o{static_cast<OpsId::value_type>(i)};
    if (!f.topo.ops_usable(o)) continue;
    ALVC_IGNORE_STATUS(f.orch.handle_ops_failure(o),
                       "sweeping failures until the chain dies; teardown-vs-repair is checked after");
    if (f.orch.chain(id) == nullptr) break;
  }
  if (f.orch.chain(id) == nullptr) {
    EXPECT_EQ(f.orch.slices().slice_count(), 0u);
    EXPECT_EQ(f.orch.controller().tables().total_rules(), 0u);
    EXPECT_EQ(f.orch.cloud().lifecycle().active_count(), 0u);
    EXPECT_GE(f.orch.stats().chains_lost, 1u);
  } else {
    // Survived everything: still fully consistent.
    EXPECT_TRUE(f.orch.check_isolation().empty());
  }
}

TEST(OrchestratorFailureTest, RefitRouteMatchesThePlainRouterAndRecoveryStaysClean) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall, VnfType::kNat});
  const auto* host_ops = std::get_if<OpsId>(&f.orch.chain(id)->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr);
  const OpsId victim = *host_ops;

  ASSERT_TRUE(f.orch.handle_ops_failure(victim).has_value());
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());
  EXPECT_TRUE(f.orch.chains_needing_sweep().empty());

  // The refitted route is exactly what the router computes against the
  // same topology state.
  const auto* after = f.orch.chain(id);
  ASSERT_NE(after, nullptr);
  if (!after->degraded) {
    ChainRouter router{f.topo};
    const auto& vc = f.cluster();
    auto fresh =
        router.route(vc, vc.layer.tors.front(), vc.layer.tors.back(), after->placement.hosts);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(after->route.vertices, fresh->vertices);
    EXPECT_EQ(after->route.legs, fresh->legs);
  }

  ASSERT_TRUE(f.orch.handle_ops_recovery(victim).has_value());
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());
  EXPECT_TRUE(f.orch.chains_needing_sweep().empty());
}

TEST(OrchestratorFailureTest, DegradedLadderTracksSliceBandwidthAndEpoch) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall, VnfType::kNat});
  const auto slice_before = f.orch.slices().slice_of_chain(id);
  ASSERT_TRUE(slice_before.has_value());
  const auto epoch_before = slice_before->epoch;

  // Cut every uplink of the egress ToR: no refit can reach it, so the chain
  // parks on the bottom rung of the degraded ladder (reserved 0), and the
  // AL itself goes degraded (the ToR is uncoverable).
  const TorId egress = f.cluster().layer.tors.back();
  const std::vector<OpsId> uplinks = f.topo.tor(egress).uplinks;
  for (OpsId o : uplinks) {
    ASSERT_TRUE(f.orch.handle_link_failure(egress, o).has_value());
    EXPECT_TRUE(f.orch.chains_needing_sweep().empty());
  }
  const auto* parked = f.orch.chain(id);
  ASSERT_NE(parked, nullptr);
  ASSERT_TRUE(parked->degraded);
  EXPECT_LT(parked->reserved_gbps, parked->record.spec.bandwidth_gbps);
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());

  // Restore the links, then tick the recovery clock (the retry queue's
  // deterministic backoff is counted in recovery events) until the retry
  // queue climbs the chain back to full bandwidth.
  for (OpsId o : uplinks) {
    ASSERT_TRUE(f.orch.handle_link_recovery(egress, o).has_value());
  }
  const ServerId clock{0};
  for (int tick = 0; tick < 40 && f.orch.degraded_chain_count() > 0; ++tick) {
    ASSERT_TRUE(f.orch.handle_server_failure(clock).has_value());
    ASSERT_TRUE(f.orch.handle_server_recovery(clock).has_value());
  }
  const auto* restored = f.orch.chain(id);
  ASSERT_NE(restored, nullptr);
  EXPECT_FALSE(restored->degraded);
  EXPECT_DOUBLE_EQ(restored->reserved_gbps, restored->record.spec.bandwidth_gbps);
  const auto slice_after = f.orch.slices().slice_of_chain(id);
  ASSERT_TRUE(slice_after.has_value());
  EXPECT_DOUBLE_EQ(slice_after->bandwidth_gbps, restored->reserved_gbps);
  EXPECT_GE(slice_after->epoch, epoch_before);
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());
  EXPECT_TRUE(f.orch.chains_needing_sweep().empty());
}

TEST(OrchestratorFailureTest, ProvisionTeardownAndRecoveryStayCoherent) {
  // Three services, three clusters: teardown must drop the chain from its
  // cluster's sweep index, and a fault round trip afterwards must account
  // for every chain.
  core::DataCenterConfig config;
  config.topology.rack_count = 6;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 16;
  config.topology.tor_ops_degree = 6;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.service_count = 3;
  config.topology.seed = 11;
  config.seed = 3;
  core::DataCenter dc(config);
  ASSERT_TRUE(dc.build_clusters().has_value());
  for (std::uint32_t s = 0; s < 3; ++s) {
    NfcSpec spec;
    spec.service = ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                      *dc.catalog().find_by_type(VnfType::kNat)};
    ALVC_IGNORE_STATUS(dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "warm-up: capacity conflicts just mean fewer live chains");
  }
  auto& orch = dc.orchestrator();
  const std::size_t before = orch.chain_count();
  ASSERT_GT(before, 0u);

  NfcSpec spec;
  spec.service = ServiceId{0};
  spec.name = "late-chain";
  spec.bandwidth_gbps = 0.5;
  spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall)};
  const auto id = dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
  if (id.has_value()) {
    EXPECT_EQ(orch.chain_count(), before + 1);
    ASSERT_TRUE(dc.teardown_chain(*id).is_ok());
  }
  EXPECT_EQ(orch.chain_count(), before);

  const auto down = orch.handle_ops_failure(OpsId{0});
  ASSERT_TRUE(down.has_value());
  EXPECT_TRUE(orch.chains_needing_sweep().empty());
  const auto up = orch.handle_ops_recovery(OpsId{0});
  ASSERT_TRUE(up.has_value());
  EXPECT_TRUE(orch.chains_needing_sweep().empty());
  EXPECT_EQ(orch.chain_count() + orch.stats().chains_lost, before)
      << "every chain must end live or deliberately lost";
  EXPECT_TRUE(orch.check_isolation().empty());
  EXPECT_TRUE(faults::StateAuditor::audit(orch).empty());
}

TEST(OrchestratorFailureTest, DissolvedAlLeavesNoInstanceOutsideTheSlice) {
  // Rack-local clusters (one per server, one ToR + one window OPS each):
  // failing a ToR dissolves its clusters' ALs, while the OPSs hosting
  // their chains' VNFs stay up — outside every slice now.
  core::DataCenterConfig config;
  config.topology.rack_count = 2;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 4;
  config.topology.tor_ops_degree = 2;
  config.topology.uplink_locality = 1.0;
  config.topology.core = topology::CoreKind::kNone;
  config.topology.optoelectronic_fraction = 1.0;
  config.topology.service_count = 4;
  config.topology.server_local_services = true;
  config.topology.seed = 5;
  config.seed = 5;
  core::DataCenter dc(config);
  ASSERT_TRUE(dc.build_clusters().has_value());
  for (std::uint32_t s = 0; s < 4; ++s) {
    NfcSpec spec;
    spec.service = ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall)};
    ASSERT_TRUE(dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical).has_value());
  }
  auto& orch = dc.orchestrator();
  const TorId tor{0};
  std::vector<OpsId> stranded_hosts;
  for (const ProvisionedChain* chain : orch.chains()) {
    const auto* vc = dc.clusters().find(chain->cluster);
    if (!vc->layer.contains_tor(tor)) continue;
    const auto* ops = std::get_if<OpsId>(&chain->placement.hosts[0]);
    ASSERT_NE(ops, nullptr);
    stranded_hosts.push_back(*ops);
  }
  ASSERT_FALSE(stranded_hosts.empty());

  ASSERT_TRUE(orch.handle_tor_failure(tor).has_value());
  EXPECT_TRUE(orch.chains_needing_sweep().empty());
  // The hosts' failures now fall in no chain's blast radius; nothing may be
  // left running on them.
  for (OpsId ops : stranded_hosts) {
    ASSERT_TRUE(dc.topology().ops_usable(ops));
    ASSERT_TRUE(orch.handle_ops_failure(ops).has_value());
    EXPECT_TRUE(orch.chains_needing_sweep().empty());
  }
  EXPECT_TRUE(faults::StateAuditor::audit(orch).empty());
  for (OpsId ops : stranded_hosts) ASSERT_TRUE(orch.handle_ops_recovery(ops).has_value());
  ASSERT_TRUE(orch.handle_tor_recovery(tor).has_value());
  EXPECT_TRUE(orch.chains_needing_sweep().empty());
  EXPECT_TRUE(faults::StateAuditor::audit(orch).empty());
  EXPECT_EQ(orch.chain_count(), 4u);
}

TEST(OrchestratorFailureTest, AlReshapedOutsideAHandlerIsSweptByTheNextEvent) {
  // One service over every rack, each rack wired to its own window of
  // OPSs. Migrating the members off the racks that uplink the chain's VNF
  // host uncovers those ToRs and releases the host from the AL — a layer
  // change no fault handler reports, so the later failure of the (now
  // free-pool) host is in no handler's blast radius.
  core::DataCenterConfig config;
  config.topology.rack_count = 4;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 8;
  config.topology.tor_ops_degree = 2;
  config.topology.uplink_locality = 1.0;
  config.topology.core = topology::CoreKind::kRing;
  config.topology.optoelectronic_fraction = 1.0;
  config.topology.service_count = 1;
  config.topology.seed = 3;
  config.seed = 3;
  core::DataCenter dc(config);
  ASSERT_TRUE(dc.build_clusters().has_value());
  NfcSpec spec;
  spec.service = ServiceId{0};
  spec.name = "reshaped";
  spec.bandwidth_gbps = 1.0;
  spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall)};
  const auto id = dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
  ASSERT_TRUE(id.has_value());
  auto& orch = dc.orchestrator();
  const ProvisionedChain* chain = orch.chain(*id);
  const auto* host_ptr = std::get_if<OpsId>(&chain->placement.hosts[0]);
  ASSERT_NE(host_ptr, nullptr);
  const OpsId host = *host_ptr;
  const auto& topo = dc.topology();
  const auto uplinks_host = [&](TorId tor) {
    const auto& uplinks = topo.tor(tor).uplinks;
    return std::find(uplinks.begin(), uplinks.end(), host) != uplinks.end();
  };
  const auto* vc = dc.clusters().find(chain->cluster);
  ASSERT_NE(vc, nullptr);
  TorId keep = TorId::invalid();
  for (TorId tor : vc->layer.tors) {
    if (!uplinks_host(tor)) keep = tor;
  }
  ASSERT_TRUE(keep.valid());
  const ServerId target = topo.tor(keep).servers.front();
  const std::vector<alvc::util::VmId> members = vc->vms;
  for (alvc::util::VmId vm : members) {
    if (!uplinks_host(topo.tor_of_vm(vm))) continue;
    ASSERT_TRUE(dc.clusters().migrate_vm(chain->cluster, vm, target).has_value());
  }
  ASSERT_FALSE(dc.clusters().find(chain->cluster)->layer.contains_ops(host));
  ASSERT_TRUE(dc.clusters().ownership().is_free(host));
  // The chain now runs outside its slice until the next event's sweep.
  EXPECT_EQ(orch.chains_needing_sweep(), std::vector<alvc::util::NfcId>{*id});

  ASSERT_TRUE(orch.handle_ops_failure(host).has_value());
  EXPECT_TRUE(orch.chains_needing_sweep().empty());
  EXPECT_TRUE(orch.check_isolation().empty());
  EXPECT_TRUE(faults::StateAuditor::audit(orch).empty());
  for (const auto& placed : orch.chain(*id)->placement.hosts) {
    const auto* ops = std::get_if<OpsId>(&placed);
    EXPECT_TRUE(ops == nullptr || *ops != host);
  }
}

}  // namespace
}  // namespace alvc::orchestrator
