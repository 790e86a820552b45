// End-to-end randomized soak: one DataCenter, hundreds of interleaved
// operations across every subsystem (chains up/down, VM churn, VNF scaling,
// OPS failures, migrations, re-optimizations), with full invariant checks
// after every step. This is the test that catches cross-module state leaks.
#include <gtest/gtest.h>

#include "core/alvc.h"
#include "util/error.h"

namespace alvc::core {
namespace {

using nfv::VnfType;

class SoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoakTest, HundredsOfMixedOperationsKeepEveryInvariant) {
  DataCenterConfig config;
  config.topology.rack_count = 10;
  config.topology.ops_count = 48;
  config.topology.tor_ops_degree = 12;
  config.topology.service_count = 3;
  config.topology.optoelectronic_fraction = 0.5;
  config.topology.core = topology::CoreKind::kTorus2D;
  config.topology.seed = GetParam();
  // Pin the DC-level seed too (it feeds RandomAlBuilder et al.); relying
  // on the default made the run only partially a function of GetParam().
  config.seed = GetParam();
  DataCenter dc(config);
  ASSERT_TRUE(dc.build_clusters().has_value());

  util::Rng rng(GetParam() * 7 + 3);
  std::vector<util::NfcId> live_chains;
  std::size_t failures_injected = 0;

  const auto make_spec = [&](std::uint32_t service) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{service};
    spec.name = "soak";
    spec.bandwidth_gbps = 1.0;
    const std::array<VnfType, 4> pool{VnfType::kFirewall, VnfType::kNat,
                                      VnfType::kLoadBalancer, VnfType::kSecurityGateway};
    const std::size_t len = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < len; ++i) {
      spec.functions.push_back(*dc.catalog().find_by_type(pool[rng.uniform_index(pool.size())]));
    }
    return spec;
  };

  for (int step = 0; step < 400; ++step) {
    const double action = rng.uniform01();
    if (action < 0.25) {
      // Provision a chain on a random service (may conflict: fine).
      const auto id = dc.provision_chain(
          make_spec(static_cast<std::uint32_t>(rng.uniform_index(3))),
          core::PlacementAlgorithm::kGreedyOptical);
      if (id) live_chains.push_back(*id);
    } else if (action < 0.4 && !live_chains.empty()) {
      const std::size_t i = rng.uniform_index(live_chains.size());
      ALVC_IGNORE_STATUS(dc.teardown_chain(live_chains[i]),
                         "soak: the per-step invariant sweep is the oracle");
      live_chains.erase(live_chains.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (action < 0.55) {
      // VM churn on a random cluster.
      const auto clusters = dc.clusters().clusters();
      const auto* vc = clusters[rng.uniform_index(clusters.size())];
      if (!vc->vms.empty()) {
        const auto vm = vc->vms[rng.uniform_index(vc->vms.size())];
        const util::ServerId target{static_cast<util::ServerId::value_type>(
            rng.uniform_index(dc.topology().server_count()))};
        ALVC_IGNORE_STATUS(dc.clusters().migrate_vm(vc->id, vm, target),
                           "soak: an infeasible migration is a legal no-op");
      }
    } else if (action < 0.65 && !live_chains.empty()) {
      ALVC_IGNORE_STATUS(
          dc.orchestrator().scale_function(live_chains[rng.uniform_index(live_chains.size())], 0,
                                           1.0 + rng.uniform01()),
          "soak: scaling a chain that may have died is a legal no-op");
    } else if (action < 0.75 && failures_injected < 6) {
      const util::OpsId victim{static_cast<util::OpsId::value_type>(
          rng.uniform_index(dc.topology().ops_count()))};
      if (dc.topology().ops_usable(victim)) {
        ALVC_IGNORE_STATUS(dc.orchestrator().handle_ops_failure(victim),
                           "soak: recovery quality is judged by the invariant sweep");
        ++failures_injected;
        // The event's sweep also settles every AL the migrations and
        // re-optimisations since the last event reshaped.
        ASSERT_TRUE(dc.orchestrator().chains_needing_sweep().empty()) << "step " << step;
        // handle_ops_failure may tear chains down; resync our list.
        std::erase_if(live_chains, [&](util::NfcId id) {
          return dc.orchestrator().chain(id) == nullptr;
        });
      }
    } else if (action < 0.85) {
      const auto clusters = dc.clusters().clusters();
      const auto* vc = clusters[rng.uniform_index(clusters.size())];
      const cluster::VertexCoverAlBuilder builder;
      ALVC_IGNORE_STATUS(dc.clusters().reoptimize_cluster(vc->id, builder),
                         "soak: a skipped reoptimization is acceptable");
    } else if (!live_chains.empty()) {
      // Operator migration of function 0 toward a random slice server.
      const auto id = live_chains[rng.uniform_index(live_chains.size())];
      const auto* chain = dc.orchestrator().chain(id);
      if (chain != nullptr) {
        const auto* vc = dc.clusters().find(chain->cluster);
        if (vc != nullptr && !vc->layer.tors.empty()) {
          const auto& tor = dc.topology().tor(vc->layer.tors.front());
          if (!tor.servers.empty()) {
            ALVC_IGNORE_STATUS(
                dc.orchestrator().migrate_function(
                    id, 0, nfv::HostRef{tor.servers[rng.uniform_index(tor.servers.size())]}),
                "soak: an unplaceable operator migration is a legal no-op");
          }
        }
      }
    }

    // Invariants, every step.
    const auto cluster_violations = dc.clusters().check_invariants();
    ASSERT_TRUE(cluster_violations.empty())
        << "step " << step << ": " << cluster_violations.front();
    const auto isolation = dc.orchestrator().check_isolation();
    ASSERT_TRUE(isolation.empty()) << "step " << step << ": " << isolation.front();
    ASSERT_TRUE(dc.orchestrator().cloud().pool().is_consistent()) << "step " << step;
  }
  // Teardown everything; the DC must come back to a clean slate.
  for (auto id : live_chains) {
    ALVC_IGNORE_STATUS(dc.teardown_chain(id), "final drain: emptiness is asserted below");
  }
  EXPECT_EQ(dc.orchestrator().slices().slice_count(), 0u);
  EXPECT_EQ(dc.orchestrator().cloud().lifecycle().active_count(), 0u);
  EXPECT_EQ(dc.orchestrator().controller().tables().total_rules(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace alvc::core
