// Seed sweep over the serial AL build (paper §III-C, Fig. 4).
//
// For every AlBuilder variant and a sweep of seeded random topologies whose
// OPS pools are tight enough that service groups really do contend for
// switches, the build and an in-order re-optimisation pass must keep the
// manager's invariants and the paper's one-AL-per-OPS constraint. Both
// must also be reproducible: a second manager built from the same seed
// ends with the same ids, ALs, ownership, costs and errors.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/service.h"
#include "topology/builder.h"

namespace alvc::cluster {
namespace {

using alvc::topology::CoreKind;
using alvc::topology::DataCenterTopology;
using alvc::topology::TopologyParams;
using alvc::util::ClusterId;
using alvc::util::OpsId;

constexpr std::uint64_t kTopologySeeds = 20;

/// Contended topologies: 4 service groups over a modest OPS pool, random
/// wiring, so groups frequently compete for the same switches. A few of
/// the 20 seeds are infeasible on purpose — errors must reproduce too.
TopologyParams make_params(std::uint64_t seed) {
  TopologyParams params;
  params.rack_count = 12;
  params.servers_per_rack = 3;
  params.vms_per_server = 3;
  params.ops_count = 24;
  params.tor_ops_degree = 6;
  params.core = CoreKind::kTorus2D;
  params.service_count = 4;
  params.service_skew = 0.6;
  params.dual_homing_probability = 0.1;
  params.optoelectronic_fraction = 0.5;
  params.seed = seed;
  return params;
}

std::vector<std::unique_ptr<AlBuilder>> all_builders() {
  std::vector<std::unique_ptr<AlBuilder>> builders;
  builders.push_back(std::make_unique<VertexCoverAlBuilder>());
  builders.push_back(std::make_unique<RandomAlBuilder>(/*seed=*/42));
  builders.push_back(std::make_unique<GreedySetCoverAlBuilder>());
  builders.push_back(std::make_unique<ResilientAlBuilder>());
  // Small node budget keeps exact branch-and-bound fast on these sizes.
  builders.push_back(std::make_unique<ExactAlBuilder>(AlBuilderOptions{}, /*node_budget=*/200'000));
  return builders;
}

std::string describe(const VirtualCluster& vc) {
  std::ostringstream os;
  os << "cluster " << vc.id.value() << " service " << vc.service.value() << " connected "
     << vc.connected << " vms[";
  for (auto vm : vc.vms) os << vm.value() << ",";
  os << "] tors[";
  for (auto t : vc.layer.tors) os << t.value() << ",";
  os << "] opss[";
  for (auto o : vc.layer.opss) os << o.value() << ",";
  os << "]";
  return os.str();
}

/// Full deep-equality between two managers' states: clusters (ids,
/// services, members, AL ToRs/OPSs, flags) and per-OPS ownership.
void expect_identical_state(const ClusterManager& first, const ClusterManager& second,
                            const std::string& context) {
  ASSERT_EQ(first.cluster_count(), second.cluster_count()) << context;
  const auto lhs = first.clusters();
  const auto rhs = second.clusters();
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i]->id, rhs[i]->id) << context;
    EXPECT_EQ(lhs[i]->service, rhs[i]->service) << context;
    EXPECT_EQ(lhs[i]->vms, rhs[i]->vms) << context;
    EXPECT_EQ(lhs[i]->layer.tors, rhs[i]->layer.tors)
        << context << "\nfirst:  " << describe(*lhs[i]) << "\nsecond: " << describe(*rhs[i]);
    EXPECT_EQ(lhs[i]->layer.opss, rhs[i]->layer.opss)
        << context << "\nfirst:  " << describe(*lhs[i]) << "\nsecond: " << describe(*rhs[i]);
    EXPECT_EQ(lhs[i]->connected, rhs[i]->connected) << context;
    EXPECT_EQ(lhs[i]->degraded, rhs[i]->degraded) << context;
  }
  ASSERT_EQ(first.ownership().ops_count(), second.ownership().ops_count()) << context;
  for (std::size_t o = 0; o < first.ownership().ops_count(); ++o) {
    const OpsId ops{static_cast<OpsId::value_type>(o)};
    EXPECT_EQ(first.ownership().owner(ops), second.ownership().owner(ops))
        << context << " OPS " << o;
  }
}

/// The paper's hard constraint, checked directly on top of the manager's
/// own invariant sweep: every OPS has at most one owner and every owner
/// lists it.
void expect_exclusive_ownership(const ClusterManager& manager, const std::string& context) {
  const auto violations = manager.check_invariants();
  EXPECT_TRUE(violations.empty()) << context << ": " << violations.front();
  std::vector<int> owners(manager.topology().ops_count(), 0);
  for (const VirtualCluster* vc : manager.clusters()) {
    for (OpsId o : vc->layer.opss) owners[o.index()] += 1;
  }
  for (std::size_t o = 0; o < owners.size(); ++o) {
    EXPECT_LE(owners[o], 1) << context << ": OPS " << o << " in more than one AL";
  }
}

/// Outcome of one in-order reoptimize_cluster pass: the cost of every
/// cluster up to the first error, and that error ("" when none).
struct ReoptimizePass {
  std::vector<UpdateCost> costs;
  std::string error;
};

ReoptimizePass reoptimize_in_order(ClusterManager& manager, const std::vector<ClusterId>& ids,
                                   const AlBuilder& builder) {
  ReoptimizePass pass;
  for (ClusterId id : ids) {
    auto cost = manager.reoptimize_cluster(id, builder);
    if (!cost) {
      pass.error = cost.error().to_string();
      break;
    }
    pass.costs.push_back(*cost);
  }
  return pass;
}

class BuildSeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuildSeedSweepTest, BuildIsReproducibleForEveryBuilder) {
  for (const auto& builder : all_builders()) {
    DataCenterTopology first_topo = alvc::topology::build_topology(make_params(GetParam()));
    DataCenterTopology second_topo = alvc::topology::build_topology(make_params(GetParam()));
    ClusterManager first(first_topo);
    ClusterManager second(second_topo);

    const std::string context =
        "builder=" + std::string(builder->name()) + " seed=" + std::to_string(GetParam());
    auto first_ids = first.create_clusters_by_service(*builder);
    auto second_ids = second.create_clusters_by_service(*builder);

    ASSERT_EQ(first_ids.has_value(), second_ids.has_value()) << context;
    if (first_ids) {
      EXPECT_EQ(*first_ids, *second_ids) << context;
    } else {
      EXPECT_EQ(first_ids.error().to_string(), second_ids.error().to_string()) << context;
    }
    expect_identical_state(first, second, context);
    expect_exclusive_ownership(first, context);
  }
}

TEST_P(BuildSeedSweepTest, InOrderReoptimizeIsReproducibleForEveryBuilder) {
  for (const auto& builder : all_builders()) {
    DataCenterTopology first_topo = alvc::topology::build_topology(make_params(GetParam()));
    DataCenterTopology second_topo = alvc::topology::build_topology(make_params(GetParam()));
    ClusterManager first(first_topo);
    ClusterManager second(second_topo);

    const std::string context = "reopt builder=" + std::string(builder->name()) +
                                " seed=" + std::to_string(GetParam());
    // Seed both managers with the paper's algorithm, then reoptimize with
    // the builder under test (mirrors the churn-then-reoptimize workflow).
    const VertexCoverAlBuilder seed_builder;
    auto first_ids = first.create_clusters_by_service(seed_builder);
    auto second_ids = second.create_clusters_by_service(seed_builder);
    ASSERT_EQ(first_ids.has_value(), second_ids.has_value()) << context;
    if (!first_ids) continue;  // covered by the build sweep above

    const ReoptimizePass first_pass = reoptimize_in_order(first, *first_ids, *builder);
    const ReoptimizePass second_pass = reoptimize_in_order(second, *second_ids, *builder);
    EXPECT_EQ(first_pass.error, second_pass.error) << context;
    ASSERT_EQ(first_pass.costs.size(), second_pass.costs.size()) << context;
    for (std::size_t i = 0; i < first_pass.costs.size(); ++i) {
      EXPECT_EQ(first_pass.costs[i].flow_rules, second_pass.costs[i].flow_rules) << context;
      EXPECT_EQ(first_pass.costs[i].tor_changes, second_pass.costs[i].tor_changes) << context;
      EXPECT_EQ(first_pass.costs[i].ops_changes, second_pass.costs[i].ops_changes) << context;
    }
    expect_identical_state(first, second, context);
    expect_exclusive_ownership(first, context);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuildSeedSweepTest,
                         ::testing::Range<std::uint64_t>(1, kTopologySeeds + 1));

}  // namespace
}  // namespace alvc::cluster
