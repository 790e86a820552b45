#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace perfbench {

using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultScheduleParams;
using alvc::faults::LoadEvent;
using alvc::faults::OverloadInjector;
using alvc::nfv::NfcSpec;
using alvc::nfv::PriorityClass;
using alvc::nfv::VnfType;
using alvc::orchestrator::AllocationPolicy;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fault rates shared by the two fault workloads. Per element they are the
// same at every size, so the large DC sees ~16x the event rate and its
// horizon is 1/16 of the mid one: both replay about as many events, and
// only the per-event cost can differ. Server events never touch an AL and
// cost a fraction of the others; servers fail least often so that the
// event-latency median sits inside the costly mode, not on the gap
// between the two.
WorkloadShape fault_family(std::size_t racks, double horizon_s) {
  WorkloadShape s;
  s.racks = racks;
  s.ops = {.mtbf_s = 1500, .mttr_s = 4};
  s.tor = {.mtbf_s = 3000, .mttr_s = 4};
  s.server = {.mtbf_s = 12000, .mttr_s = 4};
  s.link = {.mtbf_s = 2000, .mttr_s = 4};
  s.horizon_s = horizon_s;
  return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"faults-mid", "faults-large", "churn-elastic"};
  return names;
}

WorkloadShape workload_shape(const std::string& name, bool tiny) {
  if (name == "faults-mid") {
    return tiny ? fault_family(16, 10000) : fault_family(256, 1000);
  }
  if (name == "faults-large") {
    // 16x the racks of faults-mid at 1/16 of its horizon.
    return tiny ? fault_family(32, 5000) : fault_family(4096, 1000.0 / 16);
  }
  if (name == "churn-elastic") {
    WorkloadShape s;
    s.racks = tiny ? 16 : 128;
    s.racks_per_service = 2.5;
    s.policy = AllocationPolicy::kPriorityDowngrade;
    s.baseline_stride = 2;
    // A light fault rate: the cluster layer stays a minor share here. The
    // tiny instance fails 4x as often so every schedule still has faults.
    const double mtbf = tiny ? 0.25 : 1.0;
    s.ops = {.mtbf_s = 2000 * mtbf, .mttr_s = 8};
    s.tor = {.mtbf_s = 4000 * mtbf, .mttr_s = 8};
    s.server = {.mtbf_s = 4000 * mtbf, .mttr_s = 8};
    s.link = {.mtbf_s = 3000 * mtbf, .mttr_s = 8};
    s.horizon_s = tiny ? 150 : 600;
    s.churn_rate_per_s = tiny ? 2.0 : 5.0;
    s.churn_hold_s = tiny ? 1.0 : 2.0;
    s.tick_period_s = 0.2;
    return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kFault: return "fault";
    case EventKind::kRecovery: return "recovery";
    case EventKind::kProvision: return "provision";
    case EventKind::kTeardown: return "teardown";
    case EventKind::kTick: return "tick";
  }
  return "?";
}

namespace {

// The layout family: 4 servers x 4 VMs per rack, 2 OPSs per rack, and 3
// uplinks per ToR into the rack's own OPS window.
constexpr std::size_t kServersPerRack = 4;
constexpr std::size_t kVmsPerServer = 4;
constexpr std::size_t kOpsPerRack = 2;
constexpr std::size_t kTorUplinks = 3;
/// Demand of a baseline chain; load demands are multiples of it.
constexpr double kChainGbps = 2.0;
constexpr double kDiurnalPeriodS = 40;

NfcSpec chain_spec(const alvc::nfv::VnfCatalog& catalog, std::uint32_t service, double gbps,
                   PriorityClass cls) {
  NfcSpec spec;
  spec.service = alvc::util::ServiceId{service};
  spec.name = "svc-" + std::to_string(service);
  spec.bandwidth_gbps = gbps;
  spec.priority = cls;
  // Alternate 2- and 3-function chains.
  spec.functions = {*catalog.find_by_type(VnfType::kFirewall)};
  if (service % 2 == 1) spec.functions.push_back(*catalog.find_by_type(VnfType::kLoadBalancer));
  spec.functions.push_back(*catalog.find_by_type(VnfType::kNat));
  return spec;
}

alvc::elastic::ElasticParams elastic_params(const WorkloadShape& shape, std::uint64_t seed) {
  alvc::elastic::ElasticParams params;
  params.demand.seed = seed * 5 + 2;
  params.demand.horizon_s = shape.horizon_s;
  // A loop fast enough to scale, scale back and migrate within the
  // horizon; the caps fit the generated 4-core optoelectronic routers.
  params.scaling.cooldown_s = 1.0;
  params.scaling.max_scale = 2.0;
  params.migration.hot_utilization = 0.6;
  params.migration.cooldown_s = 2.0;
  params.mode = alvc::elastic::ExecutionMode::kIncremental;
  return params;
}

}  // namespace

Scenario build_scenario(const WorkloadShape& shape, std::uint64_t seed) {
  Scenario sc;
  auto start = Clock::now();

  alvc::core::DataCenterConfig config;
  config.topology.rack_count = shape.racks;
  config.topology.servers_per_rack = kServersPerRack;
  config.topology.vms_per_server = kVmsPerServer;
  config.topology.ops_count = shape.racks * kOpsPerRack;
  config.topology.tor_ops_degree = kTorUplinks;
  config.topology.uplink_locality = 1.0;
  config.topology.core = alvc::topology::CoreKind::kRing;
  config.topology.service_count = shape.services();
  config.topology.server_local_services = true;
  // The layout is fixed per workload; the seed drives the event schedules.
  config.topology.seed = 42;
  config.seed = 42;
  sc.dc = std::make_unique<alvc::core::DataCenter>(config);
  sc.setup.topology_s = seconds_since(start);

  start = Clock::now();
  if (auto built = sc.dc->build_clusters(); !built.has_value()) {
    throw std::runtime_error("build_clusters: " + built.error().to_string());
  }
  sc.setup.clusters_s = seconds_since(start);

  start = Clock::now();
  auto& orch = sc.dc->orchestrator();
  orch.set_allocation_policy(shape.policy);
  sc.placement = std::make_unique<alvc::orchestrator::GreedyOpticalPlacement>();
  const auto& catalog = sc.dc->catalog();
  for (std::uint32_t s = 0; s < shape.services(); s += shape.baseline_stride) {
    auto id = orch.provision_chain(chain_spec(catalog, s, kChainGbps, PriorityClass::kHipri),
                                   *sc.placement);
    if (!id.has_value()) {
      throw std::runtime_error("baseline chain for service " + std::to_string(s) + ": " +
                               id.error().to_string());
    }
    sc.baseline_chains.push_back(id->value());
  }
  if (shape.tick_period_s > 0) {
    sc.elastic = std::make_unique<alvc::elastic::ElasticController>(orch, *sc.placement,
                                                                    elastic_params(shape, seed));
  }
  sc.setup.provision_s = seconds_since(start);

  // ---- schedules (benchmark input; not part of set-up time) ----
  const auto& topo = sc.dc->topology();
  FaultScheduleParams fp{.ops = shape.ops,
                         .tor = shape.tor,
                         .server = shape.server,
                         .link = shape.link,
                         .horizon_s = shape.horizon_s,
                         .seed = seed};
  sc.faults = FaultInjector::generate(topo, fp);
  {
    const auto clusters = sc.dc->clusters().clusters();
    const auto* victim = clusters[(seed * 2654435761u) % clusters.size()];
    const auto al = FaultInjector::whole_al(*victim, shape.horizon_s / 3, shape.horizon_s / 20,
                                            shape.horizon_s / 400);
    const alvc::util::TorId rack{
        static_cast<std::uint32_t>((seed * 40503u + 17) % topo.tor_count())};
    const auto rack_out =
        FaultInjector::whole_rack(topo, rack, 2 * shape.horizon_s / 3, shape.horizon_s / 20);
    sc.faults.insert(sc.faults.end(), al.begin(), al.end());
    sc.faults.insert(sc.faults.end(), rack_out.begin(), rack_out.end());
    std::stable_sort(sc.faults.begin(), sc.faults.end(),
                     [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  }

  if (shape.churn_rate_per_s > 0) {
    // Load lands on the services without a baseline chain, whose boundary
    // ToRs they share with baseline services. LOPRI churn everywhere; a
    // flash crowd and a diurnal ramp of HIPRI demands above one 10 Gbps
    // port, which QoS admission grants at a reduced rung.
    std::vector<NfcSpec> lopri;
    std::vector<NfcSpec> crowd;
    std::vector<NfcSpec> heavy;
    for (std::uint32_t s = 0; s < shape.services(); ++s) {
      if (s % shape.baseline_stride == 0) continue;
      lopri.push_back(chain_spec(catalog, s, 4 * kChainGbps, PriorityClass::kLopri));
      if (lopri.size() % 3 == 1) {
        crowd.push_back(chain_spec(catalog, s, 6 * kChainGbps, PriorityClass::kHipri));
      } else if (lopri.size() % 3 == 2 && heavy.size() < 4) {
        heavy.push_back(chain_spec(catalog, s, 8 * kChainGbps, PriorityClass::kHipri));
      }
    }
    sc.load = OverloadInjector::lopri_churn(lopri, shape.churn_rate_per_s, shape.churn_hold_s,
                                            shape.horizon_s, seed * 11 + 3, /*first_key=*/0);
    const auto flash = OverloadInjector::flash_crowd(crowd, shape.horizon_s / 2, 0.05,
                                                     shape.horizon_s / 10, /*first_key=*/1u << 20);
    const auto ramp = OverloadInjector::diurnal_ramp(heavy, kDiurnalPeriodS,
                                                     shape.horizon_s, /*first_key=*/1u << 21);
    sc.load.insert(sc.load.end(), flash.begin(), flash.end());
    sc.load.insert(sc.load.end(), ramp.begin(), ramp.end());
    std::stable_sort(sc.load.begin(), sc.load.end(),
                     [](const LoadEvent& a, const LoadEvent& b) { return a.time_s < b.time_s; });
  }

  // Merge: on a time tie a fault lands before a load event, and a tick
  // after both, so a tick observes the event that just landed.
  for (std::size_t i = 0; i < sc.faults.size(); ++i) {
    const FaultEvent& f = sc.faults[i];
    sc.events.push_back({f.time_s, f.failure ? EventKind::kFault : EventKind::kRecovery, i});
  }
  for (std::size_t i = 0; i < sc.load.size(); ++i) {
    const LoadEvent& l = sc.load[i];
    sc.events.push_back({l.time_s, l.provision ? EventKind::kProvision : EventKind::kTeardown, i});
  }
  if (shape.tick_period_s > 0) {
    for (double t = shape.tick_period_s; t < shape.horizon_s; t += shape.tick_period_s) {
      sc.events.push_back({t, EventKind::kTick, 0});
    }
  }
  std::stable_sort(sc.events.begin(), sc.events.end(),
                   [](const ReplayEvent& a, const ReplayEvent& b) { return a.time_s < b.time_s; });
  return sc;
}

}  // namespace perfbench
