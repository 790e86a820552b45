#include "orchestrator/orchestrator.h"

#include <algorithm>
#include <unordered_set>

#include "telemetry/telemetry.h"

namespace alvc::orchestrator {

using alvc::cluster::VirtualCluster;
using alvc::nfv::HostRef;
using alvc::util::ClusterId;
using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::Expected;
using alvc::util::ServiceId;
using alvc::util::Status;

NetworkOrchestrator::NetworkOrchestrator(alvc::cluster::ClusterManager& clusters,
                                         const alvc::nfv::VnfCatalog& catalog)
    : clusters_(&clusters),
      catalog_(&catalog),
      cloud_(catalog, clusters.topology()),
      controller_(clusters.topology()),
      admission_(clusters.topology(), catalog),
      bandwidth_(clusters.topology()),
      router_(clusters.topology()) {}

Expected<ChainRoute> NetworkOrchestrator::route_linear(const VirtualCluster& vc,
                                                       std::span<const HostRef> hosts) const {
  return router_.route(vc, vc.layer.tors.front(), vc.layer.tors.back(), hosts);
}

const VirtualCluster* NetworkOrchestrator::cluster_for_service(ServiceId service) const {
  return clusters_->find_by_service(service);
}

Expected<NfcId> NetworkOrchestrator::provision_chain(const alvc::nfv::NfcSpec& spec,
                                                     const PlacementStrategy& placement) {
  ALVC_SPAN(span, "orchestrator.provision_chain");
  const VirtualCluster* vc = cluster_for_service(spec.service);
  if (vc == nullptr) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return Error{ErrorCode::kNotFound,
                 "no cluster serves service " + std::to_string(spec.service.value())};
  }
  if (vc->layer.tors.empty()) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return Error{ErrorCode::kInfeasible, "cluster has an empty abstraction layer"};
  }
  const AdmissionDecision admitted =
      admission_.admit_with_policy(spec, *vc, cloud_.pool(), allocator_.policy());
  if (!admitted.status.is_ok()) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return admitted.status.error();
  }
  // Under a QoS policy admission may grant a lower ladder rung than the
  // spec demands (admit-with-downgrade); everything downstream provisions
  // at the granted rate.
  const double granted_gbps = admitted.granted_gbps;
  const NfcId id{next_id_++};
  auto slice = slices_.allocate(vc->id, id, granted_gbps, spec.priority);
  if (!slice) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return slice.error();
  }

  PlacementContext context{.topo = &clusters_->topology(),
                           .cluster = vc,
                           .catalog = catalog_,
                           .pool = &cloud_.pool()};
  auto placed = placement.place(spec, context);
  if (!placed) {
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return placed.error();
  }
  // place() reserved capacity directly in the pool; release those raw
  // reservations and re-reserve through the cloud manager so lifecycle and
  // capacity stay coupled.
  for (std::size_t i = 0; i < placed->hosts.size(); ++i) {
    cloud_.pool().release(placed->hosts[i],
                          catalog_->descriptor(spec.functions[i]).demand);
  }
  std::vector<alvc::nfv::VnfInstanceId> instances;
  bool deploy_failed = false;
  for (std::size_t i = 0; i < placed->hosts.size(); ++i) {
    auto inst = cloud_.deploy(spec.functions[i], placed->hosts[i]);
    if (!inst) {
      deploy_failed = true;
      break;
    }
    instances.push_back(*inst);
  }
  if (deploy_failed) {
    for (auto inst : instances) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                         "unwinding a failed provision; the instance is dead either way");
    }
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return Error{ErrorCode::kInternal, "deployment failed after successful placement"};
  }

  // Route ingress ToR -> hosts -> egress ToR inside the slice. Default
  // anchors: the cluster's first and last ToRs.
  const alvc::util::TorId ingress = vc->layer.tors.front();
  const alvc::util::TorId egress = vc->layer.tors.back();
  auto route = load_balanced_routing_
                   ? router_.route_balanced(*vc, ingress, egress, placed->hosts, bandwidth_,
                                            routing_k_)
                   : route_linear(*vc, placed->hosts);
  if (!route) {
    for (auto inst : instances) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                         "unwinding a failed provision; the instance is dead either way");
    }
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return route.error();
  }
  std::size_t rules = 0;
  for (const auto& leg : route->legs) {
    if (auto status = controller_.install_path(id, leg); !status.is_ok()) {
      controller_.remove_chain(id);
      for (auto inst : instances) {
        ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                           "unwinding a failed provision; the instance is dead either way");
      }
      ALVC_IGNORE_STATUS(slices_.release(id),
                         "unwinding a failed provision; slice just allocated");
      ++stats_.provision_failures;
      ALVC_COUNT("orchestrator.provision.failures");
      return status.error();
    }
  }
  if (auto status = bandwidth_.reserve_walk(route->vertices, granted_gbps); !status.is_ok()) {
    controller_.remove_chain(id);
    for (auto inst : instances) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                         "unwinding a failed provision; the instance is dead either way");
    }
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return status.error();
  }
  rules = controller_.chain_rule_count(id);

  ALVC_OBSERVE("orchestrator.route.path_length", 0, 64, 32,
               static_cast<double>(route->vertices.size()));
  ALVC_OBSERVE("orchestrator.route.conversions", 0, 16, 16,
               static_cast<double>(placed->conversions.mid_chain));
  // Without the abstraction layer every inter-function hop would cost an
  // O/E/O conversion; mid-chain conversions actually incurred are the rest.
  ALVC_COUNT_N("orchestrator.oeo.conversions_saved",
               spec.functions.size() > placed->conversions.mid_chain
                   ? spec.functions.size() - placed->conversions.mid_chain
                   : 0);

  ProvisionedChain chain{.record = alvc::nfv::NfcRecord{.id = id, .spec = spec},
                         .cluster = vc->id,
                         .slice = *slice,
                         .instances = std::move(instances),
                         .placement = std::move(*placed),
                         .route = std::move(*route),
                         .flow_rules = rules,
                         .reserved_gbps = granted_gbps};
  auto [chain_it, inserted] = chains_.emplace(id, std::move(chain));
  auto& members = chains_by_cluster_[vc->id];
  members.insert(std::upper_bound(members.begin(), members.end(), id), id);
  log_.append(sdn::ControlEventType::kSliceAllocated, slice->value());
  log_.append(sdn::ControlEventType::kChainProvisioned, id.value(), spec.name);
  ++stats_.chains_provisioned;
  ALVC_COUNT("orchestrator.chains.provisioned");
  if (granted_gbps + 1e-9 < spec.bandwidth_gbps) {
    ++stats_.chains_admitted_downgraded;
    mark_degraded(chain_it->second, granted_gbps / spec.bandwidth_gbps,
                  "admitted at reduced bandwidth under overload");
  }
  rebalance_bandwidth();  // no-op under kStrictLadder
  return id;
}

Expected<NfcId> NetworkOrchestrator::provision_forwarding_graph(
    const alvc::nfv::GraphNfcSpec& gspec, const PlacementStrategy& placement) {
  ALVC_SPAN(span, "orchestrator.provision_forwarding_graph");
  if (auto status = gspec.graph.validate(); !status.is_ok()) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return status.error();
  }
  const alvc::nfv::NfcSpec spec = gspec.to_linear_spec();
  const VirtualCluster* vc = cluster_for_service(spec.service);
  if (vc == nullptr) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return Error{ErrorCode::kNotFound,
                 "no cluster serves service " + std::to_string(spec.service.value())};
  }
  if (vc->layer.tors.empty()) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return Error{ErrorCode::kInfeasible, "cluster has an empty abstraction layer"};
  }
  const AdmissionDecision admitted =
      admission_.admit_with_policy(spec, *vc, cloud_.pool(), allocator_.policy());
  if (!admitted.status.is_ok()) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return admitted.status.error();
  }
  const double granted_gbps = admitted.granted_gbps;
  const NfcId id{next_id_++};
  auto slice = slices_.allocate(vc->id, id, granted_gbps, spec.priority);
  if (!slice) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return slice.error();
  }

  PlacementContext context{.topo = &clusters_->topology(),
                           .cluster = vc,
                           .catalog = catalog_,
                           .pool = &cloud_.pool()};
  auto placed = placement.place(spec, context);
  if (!placed) {
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return placed.error();
  }
  for (std::size_t i = 0; i < placed->hosts.size(); ++i) {
    cloud_.pool().release(placed->hosts[i], catalog_->descriptor(spec.functions[i]).demand);
  }
  std::vector<alvc::nfv::VnfInstanceId> instances;
  bool deploy_failed = false;
  for (std::size_t i = 0; i < placed->hosts.size(); ++i) {
    auto inst = cloud_.deploy(spec.functions[i], placed->hosts[i]);
    if (!inst) {
      deploy_failed = true;
      break;
    }
    instances.push_back(*inst);
  }
  if (deploy_failed) {
    for (auto inst : instances) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                         "unwinding a failed provision; the instance is dead either way");
    }
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return Error{ErrorCode::kInternal, "deployment failed after successful placement"};
  }

  // Map topological placement order back to node indices for routing.
  const auto order = gspec.graph.topological_order();
  std::vector<HostRef> node_hosts(order.size(), HostRef{alvc::util::ServerId{0}});
  for (std::size_t i = 0; i < order.size(); ++i) node_hosts[order[i]] = placed->hosts[i];

  const alvc::util::TorId ingress = vc->layer.tors.front();
  const alvc::util::TorId egress = vc->layer.tors.back();
  auto route = router_.route_graph(*vc, ingress, egress, gspec.graph, node_hosts);
  if (!route) {
    for (auto inst : instances) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                         "unwinding a failed provision; the instance is dead either way");
    }
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return route.error();
  }
  for (const auto& leg : route->legs) {
    if (auto status = controller_.install_path(id, leg); !status.is_ok()) {
      controller_.remove_chain(id);
      for (auto inst : instances) {
        ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                           "unwinding a failed provision; the instance is dead either way");
      }
      ALVC_IGNORE_STATUS(slices_.release(id),
                         "unwinding a failed provision; slice just allocated");
      ++stats_.provision_failures;
      ALVC_COUNT("orchestrator.provision.failures");
      return status.error();
    }
  }
  if (auto status = bandwidth_.reserve_walk(route->vertices, granted_gbps); !status.is_ok()) {
    controller_.remove_chain(id);
    for (auto inst : instances) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                         "unwinding a failed provision; the instance is dead either way");
    }
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return status.error();
  }
  // The DAG's conversion count is authoritative for this chain.
  placed->conversions = route->conversions;

  ALVC_OBSERVE("orchestrator.route.path_length", 0, 64, 32,
               static_cast<double>(route->vertices.size()));
  ALVC_OBSERVE("orchestrator.route.conversions", 0, 16, 16,
               static_cast<double>(placed->conversions.mid_chain));
  ALVC_COUNT_N("orchestrator.oeo.conversions_saved",
               spec.functions.size() > placed->conversions.mid_chain
                   ? spec.functions.size() - placed->conversions.mid_chain
                   : 0);

  ProvisionedChain chain{.record = alvc::nfv::NfcRecord{.id = id, .spec = spec},
                         .cluster = vc->id,
                         .slice = *slice,
                         .instances = std::move(instances),
                         .placement = std::move(*placed),
                         .route = std::move(*route),
                         .flow_rules = controller_.chain_rule_count(id),
                         .graph = gspec.graph,
                         .forwarding_order = order,
                         .reserved_gbps = granted_gbps};
  auto [chain_it, inserted] = chains_.emplace(id, std::move(chain));
  auto& members = chains_by_cluster_[vc->id];
  members.insert(std::upper_bound(members.begin(), members.end(), id), id);
  log_.append(sdn::ControlEventType::kSliceAllocated, slice->value());
  log_.append(sdn::ControlEventType::kChainProvisioned, id.value(), spec.name);
  ++stats_.chains_provisioned;
  ALVC_COUNT("orchestrator.chains.provisioned");
  if (granted_gbps + 1e-9 < spec.bandwidth_gbps) {
    ++stats_.chains_admitted_downgraded;
    mark_degraded(chain_it->second, granted_gbps / spec.bandwidth_gbps,
                  "admitted at reduced bandwidth under overload");
  }
  rebalance_bandwidth();  // no-op under kStrictLadder
  return id;
}

Status NetworkOrchestrator::teardown_chain(NfcId id) {
  ALVC_SPAN(span, "orchestrator.teardown_chain");
  const auto it = chains_.find(id);
  if (it == chains_.end()) {
    return Error{ErrorCode::kNotFound, "no chain " + std::to_string(id.value())};
  }
  controller_.remove_chain(id);
  for (auto inst : it->second.instances) {
    // Degraded slots hold invalid ids; live ones must go regardless.
    if (inst.valid()) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst), "teardown: chain is going away regardless");
    }
  }
  bandwidth_.release_walk(it->second.route.vertices, it->second.reserved_gbps);
  ALVC_IGNORE_STATUS(slices_.release(id), "teardown: chain is going away regardless");
  const auto members = chains_by_cluster_.find(it->second.cluster);
  std::erase(members->second, id);
  if (members->second.empty()) chains_by_cluster_.erase(members);
  chains_.erase(it);
  log_.append(sdn::ControlEventType::kSliceReleased, id.value());
  log_.append(sdn::ControlEventType::kChainTornDown, id.value());
  ++stats_.chains_torn_down;
  ALVC_COUNT("orchestrator.chains.torn_down");
  rebalance_bandwidth();  // freed capacity lets shed chains climb back
  return Status::ok();
}

Status NetworkOrchestrator::scale_function(NfcId id, std::size_t function_index, double factor) {
  const auto it = chains_.find(id);
  if (it == chains_.end()) {
    return Error{ErrorCode::kNotFound, "no chain " + std::to_string(id.value())};
  }
  if (it->second.degraded) {
    return Error{ErrorCode::kRejected, "chain is degraded; wait for restoration"};
  }
  if (function_index >= it->second.instances.size()) {
    return Error{ErrorCode::kInvalidArgument, "function index out of range"};
  }
  return cloud_.scale(it->second.instances[function_index], factor);
}

Status NetworkOrchestrator::migrate_function(NfcId id, std::size_t function_index,
                                             const HostRef& target) {
  const auto it = chains_.find(id);
  if (it == chains_.end()) {
    return Error{ErrorCode::kNotFound, "no chain " + std::to_string(id.value())};
  }
  ProvisionedChain& chain = it->second;
  if (chain.degraded) {
    return Error{ErrorCode::kRejected, "chain is degraded; wait for restoration"};
  }
  if (function_index >= chain.placement.hosts.size()) {
    return Error{ErrorCode::kInvalidArgument, "function index out of range"};
  }
  const alvc::cluster::VirtualCluster* vc = clusters_->find(chain.cluster);
  if (vc == nullptr) return Error{ErrorCode::kInternal, "chain references a dead cluster"};

  // Target must be inside the slice.
  bool in_slice = false;
  if (const auto* ops = std::get_if<alvc::util::OpsId>(&target)) {
    const auto& topo = clusters_->topology();
    in_slice = vc->layer.contains_ops(*ops) && topo.ops(*ops).optoelectronic &&
               topo.ops_usable(*ops);
  } else {
    const auto server = std::get<alvc::util::ServerId>(target);
    in_slice = vc->layer.contains_tor(clusters_->topology().server(server).tor);
  }
  if (!in_slice) {
    return Error{ErrorCode::kInvalidArgument, "migration target is outside the chain's slice"};
  }
  const auto& desc = catalog_->descriptor(chain.record.spec.functions[function_index]);
  if (desc.electronic_only && alvc::nfv::is_optical_host(target)) {
    return Error{ErrorCode::kInvalidArgument, "VNF is pinned to the electronic domain"};
  }
  if (chain.placement.hosts[function_index] == target) return Status::ok();
  if (!cloud_.pool().fits(target, desc.demand)) {
    return Error{ErrorCode::kCapacityExceeded, "target host cannot take the VNF"};
  }

  // Tentatively compute the new route before committing anything.
  auto hosts = chain.placement.hosts;
  hosts[function_index] = target;
  auto route = route_linear(*vc, hosts);
  if (!route) return route.error();
  // Move the bandwidth reservation (conservative: new walk reserved while
  // the old one is still held, so shared links must fit both briefly).
  const double gbps = chain.reserved_gbps;
  if (auto status = bandwidth_.reserve_walk(route->vertices, gbps); !status.is_ok()) {
    return status.error();
  }
  bandwidth_.release_walk(chain.route.vertices, gbps);

  // Commit: move the instance, swap route and rules.
  ALVC_IGNORE_STATUS(cloud_.terminate(chain.instances[function_index]),
                     "migration commit point: the old instance must go; a deploy "
                     "failure on the target is surfaced just below");
  auto fresh = cloud_.deploy(chain.record.spec.functions[function_index], target);
  if (!fresh) return fresh.error();  // capacity raced away; old instance already gone
  chain.instances[function_index] = *fresh;
  chain.placement.hosts[function_index] = target;
  finalize_placement(chain.placement);
  controller_.remove_chain(id);
  for (const auto& leg : route->legs) {
    if (auto status = controller_.install_path(id, leg); !status.is_ok()) return status;
  }
  chain.route = std::move(*route);
  chain.flow_rules = controller_.chain_rule_count(id);
  log_.append(sdn::ControlEventType::kVnfRelocated, id.value(),
              "operator migration of function " + std::to_string(function_index));
  ++stats_.vnfs_relocated;
  return Status::ok();
}

std::vector<NfcId> NetworkOrchestrator::chains_using_ops(alvc::util::OpsId ops) const {
  const auto& topo = clusters_->topology();
  const std::size_t vertex = topo.ops_vertex(ops);
  std::vector<NfcId> affected;
  for (const auto& [id, chain] : chains_) {
    bool hit = std::find(chain.route.vertices.begin(), chain.route.vertices.end(), vertex) !=
               chain.route.vertices.end();
    if (!hit) {
      for (const HostRef& host : chain.placement.hosts) {
        if (const auto* o = std::get_if<alvc::util::OpsId>(&host); o != nullptr && *o == ops) {
          hit = true;
          break;
        }
      }
    }
    if (hit) affected.push_back(id);
  }
  std::sort(affected.begin(), affected.end());
  return affected;
}

// ---- failure & recovery workflows ----

bool NetworkOrchestrator::host_usable(const HostRef& host) const {
  const auto& topo = clusters_->topology();
  if (const auto* ops = std::get_if<alvc::util::OpsId>(&host)) return topo.ops_usable(*ops);
  const auto server = std::get<alvc::util::ServerId>(host);
  return topo.server_usable(server) && topo.tor_usable(topo.server(server).tor);
}

bool NetworkOrchestrator::host_in_slice(const HostRef& host,
                                        const alvc::cluster::VirtualCluster& vc) const {
  if (const auto* ops = std::get_if<alvc::util::OpsId>(&host)) return vc.layer.contains_ops(*ops);
  const auto server = std::get<alvc::util::ServerId>(host);
  return vc.layer.contains_tor(clusters_->topology().server(server).tor);
}

bool NetworkOrchestrator::route_broken(const ProvisionedChain& chain,
                                       const alvc::cluster::VirtualCluster& vc) const {
  const auto& topo = clusters_->topology();
  for (std::size_t v : chain.route.vertices) {
    if (topo.is_ops_vertex(v)) {
      const auto ops = topo.vertex_to_ops(v);
      if (!topo.ops_usable(ops) || !vc.layer.contains_ops(ops)) return true;
    } else {
      const auto tor = topo.vertex_to_tor(v);
      if (!topo.tor_usable(tor) || !vc.layer.contains_tor(tor)) return true;
    }
  }
  // A cut cable breaks the walk even when both endpoints survive.
  for (std::size_t i = 0; i + 1 < chain.route.vertices.size(); ++i) {
    const std::size_t a = chain.route.vertices[i];
    const std::size_t b = chain.route.vertices[i + 1];
    if (topo.is_ops_vertex(a) == topo.is_ops_vertex(b)) continue;
    const std::size_t tor_v = topo.is_ops_vertex(a) ? b : a;
    const std::size_t ops_v = topo.is_ops_vertex(a) ? a : b;
    if (topo.link_failed(topo.vertex_to_tor(tor_v), topo.vertex_to_ops(ops_v))) return true;
  }
  return false;
}

bool NetworkOrchestrator::chain_needs_refit(const ProvisionedChain& chain,
                                            const alvc::cluster::VirtualCluster* vc) const {
  if (vc == nullptr || vc->layer.tors.empty()) return true;
  for (std::size_t i = 0; i < chain.placement.hosts.size(); ++i) {
    if (!chain.instances[i].valid()) return true;
    if (!host_usable(chain.placement.hosts[i])) return true;
    if (!host_in_slice(chain.placement.hosts[i], *vc)) return true;
  }
  return route_broken(chain, *vc);
}

bool NetworkOrchestrator::degraded_chain_disturbed(const ProvisionedChain& chain,
                                                   const alvc::cluster::VirtualCluster* vc) const {
  for (std::size_t i = 0; i < chain.placement.hosts.size(); ++i) {
    if (!chain.instances[i].valid()) continue;  // already terminated: expected
    if (!host_usable(chain.placement.hosts[i])) return true;
    if (vc != nullptr && !host_in_slice(chain.placement.hosts[i], *vc)) return true;
  }
  if (chain.route.vertices.empty()) return false;  // fully parked
  if (vc == nullptr || vc->layer.tors.empty()) return true;
  return route_broken(chain, *vc);
}

void NetworkOrchestrator::park_chain(ProvisionedChain& chain) {
  const NfcId id = chain.record.id;
  controller_.remove_chain(id);
  if (!chain.route.vertices.empty() && chain.reserved_gbps > 0) {
    bandwidth_.release_walk(chain.route.vertices, chain.reserved_gbps);
  }
  chain.reserved_gbps = 0;
  chain.route = ChainRoute{};
  chain.flow_rules = 0;
  // An instance left outside the slice (its AL shrank or dissolved) goes
  // too: fit_chain may be unable to move it, and left live it would keep
  // the chain disturbed after the sweep, on a host whose failure no longer
  // falls inside the chain's blast radius.
  const VirtualCluster* vc = clusters_->find(chain.cluster);
  for (std::size_t i = 0; i < chain.instances.size(); ++i) {
    if (!chain.instances[i].valid()) continue;
    const HostRef& host = chain.placement.hosts[i];
    if (host_usable(host) && (vc == nullptr || host_in_slice(host, *vc))) continue;
    ALVC_IGNORE_STATUS(cloud_.terminate(chain.instances[i]),
                       "parking: the host is dead or outside the slice; the instance goes "
                       "either way");
    chain.instances[i] = alvc::util::VnfInstanceId::invalid();
  }
}

double NetworkOrchestrator::fit_chain(ProvisionedChain& chain) {
  ALVC_SPAN(span, "orchestrator.fit_chain");
  const NfcId id = chain.record.id;
  const VirtualCluster* vc = clusters_->find(chain.cluster);
  if (vc == nullptr || vc->layer.tors.empty()) return 0;
  const auto& topo = clusters_->topology();

  PlacementContext context{
      .topo = &topo, .cluster = vc, .catalog = catalog_, .pool = &cloud_.pool()};
  const auto optical = context.slice_optical_hosts();
  const auto electronic = context.slice_electronic_hosts();
  for (std::size_t i = 0; i < chain.placement.hosts.size(); ++i) {
    const bool bad = !chain.instances[i].valid() || !host_usable(chain.placement.hosts[i]) ||
                     !host_in_slice(chain.placement.hosts[i], *vc);
    if (!bad) continue;
    const auto& desc = catalog_->descriptor(chain.record.spec.functions[i]);
    // Prefer staying optical, fall back to a server.
    std::optional<HostRef> target;
    if (!desc.electronic_only) {
      for (alvc::util::OpsId candidate : optical) {
        if (cloud_.pool().fits(HostRef{candidate}, desc.demand)) {
          target = HostRef{candidate};
          break;
        }
      }
    }
    if (!target) {
      for (alvc::util::ServerId candidate : electronic) {
        if (cloud_.pool().fits(HostRef{candidate}, desc.demand)) {
          target = HostRef{candidate};
          break;
        }
      }
    }
    if (!target) return 0;
    if (chain.instances[i].valid()) {
      ALVC_IGNORE_STATUS(cloud_.terminate(chain.instances[i]),
                         "relocation: the stranded instance is replaced either way");
      chain.instances[i] = alvc::util::VnfInstanceId::invalid();
    }
    auto fresh = cloud_.deploy(chain.record.spec.functions[i], *target);
    if (!fresh) return 0;
    chain.instances[i] = *fresh;
    chain.placement.hosts[i] = *target;
    log_.append(sdn::ControlEventType::kVnfRelocated, id.value(),
                "failure relocation of function " + std::to_string(i));
    ++stats_.vnfs_relocated;
  }
  finalize_placement(chain.placement);

  auto route = route_linear(*vc, chain.placement.hosts);
  if (!route) return 0;
  for (const auto& leg : route->legs) {
    if (!controller_.install_path(id, leg).is_ok()) {
      controller_.remove_chain(id);
      return 0;
    }
  }
  // Largest feasible fraction of the spec's demand: full service first,
  // then the degraded-mode ladder.
  constexpr double kFractions[] = {1.0, 0.5, 0.25, 0.125};
  for (double fraction : kFractions) {
    const double gbps = chain.record.spec.bandwidth_gbps * fraction;
    if (bandwidth_.reserve_walk(route->vertices, gbps).is_ok()) {
      chain.route = std::move(*route);
      chain.reserved_gbps = gbps;
      chain.flow_rules = controller_.chain_rule_count(id);
      // Keep the slice record's bandwidth (and its epoch) in step with the
      // rung actually achieved.
      ALVC_IGNORE_STATUS(slices_.set_bandwidth(id, gbps),
                         "a parked chain can outlive its slice record only transiently; "
                         "the reservation above is the source of truth");
      return fraction;
    }
  }
  controller_.remove_chain(id);
  return 0;
}

void NetworkOrchestrator::mark_degraded(ProvisionedChain& chain, double fraction,
                                        const std::string& reason) {
  const bool entered = !chain.degraded;
  chain.degraded = true;
  chain.degraded_reason = reason;
  if (entered) {
    ++stats_.chains_degraded;
    ALVC_COUNT("orchestrator.chains.degraded_transitions");
  }
  // Which rung of the degraded-mode ladder the chain landed on, overall and
  // per QoS class (macro names are literals, hence the branch).
  ALVC_OBSERVE("orchestrator.degraded.fraction", 0.0, 1.0, 8, fraction);
  if (chain.record.spec.priority == alvc::nfv::PriorityClass::kHipri) {
    ALVC_OBSERVE("orchestrator.degraded.fraction.hipri", 0.0, 1.0, 8, fraction);
    if (entered) ALVC_COUNT("orchestrator.chains.degraded_transitions.hipri");
  } else {
    ALVC_OBSERVE("orchestrator.degraded.fraction.lopri", 0.0, 1.0, 8, fraction);
    if (entered) ALVC_COUNT("orchestrator.chains.degraded_transitions.lopri");
  }
  log_.append(sdn::ControlEventType::kChainDegraded, chain.record.id.value(),
              reason + " (serving " + std::to_string(static_cast<int>(fraction * 100)) +
                  "% of demanded bandwidth)");
  enqueue_retry(chain.record.id);
}

NetworkOrchestrator::SweepVerdict NetworkOrchestrator::classify_chain(NfcId id) const {
  const auto it = chains_.find(id);
  if (it == chains_.end()) return SweepVerdict::kNone;
  const ProvisionedChain& chain = it->second;
  const VirtualCluster* vc = clusters_->find(chain.cluster);
  if (chain.degraded) {
    // The retry queue owns restoration, but a later failure can still hit
    // the degraded chain's surviving residue — re-park and re-fit whatever
    // best-effort slice remains so nothing stays on dead hardware.
    return degraded_chain_disturbed(chain, vc) ? SweepVerdict::kRefitDegraded
                                               : SweepVerdict::kNone;
  }
  return chain_needs_refit(chain, vc) ? SweepVerdict::kRefit : SweepVerdict::kNone;
}

void NetworkOrchestrator::apply_sweep_verdict(NfcId id, SweepVerdict verdict,
                                              std::size_t& repaired) {
  if (verdict == SweepVerdict::kNone) return;
  const auto it = chains_.find(id);
  if (it == chains_.end()) return;
  ProvisionedChain& chain = it->second;
  if (verdict == SweepVerdict::kRefitDegraded) {
    park_chain(chain);
    ALVC_IGNORE_STATUS(fit_chain(chain),
                       "best-effort re-fit of a disturbed degraded chain; the achieved "
                       "fraction is recorded in the chain state, retries own restoration");
    return;
  }
  park_chain(chain);
  const double fraction = fit_chain(chain);
  if (fraction >= 1.0) {
    ++repaired;
    log_.append(sdn::ControlEventType::kChainRepaired, id.value());
    ++stats_.chains_repaired;
    ALVC_COUNT("orchestrator.chains.repaired");
  } else {
    mark_degraded(chain, fraction, "full-bandwidth refit infeasible after failure");
  }
}

std::size_t NetworkOrchestrator::sweep_chains(std::span<const ClusterId> scope) {
  ALVC_SPAN(span, "orchestrator.sweep_chains");
  std::vector<NfcId> ids;
  const auto collect = [&](ClusterId cluster) {
    const auto it = chains_by_cluster_.find(cluster);
    if (it == chains_by_cluster_.end()) return;
    ids.insert(ids.end(), it->second.begin(), it->second.end());
  };
  for (ClusterId cluster : scope) collect(cluster);
  // ALs reshaped since the last sweep outside any handler (VM churn,
  // migration, re-optimisation, destroy_cluster) may have left chains on
  // switches their slice no longer holds; settle those here too.
  for (ClusterId cluster : clusters_->take_reshaped_clusters()) collect(cluster);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::size_t repaired = 0;
  for (NfcId id : ids) apply_sweep_verdict(id, classify_chain(id), repaired);
  return repaired;
}

std::vector<NfcId> NetworkOrchestrator::chains_needing_sweep() const {
  std::vector<NfcId> pending;
  for (NfcId id : sorted_chain_ids()) {
    if (classify_chain(id) != SweepVerdict::kNone) pending.push_back(id);
  }
  return pending;
}

std::vector<alvc::util::ClusterId> NetworkOrchestrator::server_blast_radius(
    alvc::util::ServerId server) const {
  // VNF placements are not limited to the clusters owning the box's VMs:
  // fit_chain places anywhere in the chain's slice, and a server is in a
  // slice iff the AL contains its primary ToR. So the clusters containing
  // that ToR are exactly the ones whose chains can be disturbed.
  return clusters_->clusters_containing_tor(clusters_->topology().server(server).tor);
}

std::size_t NetworkOrchestrator::drain_retry_queue() {
  ALVC_SPAN(span, "orchestrator.drain_retry_queue");
  ++recovery_epoch_;
  std::sort(retry_queue_.begin(), retry_queue_.end(),
            [](const RetryEntry& a, const RetryEntry& b) { return a.id < b.id; });
  std::vector<RetryEntry> entries = std::move(retry_queue_);
  retry_queue_.clear();
  constexpr std::size_t kMaxAttempts = 16;
  std::size_t restored = 0;
  std::vector<RetryEntry> keep;
  for (RetryEntry entry : entries) {
    const auto it = chains_.find(entry.id);
    if (it == chains_.end()) continue;  // torn down meanwhile
    ProvisionedChain& chain = it->second;
    if (!chain.degraded) continue;  // already healthy again
    if (entry.not_before > recovery_epoch_) {
      keep.push_back(entry);  // still backing off
      continue;
    }
    const double before_gbps = chain.reserved_gbps;
    park_chain(chain);  // releases any reduced-bandwidth partial state
    const double fraction = fit_chain(chain);
    if (fraction >= 1.0) {
      chain.degraded = false;
      chain.degraded_reason.clear();
      ++restored;
      ++stats_.chains_restored;
      ALVC_COUNT("orchestrator.chains.restored");
      log_.append(sdn::ControlEventType::kChainRestored, entry.id.value());
      continue;
    }
    if (allocator_.policy() != AllocationPolicy::kStrictLadder &&
        chain.record.spec.bandwidth_gbps * fraction > before_gbps + 1e-9) {
      // The retry climbed the ladder without reaching full demand: it
      // re-enters the queue at the tier it just won, eligible at the next
      // recovery event, and the improving attempt does not count against
      // the retry budget.
      entry.not_before = recovery_epoch_ + 1;
      keep.push_back(entry);
      continue;
    }
    ++entry.attempts;
    if (entry.attempts >= kMaxAttempts) continue;  // bounded: stays degraded, no more retries
    // Deterministic exponential backoff, clocked in recovery events.
    entry.not_before =
        recovery_epoch_ + (1ULL << std::min<std::size_t>(entry.attempts, 6));
    keep.push_back(entry);
  }
  retry_queue_ = std::move(keep);
  ALVC_GAUGE_SET("orchestrator.retry_queue.depth", static_cast<double>(retry_queue_.size()));
  return restored;
}

void NetworkOrchestrator::enqueue_retry(NfcId id) {
  for (const RetryEntry& entry : retry_queue_) {
    if (entry.id == id) return;
  }
  retry_queue_.push_back(RetryEntry{.id = id});
  ALVC_GAUGE_SET("orchestrator.retry_queue.depth", static_cast<double>(retry_queue_.size()));
}

std::optional<std::vector<std::uint64_t>> NetworkOrchestrator::chain_link_keys(NfcId id) const {
  const auto it = chains_.find(id);
  if (it == chains_.end()) return std::nullopt;
  const ProvisionedChain& chain = it->second;
  if (chain.route.vertices.empty()) return std::nullopt;
  std::vector<std::uint64_t> links;
  for (std::size_t i = 0; i + 1 < chain.route.vertices.size(); ++i) {
    const auto [lo, hi] = std::minmax(chain.route.vertices[i], chain.route.vertices[i + 1]);
    if (lo == hi) continue;
    links.push_back((static_cast<std::uint64_t>(lo) << 32) |
                    static_cast<std::uint64_t>(hi & 0xffffffffULL));
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

std::size_t NetworkOrchestrator::rebalance_bandwidth() {
  if (allocator_.policy() == AllocationPolicy::kStrictLadder) return 0;
  ALVC_SPAN(span, "orchestrator.rebalance_bandwidth");
  constexpr double kEps = 1e-9;
  const auto& topo = clusters_->topology();
  const double factor = allocator_.tor_budget_factor();

  // Index resources in encounter order (routed chains in ascending id; parked
  // chains have no route and stay with the retry queue) and let the
  // allocator plan. Each distinct route link is a resource (coeff 1.0,
  // matching the ledger's once-per-distinct-link accounting), plus — when
  // the ToR budget is enabled — one aggregate uplink budget per ToR the
  // route crosses, with coeff = the number of incident route links (a
  // through-ToR hop pays ingress and egress).
  std::vector<NfcId> ids;
  std::vector<AllocChain> alloc;
  std::vector<AllocResource> resources;
  std::unordered_map<std::uint64_t, std::uint32_t> link_index;
  std::unordered_map<std::size_t, std::uint32_t> tor_budget_index;  // ToR vertex -> resource
  for (NfcId id : sorted_chain_ids()) {
    const auto links = chain_link_keys(id);
    if (!links) continue;
    const ProvisionedChain& chain = chains_.at(id);
    AllocChain ac;
    ac.id = id;
    ac.cls = chain.record.spec.priority;
    ac.demand_gbps = chain.record.spec.bandwidth_gbps;
    std::vector<std::pair<std::uint32_t, double>> tor_uses;
    for (std::uint64_t k : *links) {
      const auto u = static_cast<std::size_t>(k >> 32);
      const auto v = static_cast<std::size_t>(k & 0xffffffffULL);
      const auto [lit, fresh] =
          link_index.try_emplace(k, static_cast<std::uint32_t>(resources.size()));
      if (fresh) resources.push_back(AllocResource{bandwidth_.capacity_gbps(u, v)});
      ac.uses.emplace_back(lit->second, 1.0);
      if (factor <= 0) continue;
      for (const std::size_t end : {u, v}) {
        if (topo.is_ops_vertex(end)) continue;
        const auto [tit, tor_fresh] =
            tor_budget_index.try_emplace(end, static_cast<std::uint32_t>(resources.size()));
        if (tor_fresh) {
          resources.push_back(
              AllocResource{factor * topo.tor(topo.vertex_to_tor(end)).port_bandwidth_gbps});
        }
        const auto prior = std::find_if(tor_uses.begin(), tor_uses.end(),
                                        [&](const auto& use) { return use.first == tit->second; });
        if (prior == tor_uses.end()) {
          tor_uses.emplace_back(tit->second, 1.0);
        } else {
          prior->second += 1.0;
        }
      }
    }
    std::sort(tor_uses.begin(), tor_uses.end());
    ac.uses.insert(ac.uses.end(), tor_uses.begin(), tor_uses.end());
    ids.push_back(id);
    alloc.push_back(std::move(ac));
  }
  if (alloc.empty()) return 0;

  const AllocationPlan plan = allocator_.plan(alloc, resources);
  ALVC_OBSERVE("orchestrator.alloc.waterfill.iterations", 0, 64, 16,
               static_cast<double>(plan.fill_iterations));
  if (plan.lopri_demotions > 0) {
    ALVC_COUNT_N("orchestrator.alloc.lopri_demotions", plan.lopri_demotions);
  }

  std::size_t changed = 0;
  // Shrink pass first: every release lands before any grow reserves, so
  // the grow pass cannot be starved by capacity the plan already moved.
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    ProvisionedChain& chain = chains_.at(ids[i]);
    const double target = plan.target_gbps[i];
    if (target + kEps >= chain.reserved_gbps) continue;
    ++changed;
    ++stats_.alloc_downgrades;
    if (chain.record.spec.priority == alvc::nfv::PriorityClass::kHipri) {
      ALVC_COUNT("orchestrator.alloc.downgrades.hipri");
    } else {
      ALVC_COUNT("orchestrator.alloc.downgrades.lopri");
    }
    if (target <= kEps) {
      park_chain(chain);  // rules out, reservation released, route cleared
      mark_degraded(chain, 0.0, "bandwidth shed by the allocator under overload");
      continue;
    }
    bandwidth_.release_walk(chain.route.vertices, chain.reserved_gbps - target);
    chain.reserved_gbps = target;
    ALVC_IGNORE_STATUS(slices_.set_bandwidth(ids[i], target),
                       "the reservation is the source of truth; the slice record follows");
    mark_degraded(chain, target / chain.record.spec.bandwidth_gbps,
                  "bandwidth shed by the allocator under overload");
  }
  // Grow pass, ids ascending (the plan's own climb order).
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    ProvisionedChain& chain = chains_.at(ids[i]);
    const double target = plan.target_gbps[i];
    if (chain.route.vertices.empty()) continue;  // shed to zero above
    if (target <= chain.reserved_gbps + kEps) continue;
    if (!bandwidth_.reserve_walk(chain.route.vertices, target - chain.reserved_gbps).is_ok()) {
      continue;  // defensive: the plan respects raw capacities, but never force it
    }
    chain.reserved_gbps = target;
    ALVC_IGNORE_STATUS(slices_.set_bandwidth(ids[i], target),
                       "the reservation is the source of truth; the slice record follows");
    ++changed;
    ++stats_.alloc_restores;
    if (chain.record.spec.priority == alvc::nfv::PriorityClass::kHipri) {
      ALVC_COUNT("orchestrator.alloc.restores.hipri");
    } else {
      ALVC_COUNT("orchestrator.alloc.restores.lopri");
    }
    const bool instances_ok =
        std::all_of(chain.instances.begin(), chain.instances.end(),
                    [](alvc::util::VnfInstanceId inst) { return inst.valid(); });
    if (chain.degraded && instances_ok &&
        target + kEps >= chain.record.spec.bandwidth_gbps) {
      chain.degraded = false;
      chain.degraded_reason.clear();
      ++stats_.chains_restored;
      ALVC_COUNT("orchestrator.chains.restored");
      log_.append(sdn::ControlEventType::kChainRestored, ids[i].value(),
                  "allocator rebalance restored full bandwidth");
    }
  }
  if (changed > 0) {
    ++stats_.alloc_rebalances;
    ALVC_COUNT("orchestrator.alloc.rebalances");
  }
  return changed;
}

std::vector<NfcId> NetworkOrchestrator::sorted_chain_ids() const {
  std::vector<NfcId> ids;
  ids.reserve(chains_.size());
  for (const auto& [id, chain] : chains_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t NetworkOrchestrator::degraded_chain_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, chain] : chains_) {
    if (chain.degraded) ++n;
  }
  return n;
}

Expected<std::size_t> NetworkOrchestrator::handle_ops_failure(alvc::util::OpsId ops) {
  ALVC_SPAN(span, "orchestrator.handle_ops_failure");
  const auto& topo = clusters_->topology();
  if (ops.index() >= topo.ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad OPS id"};
  }
  if (!topo.ops_usable(ops)) return std::size_t{0};  // duplicate report
  // Repair the AL first (marks the OPS failed in the topology as a side
  // effect, so every later decision sees the failure).
  log_.append(sdn::ControlEventType::kOpsFailed, ops.value());
  std::vector<alvc::util::ClusterId> touched;
  const auto repair = clusters_->handle_ops_failure(ops, &touched);
  if (repair.has_value()) log_.append(sdn::ControlEventType::kAlRepaired, ops.value());
  const std::size_t repaired = sweep_chains(touched);
  rebalance_bandwidth();
  return repaired;
}

Expected<std::size_t> NetworkOrchestrator::handle_tor_failure(alvc::util::TorId tor) {
  ALVC_SPAN(span, "orchestrator.handle_tor_failure");
  const auto& topo = clusters_->topology();
  if (tor.index() >= topo.tor_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad ToR id"};
  }
  if (!topo.tor_usable(tor)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kTorFailed, tor.value());
  std::vector<alvc::util::ClusterId> touched;
  const auto repair = clusters_->handle_tor_failure(tor, repair_builder_, &touched);
  if (repair.has_value()) {
    log_.append(sdn::ControlEventType::kAlRepaired, tor.value(), "after ToR failure");
  }
  const std::size_t repaired = sweep_chains(touched);
  rebalance_bandwidth();
  return repaired;
}

Expected<std::size_t> NetworkOrchestrator::handle_server_failure(alvc::util::ServerId server) {
  ALVC_SPAN(span, "orchestrator.handle_server_failure");
  const auto& topo = clusters_->topology();
  if (server.index() >= topo.server_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad server id"};
  }
  if (!topo.server_usable(server)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kServerFailed, server.value());
  ALVC_IGNORE_STATUS(clusters_->handle_server_failure(server),
                     "ids were validated above; sweep_chains handles the fallout either way");
  // Server events change no AL; the blast radius is the clusters whose
  // slice contains the box (see server_blast_radius).
  const std::vector<alvc::util::ClusterId> touched = server_blast_radius(server);
  const std::size_t repaired = sweep_chains(touched);
  rebalance_bandwidth();
  return repaired;
}

Expected<std::size_t> NetworkOrchestrator::handle_link_failure(alvc::util::TorId tor,
                                                               alvc::util::OpsId ops) {
  ALVC_SPAN(span, "orchestrator.handle_link_failure");
  const auto& topo = clusters_->topology();
  if (tor.index() >= topo.tor_count() || ops.index() >= topo.ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad link endpoint id"};
  }
  const auto& uplinks = topo.tor(tor).uplinks;
  if (std::find(uplinks.begin(), uplinks.end(), ops) == uplinks.end()) {
    return Error{ErrorCode::kNotFound, "no such ToR-OPS link"};
  }
  if (topo.link_failed(tor, ops)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kLinkFailed, tor.value(),
              "to OPS " + std::to_string(ops.value()));
  std::vector<alvc::util::ClusterId> touched;
  ALVC_IGNORE_STATUS(clusters_->handle_link_failure(tor, ops, &touched),
                     "an infeasible AL repair leaves the cluster degraded; sweep_chains "
                     "degrades the affected chains rather than aborting the handler");
  const std::size_t repaired = sweep_chains(touched);
  rebalance_bandwidth();
  return repaired;
}

Expected<std::size_t> NetworkOrchestrator::handle_ops_recovery(alvc::util::OpsId ops) {
  ALVC_SPAN(span, "orchestrator.handle_ops_recovery");
  const auto& topo = clusters_->topology();
  if (ops.index() >= topo.ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad OPS id"};
  }
  if (topo.ops_usable(ops)) return std::size_t{0};  // was not failed
  log_.append(sdn::ControlEventType::kOpsRecovered, ops.value());
  std::vector<alvc::util::ClusterId> touched;
  ALVC_IGNORE_STATUS(clusters_->handle_ops_recovery(ops, repair_builder_, &touched),
                     "a failed cluster rebuild leaves it degraded; recovery proceeds anyway");
  // Cluster rebuilds may have shifted slices under healthy chains; fix
  // those first so capacity is settled before degraded chains compete.
  // Outside the rebuilt (degraded) clusters a recovery only flips hardware
  // dead -> alive, which moves sweep verdicts toward kNone, so the rebuilt
  // clusters are the whole blast radius.
  ALVC_IGNORE_STATUS(sweep_chains(touched),
                     "repairs of healthy chains are logged per chain; this call returns "
                     "only the count and the caller reports restorations instead");
  const std::size_t restored = drain_retry_queue();
  rebalance_bandwidth();
  return restored;
}

Expected<std::size_t> NetworkOrchestrator::handle_tor_recovery(alvc::util::TorId tor) {
  ALVC_SPAN(span, "orchestrator.handle_tor_recovery");
  const auto& topo = clusters_->topology();
  if (tor.index() >= topo.tor_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad ToR id"};
  }
  if (topo.tor_usable(tor)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kTorRecovered, tor.value());
  std::vector<alvc::util::ClusterId> touched;
  ALVC_IGNORE_STATUS(clusters_->handle_tor_recovery(tor, repair_builder_, &touched),
                     "a failed cluster rebuild leaves it degraded; recovery proceeds anyway");
  ALVC_IGNORE_STATUS(sweep_chains(touched),
                     "settle healthy chains first; restorations are returned");
  const std::size_t restored = drain_retry_queue();
  rebalance_bandwidth();
  return restored;
}

Expected<std::size_t> NetworkOrchestrator::handle_server_recovery(alvc::util::ServerId server) {
  ALVC_SPAN(span, "orchestrator.handle_server_recovery");
  const auto& topo = clusters_->topology();
  if (server.index() >= topo.server_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad server id"};
  }
  if (topo.server_usable(server)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kServerRecovered, server.value());
  ALVC_IGNORE_STATUS(clusters_->handle_server_recovery(server),
                     "ids were validated above; a server recovery cannot fail an AL");
  const std::vector<alvc::util::ClusterId> touched = server_blast_radius(server);
  ALVC_IGNORE_STATUS(sweep_chains(touched),
                     "settle healthy chains first; restorations are returned");
  const std::size_t restored = drain_retry_queue();
  rebalance_bandwidth();
  return restored;
}

Expected<std::size_t> NetworkOrchestrator::handle_link_recovery(alvc::util::TorId tor,
                                                                alvc::util::OpsId ops) {
  ALVC_SPAN(span, "orchestrator.handle_link_recovery");
  const auto& topo = clusters_->topology();
  if (tor.index() >= topo.tor_count() || ops.index() >= topo.ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad link endpoint id"};
  }
  if (!topo.link_failed(tor, ops)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kLinkRecovered, tor.value(),
              "to OPS " + std::to_string(ops.value()));
  std::vector<alvc::util::ClusterId> touched;
  ALVC_IGNORE_STATUS(clusters_->handle_link_recovery(tor, ops, repair_builder_, &touched),
                     "a failed cluster rebuild leaves it degraded; recovery proceeds anyway");
  ALVC_IGNORE_STATUS(sweep_chains(touched),
                     "settle healthy chains first; restorations are returned");
  const std::size_t restored = drain_retry_queue();
  rebalance_bandwidth();
  return restored;
}

const ProvisionedChain* NetworkOrchestrator::chain(NfcId id) const {
  const auto it = chains_.find(id);
  return it == chains_.end() ? nullptr : &it->second;
}

std::vector<const ProvisionedChain*> NetworkOrchestrator::chains() const {
  std::vector<const ProvisionedChain*> out;
  out.reserve(chains_.size());
  for (const auto& [id, chain] : chains_) out.push_back(&chain);
  std::sort(out.begin(), out.end(), [](const ProvisionedChain* a, const ProvisionedChain* b) {
    return a->record.id < b->record.id;
  });
  return out;
}

std::vector<std::string> NetworkOrchestrator::check_isolation() const {
  std::vector<std::string> violations;
  const auto& topo = clusters_->topology();
  for (const NfcId id : sorted_chain_ids()) {
    const ProvisionedChain& chain = chains_.at(id);
    const VirtualCluster* vc = clusters_->find(chain.cluster);
    if (vc == nullptr) {
      violations.push_back("chain " + std::to_string(id.value()) + " references a dead cluster");
      continue;
    }
    std::unordered_set<std::size_t> slice_vertices;
    for (auto t : vc->layer.tors) slice_vertices.insert(topo.tor_vertex(t));
    for (auto o : vc->layer.opss) slice_vertices.insert(topo.ops_vertex(o));
    for (std::size_t v : chain.route.vertices) {
      if (!slice_vertices.contains(v)) {
        violations.push_back("chain " + std::to_string(id.value()) + " rides switch vertex " +
                             std::to_string(v) + " outside its slice");
      }
    }
  }
  return violations;
}

}  // namespace alvc::orchestrator
