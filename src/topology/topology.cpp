#include "topology/topology.h"

#include <algorithm>
#include <stdexcept>

namespace alvc::topology {

TorId DataCenterTopology::add_tor(double port_bandwidth_gbps) {
  const TorId id{static_cast<TorId::value_type>(tors_.size())};
  tors_.push_back(TorSwitch{.id = id, .port_bandwidth_gbps = port_bandwidth_gbps});
  invalidate_cache();
  return id;
}

ServerId DataCenterTopology::add_server(TorId tor, const Resources& capacity) {
  auto& t = tors_.at(tor.index());
  const ServerId id{static_cast<ServerId::value_type>(servers_.size())};
  servers_.push_back(Server{.id = id, .tor = tor, .capacity = capacity});
  t.servers.push_back(id);
  return id;
}

VmId DataCenterTopology::add_vm(ServerId server, ServiceId service, const Resources& demand) {
  auto& s = servers_.at(server.index());
  const VmId id{static_cast<VmId::value_type>(vms_.size())};
  vms_.push_back(Vm{.id = id, .server = server, .service = service, .demand = demand});
  s.vms.push_back(id);
  return id;
}

OpsId DataCenterTopology::add_ops(bool optoelectronic, const Resources& compute,
                                  double port_bandwidth_gbps) {
  const OpsId id{static_cast<OpsId::value_type>(opss_.size())};
  opss_.push_back(OpticalSwitch{.id = id,
                                .optoelectronic = optoelectronic,
                                .compute = optoelectronic ? compute : Resources{},
                                .port_bandwidth_gbps = port_bandwidth_gbps});
  invalidate_cache();
  return id;
}

void DataCenterTopology::connect_tor_ops(TorId tor, OpsId ops) {
  auto& t = tors_.at(tor.index());
  auto& o = opss_.at(ops.index());
  t.uplinks.push_back(ops);
  o.tor_links.push_back(tor);
  invalidate_cache();
}

void DataCenterTopology::connect_ops_ops(OpsId a, OpsId b) {
  if (a == b) throw std::invalid_argument("connect_ops_ops: self-link");
  auto& oa = opss_.at(a.index());
  auto& ob = opss_.at(b.index());
  oa.peer_links.push_back(b);
  ob.peer_links.push_back(a);
  invalidate_cache();
}

void DataCenterTopology::add_server_homing(ServerId server, TorId tor) {
  auto& s = servers_.at(server.index());
  if (tor.index() >= tors_.size()) {
    throw std::out_of_range("add_server_homing: bad ToR id");
  }
  if (s.tor == tor) return;
  if (std::find(s.secondary_tors.begin(), s.secondary_tors.end(), tor) !=
      s.secondary_tors.end()) {
    return;
  }
  s.secondary_tors.push_back(tor);
}

std::size_t DataCenterTopology::service_count() const {
  std::size_t count = 0;
  for (const auto& vm : vms_) {
    count = std::max(count, vm.service.index() + 1);
  }
  return count;
}

std::vector<TorId> DataCenterTopology::tors_of_vm(VmId id) const {
  const Server& s = server(vm(id).server);
  std::vector<TorId> tors;
  tors.reserve(1 + s.secondary_tors.size());
  tors.push_back(s.tor);
  tors.insert(tors.end(), s.secondary_tors.begin(), s.secondary_tors.end());
  return tors;
}

void DataCenterTopology::move_vm(VmId vm, ServerId new_server) {
  auto& v = vms_.at(vm.index());
  auto& dst = servers_.at(new_server.index());
  if (v.server == new_server) return;
  auto& src = servers_.at(v.server.index());
  std::erase(src.vms, vm);
  dst.vms.push_back(vm);
  v.server = new_server;
}

alvc::util::Status DataCenterTopology::set_ops_failed(OpsId ops, bool failed) {
  if (ops.index() >= opss_.size()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument,
                             "set_ops_failed: bad OPS id " + std::to_string(ops.value())};
  }
  opss_[ops.index()].failed = failed;
  invalidate_cache();
  return alvc::util::Status::ok();
}

alvc::util::Status DataCenterTopology::set_tor_failed(TorId tor, bool failed) {
  if (tor.index() >= tors_.size()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument,
                             "set_tor_failed: bad ToR id " + std::to_string(tor.value())};
  }
  tors_[tor.index()].failed = failed;
  invalidate_cache();
  return alvc::util::Status::ok();
}

alvc::util::Status DataCenterTopology::set_server_failed(ServerId server, bool failed) {
  if (server.index() >= servers_.size()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument,
                             "set_server_failed: bad server id " + std::to_string(server.value())};
  }
  servers_[server.index()].failed = failed;
  // Servers are not switch-graph vertices; the cache survives.
  return alvc::util::Status::ok();
}

alvc::util::Status DataCenterTopology::set_link_failed(TorId tor, OpsId ops, bool failed) {
  if (tor.index() >= tors_.size() || ops.index() >= opss_.size()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument,
                             "set_link_failed: bad endpoint id"};
  }
  const auto& uplinks = tors_[tor.index()].uplinks;
  if (std::find(uplinks.begin(), uplinks.end(), ops) == uplinks.end()) {
    return alvc::util::Error{alvc::util::ErrorCode::kNotFound,
                             "set_link_failed: ToR " + std::to_string(tor.value()) +
                                 " has no link to OPS " + std::to_string(ops.value())};
  }
  if (failed) {
    failed_links_.insert(link_key(tor, ops));
  } else {
    failed_links_.erase(link_key(tor, ops));
  }
  invalidate_cache();
  return alvc::util::Status::ok();
}

std::vector<OpsId> DataCenterTopology::usable_uplinks(TorId tor) const {
  const TorSwitch& t = this->tor(tor);
  std::vector<OpsId> out;
  if (t.failed) return out;
  out.reserve(t.uplinks.size());
  for (OpsId ops : t.uplinks) {
    if (opss_[ops.index()].failed || link_failed(tor, ops)) continue;
    out.push_back(ops);
  }
  return out;
}

const alvc::graph::Graph& DataCenterTopology::switch_graph() const {
  if (switch_graph_stale_) rebuild_switch_graph();
  return switch_graph_;
}

void DataCenterTopology::rebuild_switch_graph() const {
  switch_graph_ = alvc::graph::Graph(tors_.size() + opss_.size());
  for (const auto& t : tors_) {
    if (t.failed) continue;
    for (OpsId ops : t.uplinks) {
      if (opss_[ops.index()].failed || link_failed(t.id, ops)) continue;
      switch_graph_.add_edge(tor_vertex(t.id), ops_vertex(ops));
    }
  }
  for (const auto& o : opss_) {
    if (o.failed) continue;
    for (OpsId peer : o.peer_links) {
      if (o.id < peer && !opss_[peer.index()].failed) {  // each undirected core link once
        switch_graph_.add_edge(ops_vertex(o.id), ops_vertex(peer));
      }
    }
  }
  switch_graph_stale_ = false;
}

OpsId DataCenterTopology::vertex_to_ops(std::size_t v) const {
  if (!is_ops_vertex(v) || v >= tors_.size() + opss_.size()) {
    throw std::out_of_range("vertex_to_ops: not an OPS vertex");
  }
  return OpsId{static_cast<OpsId::value_type>(v - tors_.size())};
}

TorId DataCenterTopology::vertex_to_tor(std::size_t v) const {
  if (is_ops_vertex(v)) throw std::out_of_range("vertex_to_tor: not a ToR vertex");
  return TorId{static_cast<TorId::value_type>(v)};
}

alvc::graph::BipartiteGraph DataCenterTopology::vm_tor_graph(std::span<const VmId> group) const {
  alvc::graph::BipartiteGraph g(group.size(), tors_.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (TorId t : tors_of_vm(group[i])) {
      if (tors_[t.index()].failed) continue;  // a dead ToR covers nobody
      g.add_edge(i, t.index());
    }
  }
  return g;
}

alvc::graph::BipartiteGraph DataCenterTopology::tor_ops_graph() const {
  alvc::graph::BipartiteGraph g(tors_.size(), opss_.size());
  for (const auto& t : tors_) {
    if (t.failed) continue;
    for (OpsId ops : t.uplinks) {
      if (opss_[ops.index()].failed || link_failed(t.id, ops)) continue;
      g.add_edge(t.id.index(), ops.index());
    }
  }
  return g;
}

}  // namespace alvc::topology
