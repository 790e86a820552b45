#include "replay.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "faults/state_auditor.h"
#include "io/json.h"
#include "io/serialize.h"
#include "telemetry/metric_registry.h"
#include "telemetry/span.h"

namespace perfbench {

using alvc::telemetry::ClockMode;
using alvc::telemetry::MetricRegistry;
using alvc::telemetry::ScopedSpan;
using alvc::telemetry::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Root span names; string literals because ScopedSpan keeps the pointer.
// The tick root is the elastic layer's own span: the controller has none.
constexpr std::array<const char*, kEventKindCount> kRootSpan{
    "driver.fault", "driver.recovery", "driver.provision", "driver.teardown", "elastic.tick"};

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : MetricRegistry::global().snapshot().counters) out[c.name] = c.value;
  return out;
}

void fold_spans(RepResult& rep) {
  const auto spans = Tracer::global().spans();
  Tracer::global().clear();
  // Children close before their parents, so one pass sums each span's
  // child coverage. Spans nest strictly on the replay's single thread.
  std::unordered_map<std::uint64_t, double> child_us;
  for (const auto& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.duration_us();
  }
  for (const auto& s : spans) {
    SpanStats& st = rep.spans[s.name];
    ++st.count;
    const auto it = child_us.find(s.id);
    st.self_us += s.duration_us() - (it == child_us.end() ? 0.0 : it->second);
    if (s.parent == 0) rep.root_span_us += s.duration_us();
  }
}

}  // namespace

RepResult run_replay(Scenario& sc, bool traced) {
  RepResult rep;
  rep.tracked_chains = sc.baseline_chains;
  auto& orch = sc.dc->orchestrator();
  std::unordered_map<std::uint32_t, alvc::util::NfcId> live_keys;
  rep.all_latency_us.reserve(sc.events.size());

  const auto before = counter_values();
  Tracer& tracer = Tracer::global();
  if (traced) {
    tracer.clear();
    tracer.set_mode(ClockMode::kSteady);
  }

  double sampling_us = 0;
  const auto loop_start = Clock::now();
  for (const ReplayEvent& ev : sc.events) {
    const auto kind = static_cast<std::size_t>(ev.kind);
    alvc::util::NfcId teardown_id;
    if (ev.kind == EventKind::kTeardown) {
      // Departures of arrivals that were refused, or of chains already
      // lost, make no call (ChaosRunner semantics).
      const auto it = live_keys.find(sc.load[ev.index].key);
      const bool live = it != live_keys.end() && orch.chain(it->second) != nullptr;
      if (live) teardown_id = it->second;
      if (it != live_keys.end()) live_keys.erase(it);
      if (!live) {
        ++rep.teardowns_skipped;
        continue;
      }
    }

    const auto t0 = Clock::now();
    {
      ScopedSpan root(tracer, kRootSpan[kind]);
      switch (ev.kind) {
        case EventKind::kFault:
        case EventKind::kRecovery:
          if (!alvc::faults::apply_fault(orch, sc.faults[ev.index]).has_value()) {
            ++rep.handler_errors;
          }
          break;
        case EventKind::kProvision: {
          const auto& load = sc.load[ev.index];
          if (auto id = orch.provision_chain(load.spec, *sc.placement); id.has_value()) {
            live_keys[load.key] = *id;
            rep.tracked_chains.push_back(id->value());
            ++rep.provisioned;
          } else {
            ++rep.refused;
          }
          break;
        }
        case EventKind::kTeardown:
          if (!orch.teardown_chain(teardown_id).is_ok()) ++rep.failed_teardowns;
          break;
        case EventKind::kTick:
          sc.elastic->tick(ev.time_s);
          break;
      }
    }
    const auto t1 = Clock::now();
    const double us = us_between(t0, t1);
    rep.latency_us[kind].push_back(us);
    rep.all_latency_us.push_back(us);
    ++rep.events;

    // Out-of-band sampling, excluded from the replay wall time.
    double granted = 0;
    double demanded = 0;
    for (const auto* chain : orch.chains()) {
      granted += chain->reserved_gbps;
      demanded += chain->record.spec.bandwidth_gbps;
    }
    rep.granted_gbps_sum += granted;
    rep.demanded_gbps_sum += demanded;
    const std::size_t retry = orch.retry_queue_size();
    const std::size_t degraded = orch.degraded_chain_count();
    rep.retry_max = std::max(rep.retry_max, retry);
    rep.degraded_max = std::max(rep.degraded_max, degraded);
    rep.retry_sum += static_cast<double>(retry);
    rep.degraded_sum += static_cast<double>(degraded);
    ++rep.samples;
    sampling_us += us_between(t1, Clock::now());
  }
  rep.replay_wall_s = (us_between(loop_start, Clock::now()) - sampling_us) / 1e6;

  if (traced) {
    tracer.set_mode(ClockMode::kDisabled);
    fold_spans(rep);
  }
  if (sc.elastic != nullptr) {
    rep.slo_violations = sc.elastic->stats().slo_violations;
    rep.chain_observations = sc.elastic->stats().chain_observations;
    for (std::size_t k = 0; k < alvc::elastic::kActionKindCount; ++k) {
      const auto& totals = sc.elastic->ledger().totals(static_cast<alvc::elastic::ActionKind>(k));
      rep.elastic_actions += totals.actions;
      rep.elastic_al_updates += totals.al_updates;
    }
  }
  for (const auto& [name, value] : counter_values()) {
    const auto it = before.find(name);
    rep.counters[name] = value - (it == before.end() ? 0 : it->second);
  }
  return rep;
}

std::vector<std::string> check_gate(const Scenario& sc, const RepResult& rep) {
  const auto& orch = sc.dc->orchestrator();
  std::vector<std::string> out = alvc::faults::StateAuditor::audit(orch);
  if (rep.handler_errors != 0) {
    out.push_back(std::to_string(rep.handler_errors) + " fault handler error(s)");
  }
  if (rep.failed_teardowns != 0) {
    out.push_back(std::to_string(rep.failed_teardowns) + " failed teardown(s)");
  }
  std::unordered_set<std::uint32_t> accounted;
  for (const auto* chain : orch.chains()) accounted.insert(chain->record.id.value());
  for (const auto& event : orch.control_log().events()) {
    if (event.type == alvc::sdn::ControlEventType::kChainTornDown ||
        event.type == alvc::sdn::ControlEventType::kChainLost) {
      accounted.insert(event.subject);
    }
  }
  std::size_t lost = 0;
  for (std::uint32_t id : rep.tracked_chains) lost += accounted.contains(id) ? 0 : 1;
  if (lost != 0) out.push_back(std::to_string(lost) + " chain(s) silently lost");
  return out;
}

std::uint64_t state_digest(const Scenario& sc) {
  const std::string text = alvc::io::dump(alvc::io::chains_to_json(sc.dc->orchestrator())) +
                           "\n" + alvc::io::dump(alvc::io::clusters_to_json(sc.dc->clusters()));
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
