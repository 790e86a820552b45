// Closed-loop replay of one scenario, and the correctness gate.
//
// The replay is the orchestrator's single caller (its external-
// synchronisation contract): events are dispatched back to back in
// schedule order, simulated time only orders them, and each call is timed
// on its own with a steady clock. After each event, outside the timed
// region, the driver samples served bandwidth and the retry/degraded
// depths. Work counters are read by name from the metric registry as
// deltas over the replay; with tracing on, every event runs under a
// driver root span so all spans of one event share its identifier.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Aggregate of every span of one name over a traced replay.
struct SpanStats {
  std::size_t count = 0;
  double self_us = 0;  // duration minus the time its child spans cover
};

struct RepResult {
  std::array<std::vector<double>, kEventKindCount> latency_us;  // per dispatched call
  std::vector<double> all_latency_us;
  std::size_t events = 0;         // calls dispatched (and timed)
  double replay_wall_s = 0;       // replay loop wall time minus out-of-band sampling
  std::size_t teardowns_skipped = 0;  // departures of chains refused or already gone

  // Operation outcomes.
  std::size_t handler_errors = 0;     // fault handlers that returned an error
  std::size_t refused = 0;            // provisions the orchestrator declined
  std::size_t failed_teardowns = 0;   // teardowns of live chains that errored
  std::size_t provisioned = 0;

  // Sampled after every event.
  double granted_gbps_sum = 0;
  double demanded_gbps_sum = 0;
  std::size_t retry_max = 0;
  std::size_t degraded_max = 0;
  double retry_sum = 0;
  double degraded_sum = 0;
  std::size_t samples = 0;

  /// Registry counters present after the replay, as deltas over it.
  std::map<std::string, std::uint64_t> counters;

  std::map<std::string, SpanStats> spans;
  double root_span_us = 0;  // summed duration of the driver's root spans

  /// Elastic controller totals (zero without ticks).
  std::size_t slo_violations = 0;
  std::size_t chain_observations = 0;
  std::size_t elastic_actions = 0;
  std::size_t elastic_al_updates = 0;

  /// Every chain that existed during the run (baseline + admitted), for
  /// the silent-loss accounting.
  std::vector<std::uint32_t> tracked_chains;
};

/// Replays `sc.events` against `sc.dc`. With `traced`, the global tracer
/// runs on the steady clock for the replay only and its spans are folded
/// into `spans` (and cleared).
[[nodiscard]] RepResult run_replay(Scenario& sc, bool traced);

/// The correctness gate: a clean closing StateAuditor audit, zero handler
/// errors and failed teardowns, and zero silently lost chains (every
/// tracked chain is live, or was torn down or lost with a control-log
/// entry, the ChaosRunner accounting). Returns the violations found.
[[nodiscard]] std::vector<std::string> check_gate(const Scenario& sc, const RepResult& rep);

/// FNV-1a digest of io::chains_to_json + io::clusters_to_json.
[[nodiscard]] std::uint64_t state_digest(const Scenario& sc);

}  // namespace perfbench
