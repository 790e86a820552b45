// Seeded control-plane scenarios for the replay benchmark.
//
// A scenario is a freshly built data center (topology, clusters, baseline
// chains) plus the merged, time-ordered list of events to replay against
// it: stochastic and scripted faults, load provisions/teardowns, and
// elastic controller ticks. Everything is a pure function of the workload
// shape and the seed, so every repetition of one run replays identical
// work and the same seed reproduces the same final state on any host.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/alvc.h"
#include "elastic/controller.h"
#include "faults/fault_injector.h"

namespace perfbench {

/// One workload's shape. All workloads share one DC layout family (see
/// build_scenario): `racks_per_service` consecutive racks form a service,
/// so ALs span several ToRs and OPSs; the OPS core is a ring; each service
/// holds at most one chain of 2-3 functions.
struct WorkloadShape {
  std::size_t racks = 256;
  /// Fractional values make neighbouring services share a boundary ToR,
  /// so their chains contend for its uplink budget.
  double racks_per_service = 4;
  alvc::orchestrator::AllocationPolicy policy =
      alvc::orchestrator::AllocationPolicy::kStrictLadder;
  /// Every `baseline_stride`-th service gets a HIPRI baseline chain at
  /// set-up; the others are left free for load events (one VC hosts one
  /// chain).
  std::size_t baseline_stride = 1;

  /// Per-element fault rates and the replay horizon. Every schedule also
  /// holds one scripted whole-AL and one whole-rack outage.
  alvc::faults::ElementRates ops;
  alvc::faults::ElementRates tor;
  alvc::faults::ElementRates server;
  alvc::faults::ElementRates link;
  double horizon_s = 0;

  /// Load side (churn-elastic): LOPRI churn, a flash crowd and a diurnal
  /// ramp over the free services, plus elastic ticks. 0 disables load and
  /// ticks respectively.
  double churn_rate_per_s = 0;
  double churn_hold_s = 0;
  double tick_period_s = 0;

  [[nodiscard]] std::size_t services() const noexcept {
    return static_cast<std::size_t>(static_cast<double>(racks) / racks_per_service);
  }
};

/// The named workload, or a small instance of the same family when `tiny`
/// (same event mix, a few racks: used by the self-test). Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadShape workload_shape(const std::string& name, bool tiny);
[[nodiscard]] const std::vector<std::string>& workload_names();

enum class EventKind : std::uint8_t { kFault, kRecovery, kProvision, kTeardown, kTick };
inline constexpr std::size_t kEventKindCount = 5;
[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// One step of the replay; `index` points into the scenario's fault or
/// load vector (ticks carry only their time).
struct ReplayEvent {
  double time_s = 0;
  EventKind kind = EventKind::kTick;
  std::size_t index = 0;
};

/// Wall time of each set-up phase, in seconds.
struct SetupTimes {
  double topology_s = 0;
  double clusters_s = 0;
  double provision_s = 0;
  [[nodiscard]] double total() const noexcept { return topology_s + clusters_s + provision_s; }
};

/// A built data center plus the events to replay against it. Heap-held
/// because DataCenter must never move (the orchestrator borrows it).
struct Scenario {
  std::unique_ptr<alvc::core::DataCenter> dc;
  std::unique_ptr<alvc::orchestrator::GreedyOpticalPlacement> placement;
  std::unique_ptr<alvc::elastic::ElasticController> elastic;  // null without ticks
  std::vector<alvc::faults::FaultEvent> faults;
  std::vector<alvc::faults::LoadEvent> load;
  std::vector<ReplayEvent> events;  // merged, in dispatch order
  std::vector<std::uint32_t> baseline_chains;
  SetupTimes setup;
};

/// Builds the DC, its clusters and baseline chains (timed per phase), then
/// generates the seeded schedules and merges them. Throws on a set-up
/// failure: a workload whose baseline cannot be built is a benchmark bug.
[[nodiscard]] Scenario build_scenario(const WorkloadShape& shape, std::uint64_t seed);

}  // namespace perfbench
