// alvc_replay: whole-scenario control-plane replay benchmark.
//
//   alvc_replay --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//   alvc_replay --self-test
//
// One run replays a few seeded schedules repeatedly. Every repetition
// builds a fresh data center (timed as set-up), replays one schedule's
// event list in a closed loop, then checks the correctness gate outside
// the timed region. Repetitions cycle through kSchedules schedules derived from
// --seed and continue until --seconds have passed (at least one cycle).
// Each timing is read from each schedule's fastest-tenth repetition and
// averaged over the schedules (see fastest_of); set-up time is the median
// over repetitions.
//
// With --trace 0 the last stdout line carries the end-to-end metrics. With
// --trace 1 untraced and traced repetitions alternate and it carries the
// per-layer metrics. The line before it ("report: {...}") holds the
// detail: per-event-type latencies with sample counts, operation outcomes,
// the state digest, and the counter/span names that were absent.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Distinct schedules per run. Repetitions cycle through them, so each
/// timing pools several schedules: a single schedule's event mix moves its
/// own timings by about as much as host noise does. Deterministic outcomes and
/// work counts are totals over one cycle (the first kSchedules untraced
/// repetitions), which a run always completes.
constexpr std::size_t kSchedules = 4;
/// Share of the replay wall time the traced spans must cover.
constexpr double kMinTraceCoverage = 0.9;
/// A p99 needs at least 10 samples beyond it.
constexpr std::size_t kMinP99Samples = 1000;

// ---- numeric and JSON helpers ----

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string join(const std::vector<std::string>& items, char open, char close) {
  std::string out(1, open);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += items[i];
  }
  return out + close;
}

std::string object(const std::vector<std::string>& fields) { return join(fields, '{', '}'); }
std::string array(const std::vector<std::string>& items) { return join(items, '[', ']'); }

std::string field(const std::string& key, const std::string& json) {
  return quoted(key) + ": " + json;
}

std::string field(const std::string& key, double v) { return field(key, number(v)); }

// ---- repetitions ----

/// One repetition: a fresh scenario, its replay and its gate verdict.
struct Rep {
  std::size_t schedule = 0;  // index within the run's cycle
  SetupTimes setup;
  RepResult result;
  std::vector<std::string> violations;
  std::uint64_t digest = 0;
  std::string layout;  // JSON object describing the built DC
};

std::string layout_of(const Scenario& sc) {
  const auto clusters = sc.dc->clusters().clusters();
  double tors = 0;
  double opss = 0;
  for (const auto* vc : clusters) {
    tors += static_cast<double>(vc->layer.tors.size());
    opss += static_cast<double>(vc->layer.opss.size());
  }
  const double n = static_cast<double>(std::max<std::size_t>(clusters.size(), 1));
  return object({field("racks", static_cast<double>(sc.dc->topology().tor_count())),
                 field("vms", static_cast<double>(sc.dc->topology().vm_count())),
                 field("ops", static_cast<double>(sc.dc->topology().ops_count())),
                 field("clusters", static_cast<double>(clusters.size())),
                 field("baseline_chains", static_cast<double>(sc.baseline_chains.size())),
                 field("mean_al_tors", tors / n), field("mean_al_ops", opss / n),
                 field("events", static_cast<double>(sc.events.size()))});
}

Rep run_rep(const WorkloadShape& shape, std::uint64_t run_seed, std::size_t schedule,
            bool traced) {
  Scenario sc = build_scenario(shape, run_seed * kSchedules + schedule);
  Rep rep;
  rep.schedule = schedule;
  rep.setup = sc.setup;
  rep.layout = layout_of(sc);
  rep.result = run_replay(sc, traced);
  rep.violations = check_gate(sc, rep.result);
  rep.digest = state_digest(sc);
  return rep;
}

/// Proves the gate can see: a tiny instance of the workload must pass it,
/// and the same state corrupted once through a public mutator that
/// bypasses the orchestrator (an AL member OPS marked failed) must not.
/// Returns the problems found (empty = the gate works).
std::vector<std::string> gate_self_check(const std::string& workload) {
  std::vector<std::string> problems;
  Scenario sc = build_scenario(workload_shape(workload, /*tiny=*/true), 1);
  const RepResult rep = run_replay(sc, false);
  for (const auto& v : check_gate(sc, rep)) problems.push_back("tiny replay not clean: " + v);
  const alvc::cluster::VirtualCluster* victim = nullptr;
  for (const auto* vc : sc.dc->clusters().clusters()) {
    if (!vc->layer.opss.empty()) {
      victim = vc;
      break;
    }
  }
  if (victim == nullptr) return {"no cluster with a non-empty AL to corrupt"};
  if (!sc.dc->topology().set_ops_failed(victim->layer.opss.front(), true).is_ok()) {
    problems.push_back("could not corrupt the topology");
  } else if (check_gate(sc, rep).empty()) {
    problems.push_back("gate accepted an AL holding a failed OPS");
  }
  return problems;
}

// ---- metric assembly ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  std::vector<Metric> metrics;
  std::vector<std::string> absent;
  std::vector<std::string> report;  // fields of the report object
  std::vector<std::string> violations;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double events_per_s(const Rep& r) {
  return ratio(static_cast<double>(r.result.events), r.result.replay_wall_s);
}

std::vector<std::vector<const Rep*>> by_schedule(const std::vector<const Rep*>& reps) {
  std::vector<std::vector<const Rep*>> out(kSchedules);
  for (const Rep* r : reps) out[r->schedule].push_back(r);
  return out;
}

/// Mean over the schedules of pick(that schedule's repetitions), so every
/// schedule weighs the same however many repetitions the time allowed.
double per_schedule(const std::vector<const Rep*>& reps,
                    const std::function<double(std::vector<const Rep*>&)>& pick) {
  double sum = 0;
  std::size_t n = 0;
  for (auto& group : by_schedule(reps)) {
    if (group.empty()) continue;
    sum += pick(group);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// f over each schedule's repetitions: their median, averaged over the
/// schedules. Used for set-up times.
double median_of(const std::vector<const Rep*>& reps, const std::function<double(const Rep&)>& f) {
  return per_schedule(reps, [&](std::vector<const Rep*>& group) {
    std::vector<double> v;
    for (const Rep* r : group) v.push_back(f(*r));
    return median(v);
  });
}

/// f on each schedule's fast repetition, averaged over the schedules. The
/// fast repetition sits at the fastest tenth (nearest rank) by events/s.
/// On a shared host the same replay alternates between a fast state and
/// one ~40% slower, over seconds to minutes. A median over repetitions
/// follows the share of the run spent in the slow state; the fastest tenth
/// tracks the program's own cost whenever the run sees the fast state.
double fastest_of(const std::vector<const Rep*>& reps, const std::function<double(const Rep&)>& f) {
  return per_schedule(reps, [&](std::vector<const Rep*>& group) {
    std::sort(group.begin(), group.end(),
              [](const Rep* a, const Rep* b) { return events_per_s(*a) > events_per_s(*b); });
    const auto rank = static_cast<std::size_t>(std::ceil(0.1 * static_cast<double>(group.size())));
    return f(*group[rank - 1]);
  });
}

/// Outcome totals over `reps` (one cycle of schedules): sums, except the
/// sampled maxima. Counters sum by name; a name absent from every rep stays
/// absent.
RepResult cycle_totals(const std::vector<const Rep*>& reps) {
  RepResult t;
  for (const Rep* rep : reps) {
    const RepResult& r = rep->result;
    t.events += r.events;
    t.teardowns_skipped += r.teardowns_skipped;
    t.handler_errors += r.handler_errors;
    t.refused += r.refused;
    t.failed_teardowns += r.failed_teardowns;
    t.provisioned += r.provisioned;
    t.granted_gbps_sum += r.granted_gbps_sum;
    t.demanded_gbps_sum += r.demanded_gbps_sum;
    t.retry_max = std::max(t.retry_max, r.retry_max);
    t.degraded_max = std::max(t.degraded_max, r.degraded_max);
    t.retry_sum += r.retry_sum;
    t.degraded_sum += r.degraded_sum;
    t.samples += r.samples;
    for (const auto& [name, v] : r.counters) t.counters[name] += v;
    for (const auto& [name, st] : r.spans) {
      SpanStats& sum = t.spans[name];
      sum.count += st.count;
      sum.self_us += st.self_us;
    }
    t.slo_violations += r.slo_violations;
    t.chain_observations += r.chain_observations;
    t.elastic_actions += r.elastic_actions;
    t.elastic_al_updates += r.elastic_al_updates;
  }
  return t;
}

std::vector<const Rep*> first_cycle(const std::vector<const Rep*>& reps) {
  const auto n = static_cast<std::ptrdiff_t>(std::min(reps.size(), kSchedules));
  return {reps.begin(), reps.begin() + n};
}

/// Per-event-type latency detail for the report line: sample count per
/// repetition, and p50 / p99 / max taken like every timing (fastest_of).
/// The p99 is left out unless every repetition has kMinP99Samples samples.
std::string latency_detail(const std::vector<const Rep*>& reps,
                           const std::function<const std::vector<double>&(const Rep&)>& samples) {
  std::size_t min_n = SIZE_MAX;
  for (const Rep* r : reps) min_n = std::min(min_n, samples(*r).size());
  std::vector<std::string> f{field("samples_per_rep", static_cast<double>(min_n))};
  if (min_n == 0) return object(f);
  f.push_back(field("p50_us", fastest_of(reps, [&](const Rep& r) {
                      return percentile(samples(r), 0.50);
                    })));
  if (min_n >= kMinP99Samples) {
    f.push_back(field("p99_us", fastest_of(reps, [&](const Rep& r) {
                        return percentile(samples(r), 0.99);
                      })));
  }
  f.push_back(field("max_us", fastest_of(reps, [&](const Rep& r) {
                      return percentile(samples(r), 1.0);
                    })));
  return object(f);
}

/// `rss_mb` is the peak resident set after the first cycle: later
/// repetitions only add allocator fragmentation, and how many there are
/// depends on the host's speed.
void end_to_end_metrics(const std::vector<const Rep*>& reps, double rss_mb, RunOutput& out) {
  const RepResult b = cycle_totals(first_cycle(reps));
  std::size_t min_events = SIZE_MAX;
  for (const Rep* r : reps) min_events = std::min(min_events, r->result.events);
  auto& m = out.metrics;
  m.push_back({"events_per_s", fastest_of(reps, events_per_s), "1/s"});
  m.push_back({"event_p50_us", fastest_of(reps, [](const Rep& r) {
                 return percentile(r.result.all_latency_us, 0.50);
               }), "us"});
  if (min_events >= kMinP99Samples) {
    m.push_back({"event_p99_us", fastest_of(reps, [](const Rep& r) {
                   return percentile(r.result.all_latency_us, 0.99);
                 }), "us"});
  }
  for (const EventKind kind : {EventKind::kFault, EventKind::kRecovery}) {
    const auto k = static_cast<std::size_t>(kind);
    if (std::any_of(reps.begin(), reps.end(),
                    [k](const Rep* r) { return r->result.latency_us[k].empty(); })) {
      continue;
    }
    m.push_back({std::string(event_kind_name(kind)) + "_p50_us", fastest_of(reps, [k](const Rep& r) {
                   return percentile(r.result.latency_us[k], 0.50);
                 }), "us"});
  }
  m.push_back({"setup_s", median_of(reps, [](const Rep& r) { return r.setup.total(); }), "s"});
  m.push_back({"peak_rss_mb", rss_mb, "MB"});
  m.push_back({"bandwidth_served_ratio", ratio(b.granted_gbps_sum, b.demanded_gbps_sum), "ratio"});
  const double not_ok = static_cast<double>(b.handler_errors + b.refused + b.failed_teardowns);
  m.push_back({"ops_ok_ratio", 1.0 - ratio(not_ok, static_cast<double>(b.events)), "ratio"});
}

/// Per-layer metrics from the traced repetitions (`traced`), the untraced
/// ones (`plain`) and every repetition (`all`, for set-up).
void per_layer_metrics(const std::vector<const Rep*>& traced, const std::vector<const Rep*>& plain,
                       const std::vector<const Rep*>& all, RunOutput& out) {
  auto& m = out.metrics;
  const RepResult base = cycle_totals(first_cycle(plain));
  const RepResult traced_cycle = cycle_totals(first_cycle(traced));
  const auto events = [](const Rep& r) { return static_cast<double>(r.result.events); };

  m.push_back({"setup.topology_ms", 1e3 * median_of(all, [](const Rep& r) {
                 return r.setup.topology_s;
               }), "ms"});
  m.push_back({"setup.clusters_ms", 1e3 * median_of(all, [](const Rep& r) {
                 return r.setup.clusters_s;
               }), "ms"});
  m.push_back({"setup.provision_ms", 1e3 * median_of(all, [](const Rep& r) {
                 return r.setup.provision_s;
               }), "ms"});

  // Spans are read by name; a name no traced repetition recorded is absent.
  const auto span_seen = [&](const std::string& name) {
    for (const Rep* r : traced) {
      if (r->result.spans.contains(name)) return true;
    }
    out.absent.push_back(name);
    return false;
  };
  const auto self_us = [&](const std::string& span, const std::string& metric) {
    const bool seen = span_seen(span);
    m.push_back({metric, seen ? fastest_of(traced, [&](const Rep& r) {
                   const auto it = r.result.spans.find(span);
                   return it == r.result.spans.end() ? 0.0 : it->second.self_us / events(r);
                 }) : 0.0, "us"});
  };
  const auto span_count = [&](const std::string& span, const std::string& metric) {
    const auto& spans = traced_cycle.spans;
    const auto it = spans.find(span);
    if (it == spans.end()) out.absent.push_back(span);
    m.push_back({metric, it == spans.end() ? 0.0 : static_cast<double>(it->second.count),
                 "count"});
  };
  // Counters are deltas over the replay, read by name; a name the
  // registry never saw is absent (reads 0).
  const auto counter = [&](const std::string& name) -> double {
    const auto it = base.counters.find(name);
    if (it == base.counters.end()) {
      out.absent.push_back(name);
      return 0;
    }
    return static_cast<double>(it->second);
  };

  // cluster / AL builder
  span_count("cluster.rebuild_cluster", "cluster.rebuild_cluster.count");
  self_us("cluster.rebuild_cluster", "cluster.rebuild_cluster.self_us");
  self_us("cluster.restore_degraded_clusters", "cluster.restore_degraded_clusters.self_us");
  self_us("cluster.repair_coverage", "cluster.repair_coverage.self_us");
  for (const char* stage : {"select_tors", "select_ops", "augment_connectivity"}) {
    const std::string name = std::string("al_builder.") + stage;
    self_us(name, name + ".self_us");
  }

  // orchestrator
  self_us("orchestrator.sweep_chains", "orchestrator.sweep_chains.self_us");
  span_count("orchestrator.fit_chain", "orchestrator.fit_chain.count");
  self_us("orchestrator.fit_chain", "orchestrator.fit_chain.self_us");
  self_us("orchestrator.drain_retry_queue", "orchestrator.drain_retry_queue.self_us");
  const double samples = static_cast<double>(std::max<std::size_t>(base.samples, 1));
  m.push_back({"orchestrator.retry_queue.max", static_cast<double>(base.retry_max), "count"});
  m.push_back({"orchestrator.retry_queue.mean", base.retry_sum / samples, "count"});
  m.push_back({"orchestrator.degraded_chains.max", static_cast<double>(base.degraded_max),
               "count"});
  m.push_back({"orchestrator.degraded_chains.mean", base.degraded_sum / samples, "count"});
  self_us("orchestrator.route_cache.route", "orchestrator.route_cache.route.self_us");
  double lookups = 0;
  double reused = 0;
  for (const char* outcome : {"hit", "revalidate", "miss", "stale", "bypass"}) {
    const std::string name = std::string("orchestrator.route_cache.") + outcome;
    const double v = counter(name);
    m.push_back({name, v, "count"});
    lookups += v;
    if (std::string(outcome) == "hit" || std::string(outcome) == "revalidate") reused += v;
  }
  m.push_back({"orchestrator.route_cache.reuse_ratio", ratio(reused, lookups), "ratio"});
  span_count("orchestrator.rebalance_bandwidth", "orchestrator.rebalance_bandwidth.count");
  self_us("orchestrator.rebalance_bandwidth", "orchestrator.rebalance_bandwidth.self_us");
  self_us("orchestrator.provision_chain", "orchestrator.provision_chain.self_us");
  self_us("orchestrator.teardown_chain", "orchestrator.teardown_chain.self_us");
  for (const char* verdict : {"admitted", "admitted_downgraded", "rejected_bandwidth",
                              "rejected_capacity_flow", "rejected_resources"}) {
    const std::string name = std::string("orchestrator.admission.") + verdict;
    m.push_back({name, counter(name), "count"});
  }

  // sdn
  for (const char* kind : {"installed", "removed", "replaced"}) {
    const std::string name = std::string("sdn.rules.") + kind;
    m.push_back({name + ".per_event", ratio(counter(name), static_cast<double>(base.events)),
                 "count/event"});
  }

  // elastic
  self_us("elastic.tick", "elastic.tick.self_us");
  for (const char* action : {"scale_out", "scale_in", "migration"}) {
    const std::string name = std::string("elastic.") + action + ".actions";
    m.push_back({name, counter(name), "count"});
  }
  m.push_back({"elastic.ledger.al_updates_per_action",
               ratio(static_cast<double>(base.elastic_al_updates),
                     static_cast<double>(base.elastic_actions)),
               "count/action"});

  // Self time per event by layer (the span name's first component), and
  // the driver's own root spans. Together they sum to the root spans.
  for (const char* layer : {"driver", "elastic", "orchestrator", "cluster", "al_builder"}) {
    const std::string prefix = std::string(layer) + ".";
    m.push_back({"layer." + std::string(layer) + ".self_us", fastest_of(traced, [&](const Rep& r) {
                   double sum = 0;
                   for (const auto& [name, st] : r.result.spans) {
                     if (name.starts_with(prefix)) sum += st.self_us;
                   }
                   return sum / events(r);
                 }), "us"});
  }
  for (const EventKind kind : {EventKind::kFault, EventKind::kRecovery, EventKind::kProvision,
                               EventKind::kTeardown}) {
    const std::string span = std::string("driver.") + event_kind_name(kind);
    self_us(span, span + ".self_us");
  }

  // Tracing overhead and how much of the replay the spans explain.
  m.push_back({"trace_overhead_ratio",
               ratio(fastest_of(traced, events_per_s), fastest_of(plain, events_per_s)), "ratio"});
  m.push_back({"trace.coverage_ratio", fastest_of(traced, [](const Rep& r) {
                 return ratio(r.result.root_span_us, 1e6 * r.result.replay_wall_s);
               }), "ratio"});
}

RunOutput measure(const std::string& workload, std::uint64_t seed, double seconds, bool trace,
                  bool tiny) {
  const WorkloadShape shape = workload_shape(workload, tiny);
  std::vector<Rep> plain_reps;
  std::vector<Rep> traced_reps;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  const auto start = Clock::now();
  double cycle_rss_mb = 0;
  // Traced and untraced repetitions alternate, on the same schedule, so
  // drift hits both alike.
  do {
    const std::size_t schedule = plain_reps.size() % kSchedules;
    plain_reps.push_back(run_rep(shape, seed, schedule, false));
    if (trace) traced_reps.push_back(run_rep(shape, seed, schedule, true));
    if (plain_reps.size() == kSchedules) cycle_rss_mb = peak_rss_mb();
  } while (Clock::now() < deadline || plain_reps.size() < kSchedules);
  const double measured_s = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<const Rep*> plain;
  std::vector<const Rep*> traced;
  std::vector<const Rep*> all;
  for (const Rep& r : plain_reps) plain.push_back(&r);
  for (const Rep& r : traced_reps) traced.push_back(&r);
  all = plain;
  all.insert(all.end(), traced.begin(), traced.end());

  RunOutput out;
  const Rep& base = *plain.front();
  // Repetitions of one schedule must end in the same state. The run's
  // digest folds the cycle's digests in schedule order.
  std::uint64_t run_digest = 14695981039346656037ull;
  for (std::size_t i = 0; i < kSchedules; ++i) {
    run_digest = (run_digest ^ plain[i]->digest) * 1099511628211ull;
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::size_t schedule = all[i]->schedule;
    for (const auto& v : all[i]->violations) {
      out.violations.push_back("rep " + std::to_string(i) + ": " + v);
    }
    if (all[i]->digest != plain[schedule]->digest) {
      out.violations.push_back("rep " + std::to_string(i) + ": state digest differs from rep " +
                               std::to_string(schedule) + " (same schedule)");
    }
    out.attempted += all[i]->result.events;
    out.failed += all[i]->result.handler_errors + all[i]->result.failed_teardowns;
  }

  if (trace) {
    per_layer_metrics(traced, plain, all, out);
    // The driver's root spans wrap every call, so together with the spans
    // inside the program they must explain nearly all of the replay time.
    for (const Metric& m : out.metrics) {
      if (m.name == "trace.coverage_ratio" && m.value < kMinTraceCoverage) {
        out.violations.push_back("spans cover only " + number(m.value) + " of the replay time");
      }
    }
  } else {
    end_to_end_metrics(plain, cycle_rss_mb, out);
  }

  // ---- report detail ----
  const RepResult b = cycle_totals(first_cycle(plain));
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(run_digest));
  auto& r = out.report;
  r.push_back(field("workload", quoted(workload)));
  r.push_back(field("seed", static_cast<double>(seed)));
  r.push_back(field("tiny", tiny ? "true" : "false"));
  r.push_back(field("trace", trace ? "true" : "false"));
  r.push_back(field("schedules", static_cast<double>(kSchedules)));
  r.push_back(field("reps", static_cast<double>(plain.size())));
  r.push_back(field("traced_reps", static_cast<double>(traced.size())));
  r.push_back(field("measured_s", measured_s));
  r.push_back(field("layout", base.layout));
  std::vector<double> eps;
  for (const Rep* x : plain) eps.push_back(events_per_s(*x));
  r.push_back(field("events_per_s_quartiles",
                    array({number(percentile(eps, 0.25)), number(median(eps)),
                           number(percentile(eps, 0.75))})));
  r.push_back(field("digest", quoted(digest)));
  std::vector<std::string> latency;
  latency.push_back(field("event", latency_detail(plain, [](const Rep& x) -> const auto& {
                            return x.result.all_latency_us;
                          })));
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    latency.push_back(field(event_kind_name(static_cast<EventKind>(k)),
                            latency_detail(plain, [k](const Rep& x) -> const auto& {
                              return x.result.latency_us[k];
                            })));
  }
  r.push_back(field("latency", object(latency)));
  const double attempted = static_cast<double>(b.events);
  const double not_ok = static_cast<double>(b.handler_errors + b.refused + b.failed_teardowns);
  r.push_back(field("ops", object({field("attempted_per_cycle", attempted),
                                   field("handler_errors", static_cast<double>(b.handler_errors)),
                                   field("refused_provisions", static_cast<double>(b.refused)),
                                   field("failed_teardowns", static_cast<double>(b.failed_teardowns)),
                                   field("teardowns_skipped", static_cast<double>(b.teardowns_skipped)),
                                   field("provisioned", static_cast<double>(b.provisioned)),
                                   field("ops_failed_ratio", ratio(not_ok, attempted))})));
  if (b.chain_observations > 0) {
    r.push_back(field("slo_violation_ratio", ratio(static_cast<double>(b.slo_violations),
                                                   static_cast<double>(b.chain_observations))));
  }
  std::vector<std::string> absent;
  for (const auto& name : std::set<std::string>(out.absent.begin(), out.absent.end())) {
    absent.push_back(quoted(name));
  }
  r.push_back(field("absent", array(absent)));
  std::vector<std::string> violations;
  for (const auto& v : out.violations) violations.push_back(quoted(v));
  r.push_back(field("violations", array(violations)));
  return out;
}

void print(const RunOutput& out) {
  std::cout << "report: " << object(out.report) << "\n";
  std::vector<std::string> metrics;
  for (const Metric& m : out.metrics) {
    metrics.push_back(field(m.name, object({field("value", m.value), field("unit", quoted(m.unit))})));
  }
  std::cout << object({field("correct", out.violations.empty() ? "true" : "false"),
                       field("attempted", static_cast<double>(out.attempted)),
                       field("failed", static_cast<double>(out.failed)),
                       field("metrics", object(metrics))})
            << std::endl;
}

/// In-process checks that the gate cannot go blind, per workload: the
/// corruption check, same-seed digest determinism, and that every
/// workload emits the same metric names in both modes even where a named
/// counter never fires (the elastic counters on the fault workloads, which
/// must then be listed as absent).
int self_test() {
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::cerr << "self-test FAILED: " << what << "\n";
    ++failures;
  };
  std::vector<std::string> reference[2];
  for (const std::string& workload : workload_names()) {
    const int failures_before = failures;
    for (const auto& p : gate_self_check(workload)) fail(workload + ": " + p);
    const WorkloadShape shape = workload_shape(workload, /*tiny=*/true);
    const Rep a = run_rep(shape, 7, 0, false);
    const Rep b = run_rep(shape, 7, 0, false);
    if (a.digest != b.digest) fail(workload + ": same seed gave different digests");
    for (const bool trace : {false, true}) {
      const RunOutput out = measure(workload, 7, 0, trace, /*tiny=*/true);
      if (!out.violations.empty()) fail(workload + ": " + out.violations.front());
      std::vector<std::string> names;
      for (const Metric& m : out.metrics) names.push_back(m.name);
      auto& ref = reference[trace ? 1 : 0];
      if (ref.empty()) ref = names;
      if (names != ref) fail(workload + ": metric names differ from " + workload_names().front());
      const bool elastic_absent =
          std::find(out.absent.begin(), out.absent.end(), "elastic.scale_out.actions") !=
          out.absent.end();
      if (trace && workload.starts_with("faults-") && !elastic_absent) {
        fail(workload + ": a counter that never fires was not reported absent");
      }
    }
    if (failures == failures_before) std::cerr << "self-test: " << workload << " ok\n";
  }
  return failures == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::cerr << "error: " << why
            << "\nusage: alvc_replay --workload NAME --seed N --seconds S --trace 0|1 [--tiny]\n"
               "       alvc_replay --self-test\n";
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--self-test") return self_test();
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::stoull(value());
    } else if (arg == "--seconds") {
      seconds = std::stod(value());
    } else if (arg == "--trace") {
      trace = value() != "0";
    } else if (arg == "--tiny") {
      tiny = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty()) return usage("--workload is required");
  if (!(seconds >= 0 && seconds <= 600)) return usage("--seconds must be in [0, 600]");
  (void)workload_shape(workload, tiny);  // rejects unknown names before any work

  // Every run first proves its gate still rejects corrupted state.
  if (const auto problems = gate_self_check(workload); !problems.empty()) {
    for (const auto& p : problems) std::cerr << "gate self-check: " << p << "\n";
    return 3;
  }
  const RunOutput out = measure(workload, seed, seconds, trace, tiny);
  print(out);
  for (const auto& v : out.violations) std::cerr << "gate violation: " << v << "\n";
  return out.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
