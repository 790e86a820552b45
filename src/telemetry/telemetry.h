// Instrumentation hooks: the only telemetry API instrumented code uses.
//
// Every hook compiles to `do {} while (0)` when the build sets
// ALVC_TELEMETRY_ENABLED=0 (cmake -DALVC_TELEMETRY=OFF), so instrumented
// hot paths carry zero code-size or runtime cost in stripped builds — the
// determinism leg of scripts/check.sh asserts ON and OFF builds produce
// bit-identical simulation output.
//
// When ON, each call site caches its metric handle in a function-local
// static (MetricRegistry guarantees handle stability across reset()), so
// the steady-state cost of a hook is one static-init guard check plus one
// plain increment. Like the registry and tracer behind them, the hooks are
// single-threaded: the control plane calls them from its one thread.
//
//   ALVC_COUNT("sdn.rules.installed");             // +1
//   ALVC_COUNT_N("sdn.rules.installed", rules);    // +n
//   ALVC_GAUGE_SET("orchestrator.retry_queue.depth", depth);
//   ALVC_OBSERVE("orchestrator.route.path_length", 0, 64, 32, hops);
//   ALVC_SPAN(span, "cluster.create_cluster");     // RAII scope span
//   ALVC_TELEMETRY_SET_TIME_S(now);  // sim::EventQueue drives the logical clock
#pragma once

#if !defined(ALVC_TELEMETRY_ENABLED)
#define ALVC_TELEMETRY_ENABLED 1
#endif

#if ALVC_TELEMETRY_ENABLED

#include <cstdint>

#include "telemetry/metric_registry.h"
#include "telemetry/span.h"

/// Adds `delta` to the named global counter.
#define ALVC_COUNT_N(name, delta)                                              \
  do {                                                                         \
    static ::alvc::telemetry::Counter& alvc_telemetry_handle =                 \
        ::alvc::telemetry::MetricRegistry::global().counter(name);             \
    alvc_telemetry_handle.add(static_cast<std::uint64_t>(delta));              \
  } while (0)

/// Increments the named global counter.
#define ALVC_COUNT(name) ALVC_COUNT_N(name, 1)

/// Sets the named global gauge to `value`.
#define ALVC_GAUGE_SET(name, value)                                            \
  do {                                                                         \
    static ::alvc::telemetry::Gauge& alvc_telemetry_handle =                   \
        ::alvc::telemetry::MetricRegistry::global().gauge(name);               \
    alvc_telemetry_handle.set(static_cast<double>(value));                     \
  } while (0)

/// Records `sample` into the named global histogram; the first call site
/// reached fixes the [lo, hi) x buckets layout.
#define ALVC_OBSERVE(name, lo, hi, buckets, sample)                            \
  do {                                                                         \
    static ::alvc::telemetry::Histogram& alvc_telemetry_handle =               \
        ::alvc::telemetry::MetricRegistry::global().histogram(name, lo, hi,    \
                                                              buckets);       \
    alvc_telemetry_handle.record(static_cast<double>(sample));                 \
  } while (0)

/// Declares a ScopedSpan named `var` on the global tracer. One load and a
/// branch when the tracer is disabled (the default).
#define ALVC_SPAN(var, name)                                                   \
  ::alvc::telemetry::ScopedSpan var(::alvc::telemetry::Tracer::global(), name)

/// Advances the global tracer's logical clock (simulation seconds).
#define ALVC_TELEMETRY_SET_TIME_S(seconds)                                     \
  ::alvc::telemetry::Tracer::global().set_logical_time_s(seconds)

#else  // !ALVC_TELEMETRY_ENABLED

#define ALVC_COUNT_N(name, delta) \
  do {                            \
  } while (0)
#define ALVC_COUNT(name) \
  do {                   \
  } while (0)
#define ALVC_GAUGE_SET(name, value) \
  do {                              \
  } while (0)
#define ALVC_OBSERVE(name, lo, hi, buckets, sample) \
  do {                                              \
  } while (0)
#define ALVC_SPAN(var, name) \
  do {                       \
  } while (0)
#define ALVC_TELEMETRY_SET_TIME_S(seconds) \
  do {                                     \
  } while (0)

#endif  // ALVC_TELEMETRY_ENABLED
