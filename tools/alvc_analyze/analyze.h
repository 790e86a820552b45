// alvc_analyze: whole-program lock-order and determinism analyzer.
//
// Four passes over the linked per-TU models (model.h):
//
//   lock-cycle           the lock-order graph (nodes: `Class::member`
//                        mutexes; edges: nested RAII acquisitions plus
//                        transitive acquisitions through the call graph)
//                        must be acyclic — a cycle is a potential deadlock.
//   lock-held-blocking   no blocking call (thread-pool submit/wait_all,
//                        condition-variable waits that pin a second lock,
//                        sleeps, stream I/O, control-plane entry points)
//                        while any lock is held.
//   unordered-escape     iteration over an unordered container must not
//                        escape in hash order: a range-for over an
//                        unordered_map/set whose body feeds an
//                        order-preserving sink (push_back/append/<<) with no
//                        std::sort afterwards is nondeterministic output.
//   layering-call        call-graph layering: a layer may only call
//                        downwards (util < telemetry < graph < topology <
//                        cluster < nfv < sdn < orchestrator < io/sim/
//                        faults/core < elastic), mirroring alvc_lint's
//                        include rules at call granularity.
//
// A finding on line N is waived by an `alvc-analyze: allow(<pass>)` comment
// on that line ("*" waives every pass). The driver (main.cpp) additionally
// applies a committed baseline file; the tree's baseline is empty and must
// stay empty.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model.h"

namespace alvc::analyze {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string pass;
  std::string message;
};

/// Formats a finding as "path:line: [pass] message".
[[nodiscard]] std::string to_string(const Finding& finding);

/// Run statistics, emitted by the driver as a JSON artifact so CI can track
/// analyzer coverage over time.
struct Stats {
  std::size_t tus = 0;
  std::size_t lines = 0;
  std::size_t functions = 0;
  std::size_t mutexes = 0;
  std::size_t lock_sites = 0;
  std::size_t call_sites = 0;
  std::size_t lock_edges = 0;
  std::size_t cycles = 0;
  std::size_t findings = 0;
  std::size_t suppressed = 0;
};

/// One edge of the linked lock-order graph, exported for the runtime
/// LockRank table test and for diagnostics.
struct LockEdge {
  std::string from;  // `Class::member` acquired first
  std::string to;    // acquired while `from` is held
  std::string file;
  std::size_t line = 0;
  std::string via;   // qualified function the edge was observed in
};

class Analyzer {
 public:
  /// Parses and registers one translation unit.
  void add_source(const std::string& path, const std::string& content);

  struct Result {
    std::vector<Finding> findings;    // unsuppressed, sorted by (file, line)
    std::vector<Finding> suppressed;  // waived by allow() comments
    std::vector<LockEdge> edges;      // full lock-order graph
    Stats stats;
  };

  /// Links all registered TUs and runs every pass.
  [[nodiscard]] Result run() const;

 private:
  std::vector<TuModel> tus_;
};

}  // namespace alvc::analyze
