// alvc_analyze: whole-program determinism and layering analyzer.
//
// Two passes over the linked per-TU models (model.h):
//
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
  std::size_t call_sites = 0;
  std::size_t findings = 0;
  std::size_t suppressed = 0;
};

class Analyzer {
 public:
  /// Parses and registers one translation unit.
  void add_source(const std::string& path, const std::string& content);

  struct Result {
    std::vector<Finding> findings;    // unsuppressed, sorted by (file, line)
    std::vector<Finding> suppressed;  // waived by allow() comments
    Stats stats;
  };

  /// Links all registered TUs and runs every pass.
  [[nodiscard]] Result run() const;

 private:
  std::vector<TuModel> tus_;
};

}  // namespace alvc::analyze
