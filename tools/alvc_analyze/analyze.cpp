// Whole-program link and passes for alvc_analyze. See analyze.h for the
// pass contracts. Everything here iterates sorted containers (std::map /
// std::set) on purpose: the analyzer's own output is covered by its own
// determinism pass, and findings must be byte-stable across runs.
#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.h"

namespace alvc::analyze {
namespace {

// Layer ranks, mirroring alvc_lint's include rules. Layers above the
// orchestrator (io, sim, faults, core) share one application rank; the
// elastic control loop sits above even those — nothing below may call it
// (it is driven from outside via the ChaosParams tick hook).
const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"util", 0},   {"telemetry", 1}, {"graph", 2}, {"topology", 3},
      {"cluster", 4}, {"nfv", 5},      {"sdn", 6},   {"orchestrator", 7},
      {"io", 8},     {"sim", 8},       {"faults", 8}, {"core", 8},
      {"elastic", 9}};
  return kRanks;
}

/// Layer name when `path` is under src/<layer>/, else "".
std::string src_layer(const std::string& path) {
  const std::size_t at = path.rfind("src/");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + 4;
  const std::size_t end = path.find('/', begin);
  if (end == std::string::npos) return "";
  const std::string layer = path.substr(begin, end - begin);
  return layer_ranks().count(layer) > 0 ? layer : "";
}

struct Program {
  // unordered member name -> set of declaring classes ("" = namespace scope).
  std::map<std::string, std::set<std::string>> unordered_classes;
  std::vector<const FunctionModel*> functions;
  // simple name -> function indices; qualified name handled by suffix match.
  std::map<std::string, std::vector<std::size_t>> by_simple;
};

Program link(const std::vector<TuModel>& tus) {
  Program p;
  for (const auto& tu : tus) {
    for (const auto& u : tu.unordered) p.unordered_classes[u.name].insert(u.cls);
  }
  for (const auto& tu : tus) {
    for (const auto& fn : tu.functions) {
      p.by_simple[fn.simple].push_back(p.functions.size());
      p.functions.push_back(&fn);
    }
  }
  return p;
}

constexpr std::size_t kMaxCandidates = 6;

/// Callee candidates for a call site. Qualified names suffix-match against
/// qualified function names; simple names prefer same-class methods. A call
/// shadowed by a caller-local lambda never resolves program-wide.
std::vector<std::size_t> resolve_call(const Program& p, const CallSite& call,
                                      const FunctionModel& caller) {
  const std::string& caller_cls = caller.cls;
  std::vector<std::size_t> out;
  if (caller.local_callables.count(call.name) > 0) return out;
  if (call.name.find("::") != std::string::npos) {
    if (call.name.rfind("std::", 0) == 0) return out;
    const std::string suffix = "::" + call.name;
    for (std::size_t i = 0; i < p.functions.size(); ++i) {
      const std::string& q = p.functions[i]->qualified;
      if (q == call.name ||
          (q.size() > suffix.size() &&
           q.compare(q.size() - suffix.size(), suffix.size(), suffix) == 0)) {
        out.push_back(i);
      }
    }
  } else {
    const auto it = p.by_simple.find(call.name);
    if (it == p.by_simple.end()) return out;
    if (!caller_cls.empty()) {
      for (const std::size_t i : it->second) {
        if (p.functions[i]->cls == caller_cls) out.push_back(i);
      }
    }
    if (out.empty()) out = it->second;
  }
  if (out.size() > kMaxCandidates) out.clear();
  return out;
}

}  // namespace

std::string to_string(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << finding.pass << "] "
      << finding.message;
  return out.str();
}

void Analyzer::add_source(const std::string& path, const std::string& content) {
  tus_.push_back(parse_tu(path, content));
}

Analyzer::Result Analyzer::run() const {
  Result result;
  const Program program = link(tus_);

  result.stats.tus = tus_.size();
  result.stats.functions = program.functions.size();
  for (const auto& tu : tus_) {
    result.stats.lines += tu.lines;
    for (const auto& fn : tu.functions) result.stats.call_sites += fn.calls.size();
  }

  // allow() lookup: file -> line -> waived passes.
  std::map<std::string, const TuModel*> tu_of;
  for (const auto& tu : tus_) tu_of[tu.path] = &tu;
  auto emit = [&](Finding finding) {
    const auto it = tu_of.find(finding.file);
    if (it != tu_of.end()) {
      const auto at = it->second->allows.find(finding.line);
      if (at != it->second->allows.end() &&
          (at->second.count(finding.pass) > 0 || at->second.count("*") > 0)) {
        result.suppressed.push_back(std::move(finding));
        return;
      }
    }
    result.findings.push_back(std::move(finding));
  };

  const std::size_t n = program.functions.size();

  // --- pass: unordered-escape --------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionModel& fn = *program.functions[i];
    for (const auto& loop : fn.loops) {
      if (!loop.has_sink) continue;
      bool unordered = fn.local_unordered.count(loop.ident) > 0;
      if (!unordered) {
        const auto it = program.unordered_classes.find(loop.ident);
        if (it != program.unordered_classes.end()) {
          unordered = (!fn.cls.empty() && it->second.count(fn.cls) > 0) ||
                      it->second.size() == 1;
        }
      }
      if (!unordered) continue;
      bool sorted_later = false;
      for (const std::size_t sort_line : fn.sort_lines) {
        if (sort_line > loop.line) sorted_later = true;
      }
      if (sorted_later) continue;
      Finding finding;
      finding.file = fn.file;
      finding.line = loop.line;
      finding.pass = "unordered-escape";
      finding.message = "iteration over unordered '" + loop.ident +
                        "' escapes in hash order (sink at line " +
                        std::to_string(loop.sink_line) + ") in " + fn.qualified +
                        "; iterate a sorted snapshot or sort before returning";
      emit(std::move(finding));
    }
  }

  // --- pass: layering-call ------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionModel& fn = *program.functions[i];
    const std::string caller_layer = src_layer(fn.file);
    if (caller_layer.empty()) continue;
    const int caller_rank = layer_ranks().at(caller_layer);
    for (const auto& call : fn.calls) {
      int callee_rank = -1;
      std::string callee_layer;
      if (call.name.find("::") != std::string::npos) {
        // Explicit qualification names the layer directly.
        std::stringstream parts(call.name);
        std::string part;
        while (std::getline(parts, part, ':')) {
          const auto it = layer_ranks().find(part);
          if (it != layer_ranks().end() && it->second > callee_rank) {
            callee_rank = it->second;
            callee_layer = part;
          }
        }
      } else if (!call.member_call) {
        // Unqualified free calls only count with a unique program-wide
        // target. Member calls stay out: without receiver types, `xs.at(i)`
        // would pin to whatever class happens to define a unique at().
        const auto candidates = resolve_call(program, call, fn);
        if (candidates.size() == 1) {
          const std::string layer = src_layer(program.functions[candidates[0]]->file);
          if (!layer.empty()) {
            callee_rank = layer_ranks().at(layer);
            callee_layer = layer;
          }
        }
      }
      if (callee_rank <= caller_rank) continue;
      Finding finding;
      finding.file = fn.file;
      finding.line = call.line;
      finding.pass = "layering-call";
      finding.message = "layer '" + caller_layer + "' calls upwards into '" +
                        callee_layer + "' via '" + call.name + "' in " + fn.qualified;
      emit(std::move(finding));
    }
  }

  auto by_location = [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.pass < b.pass;
  };
  auto same = [](const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.pass == b.pass &&
           a.message == b.message;
  };
  std::sort(result.findings.begin(), result.findings.end(), by_location);
  result.findings.erase(
      std::unique(result.findings.begin(), result.findings.end(), same),
      result.findings.end());
  std::sort(result.suppressed.begin(), result.suppressed.end(), by_location);
  result.suppressed.erase(
      std::unique(result.suppressed.begin(), result.suppressed.end(), same),
      result.suppressed.end());
  result.stats.findings = result.findings.size();
  result.stats.suppressed = result.suppressed.size();
  return result;
}

}  // namespace alvc::analyze
