// Whole-program link and passes for alvc_analyze. See analyze.h for the
// pass contracts. Everything here iterates sorted containers (std::map /
// std::set) on purpose: the analyzer's own output is covered by its own
// determinism pass, and findings must be byte-stable across runs.
#include <algorithm>
#include <map>
#include <optional>
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

std::string last_component(const std::string& name) {
  const std::size_t at = name.rfind("::");
  return at == std::string::npos ? name : name.substr(at + 2);
}

/// Trailing identifier of a raw mutex expression ("other.mu_" -> "mu_");
/// empty when the expression has no identifier tail.
std::string expr_tail(const std::string& expr) {
  std::string out;
  for (std::size_t i = expr.size(); i-- > 0;) {
    const char c = expr[i];
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
        c == '_') {
      out.insert(out.begin(), c);
    } else if (!out.empty()) {
      break;
    }
  }
  return out;
}

struct Program {
  // mutex member name -> set of declaring classes ("" = namespace scope).
  std::map<std::string, std::set<std::string>> mutex_classes;
  std::map<std::string, std::set<std::string>> unordered_classes;
  std::vector<const FunctionModel*> functions;
  // simple name -> function indices; qualified name handled by suffix match.
  std::map<std::string, std::vector<std::size_t>> by_simple;
  std::map<std::string, int> file_rank;  // function index is keyed via functions
};

Program link(const std::vector<TuModel>& tus) {
  Program p;
  for (const auto& tu : tus) {
    for (const auto& m : tu.mutexes) p.mutex_classes[m.name].insert(m.cls);
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

/// Resolves a raw mutex expression in the context of `cls` to a graph node
/// id (`Class::member` or `::global`). nullopt = untracked.
std::optional<std::string> resolve_mutex(const Program& p, const std::string& expr,
                                         const std::string& cls) {
  const std::string name = expr_tail(expr);
  if (name.empty()) return std::nullopt;
  const auto it = p.mutex_classes.find(name);
  if (it == p.mutex_classes.end()) return std::nullopt;
  const auto& classes = it->second;
  if (!cls.empty() && classes.count(cls) > 0) return cls + "::" + name;
  if (classes.size() == 1) {
    const std::string& owner = *classes.begin();
    return owner.empty() ? "::" + name : owner + "::" + name;
  }
  if (classes.count("") > 0) return "::" + name;
  return std::nullopt;
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

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out += sep;
    out += part;
  }
  return out;
}

// Calls that block (or re-enter the control plane) and must never run under
// a lock. `wait`-family members are tolerated with exactly one lock held —
// that is the condition-variable idiom, which releases its own lock.
bool is_blocking_call(const std::string& simple, std::size_t held_count) {
  static const std::set<std::string> kBlocking = {
      "wait_all", "sleep_for", "sleep_until", "flush",
      "submit",   "route",     "route_graph", "route_linear",
      "provision_chain", "provision_forwarding_graph", "teardown_chain"};
  static const std::set<std::string> kCvWait = {"wait", "wait_for", "wait_until"};
  if (kBlocking.count(simple) > 0) return held_count >= 1;
  if (kCvWait.count(simple) > 0) return held_count >= 2;
  if (simple == "<io-stream>") return held_count >= 1;
  return false;
}

struct EdgeKey {
  std::string from;
  std::string to;
  bool operator<(const EdgeKey& other) const {
    return from != other.from ? from < other.from : to < other.to;
  }
};

/// Iterative Tarjan SCC over the lock-order graph.
std::vector<std::vector<std::string>> strongly_connected(
    const std::map<std::string, std::set<std::string>>& adj) {
  std::vector<std::string> nodes;
  std::map<std::string, std::size_t> index_of;
  for (const auto& [node, _] : adj) {
    index_of[node] = nodes.size();
    nodes.push_back(node);
  }
  for (const auto& [_, outs] : adj) {
    for (const auto& to : outs) {
      if (index_of.count(to) == 0) {
        index_of[to] = nodes.size();
        nodes.push_back(to);
      }
    }
  }
  const std::size_t n = nodes.size();
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kUnset);
  std::vector<std::size_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::string>> sccs;
  std::size_t counter = 0;

  struct Frame {
    std::size_t v;
    std::vector<std::size_t> succs;
    std::size_t next = 0;
  };
  auto successors = [&](std::size_t v) {
    std::vector<std::size_t> out;
    const auto it = adj.find(nodes[v]);
    if (it != adj.end()) {
      for (const auto& to : it->second) out.push_back(index_of.at(to));
    }
    return out;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnset) continue;
    std::vector<Frame> frames;
    frames.push_back(Frame{root, successors(root)});
    index[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < f.succs.size()) {
        const std::size_t w = f.succs[f.next++];
        if (index[w] == kUnset) {
          index[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w, successors(w)});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          std::vector<std::string> scc;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(nodes[w]);
            if (w == f.v) break;
          }
          std::sort(scc.begin(), scc.end());
          sccs.push_back(std::move(scc));
        }
        const std::size_t v = f.v;
        frames.pop_back();
        if (!frames.empty()) low[frames.back().v] = std::min(low[frames.back().v], low[v]);
      }
    }
  }
  return sccs;
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
    result.stats.mutexes += tu.mutexes.size();
    for (const auto& fn : tu.functions) {
      result.stats.lock_sites += fn.locks.size();
      result.stats.call_sites += fn.calls.size();
    }
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

  // --- transitive lock sets through the call graph -----------------------
  const std::size_t n = program.functions.size();
  std::vector<std::set<std::string>> acquires(n);
  std::vector<std::vector<std::size_t>> callees(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionModel& fn = *program.functions[i];
    for (const auto& lock : fn.locks) {
      for (const auto& expr : lock.exprs) {
        if (const auto id = resolve_mutex(program, expr, fn.cls)) acquires[i].insert(*id);
      }
    }
    for (const auto& call : fn.calls) {
      for (const std::size_t c : resolve_call(program, call, fn)) {
        callees[i].push_back(c);
      }
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::size_t c : callees[i]) {
        for (const auto& id : acquires[c]) {
          if (acquires[i].insert(id).second) changed = true;
        }
      }
    }
  }

  // --- lock-order edges ---------------------------------------------------
  std::map<EdgeKey, LockEdge> edges;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const FunctionModel& via, std::size_t line) {
    if (from == to) return;  // same class+member: either atomic multi-lock
                             // (scoped_lock) or a distinct-object handoff
    const EdgeKey key{from, to};
    if (edges.count(key) == 0) {
      edges[key] = LockEdge{from, to, via.file, line, via.qualified};
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionModel& fn = *program.functions[i];
    for (const auto& nested : fn.nested) {
      const auto from = resolve_mutex(program, nested.held_expr, fn.cls);
      const auto to = resolve_mutex(program, nested.acquired_expr, fn.cls);
      if (from && to) add_edge(*from, *to, fn, nested.line);
    }
    for (const auto& call : fn.calls) {
      if (call.held.empty()) continue;
      std::set<std::string> callee_locks;
      for (const std::size_t c : resolve_call(program, call, fn)) {
        callee_locks.insert(acquires[c].begin(), acquires[c].end());
      }
      if (callee_locks.empty()) continue;
      for (const auto& held : call.held) {
        const auto from = resolve_mutex(program, held, fn.cls);
        if (!from) continue;
        for (const auto& to : callee_locks) add_edge(*from, to, fn, call.line);
      }
    }
  }
  for (const auto& [_, edge] : edges) result.edges.push_back(edge);
  result.stats.lock_edges = edges.size();

  // --- pass: lock-cycle ---------------------------------------------------
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [key, _] : edges) adj[key.from].insert(key.to);
  for (const auto& scc : strongly_connected(adj)) {
    if (scc.size() < 2) continue;
    ++result.stats.cycles;
    const std::set<std::string> members(scc.begin(), scc.end());
    const LockEdge* anchor = nullptr;
    std::vector<std::string> hops;
    for (const auto& [key, edge] : edges) {
      if (members.count(key.from) == 0 || members.count(key.to) == 0) continue;
      if (anchor == nullptr) anchor = &edge;
      if (hops.size() < 4) {
        hops.push_back(edge.from + " -> " + edge.to + " at " + edge.file + ":" +
                       std::to_string(edge.line) + " (in " + edge.via + ")");
      }
    }
    Finding finding;
    finding.file = anchor->file;
    finding.line = anchor->line;
    finding.pass = "lock-cycle";
    finding.message = "lock-order cycle among {" + join(scc, ", ") + "}: " +
                      join(hops, "; ");
    emit(std::move(finding));
  }

  // --- pass: lock-held-blocking ------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionModel& fn = *program.functions[i];
    for (const auto& call : fn.calls) {
      if (call.held.empty()) continue;
      const std::string simple = last_component(call.name);
      if (!is_blocking_call(simple, call.held.size())) continue;
      std::vector<std::string> held_names;
      for (const auto& expr : call.held) {
        const auto id = resolve_mutex(program, expr, fn.cls);
        held_names.push_back(id ? *id : expr);
      }
      Finding finding;
      finding.file = fn.file;
      finding.line = call.line;
      finding.pass = "lock-held-blocking";
      finding.message = "blocking call " +
                        (call.name == "<io-stream>" ? std::string("to stream I/O")
                                                    : "'" + call.name + "'") +
                        " while holding {" + join(held_names, ", ") + "} in " +
                        fn.qualified;
      emit(std::move(finding));
    }
  }

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
