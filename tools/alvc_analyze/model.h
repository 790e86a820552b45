// alvc_analyze per-TU model: what the heuristic parser (parse.cpp) extracts
// from one translation unit before the whole-program link (analyze.cpp).
//
// The parser is deliberately not a C++ front end. It reuses the alvc_lint
// comment/string stripper, tracks namespace/class/function scopes by brace
// depth, and pattern-matches the narrow idioms this codebase actually uses:
// unordered container declarations, range-for loops, and qualified or
// simple-name calls. Anything it cannot resolve it drops rather
// than guesses — the analyzer's contract is "no false negatives on the
// idioms we write", not "sound for arbitrary C++".
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace alvc::analyze {

/// An unordered container declaration visible program-wide (class member or
/// namespace-scope). Used by the determinism pass to decide whether a
/// range-for iterates in hash order.
struct UnorderedDecl {
  std::string cls;
  std::string name;
  std::size_t line = 0;
};

/// A call site. `name` is the callee as written (possibly qualified
/// `a::b::c`); resolution against the program-wide function registry
/// happens at link time.
struct CallSite {
  std::string name;
  bool member_call = false;  // written obj.name(...) or obj->name(...)
  std::size_t line = 0;
};

/// A range-for whose range expression is a plain identifier (possibly
/// member-accessed). The determinism pass flags it when the identifier
/// resolves to an unordered container, the body reaches an order-preserving
/// sink, and no std::sort follows in the same function.
struct UnorderedLoop {
  std::string ident;
  std::size_t line = 0;
  bool has_sink = false;        // push_back / emplace_back / append / <<
  std::size_t sink_line = 0;
};

struct FunctionModel {
  std::string qualified;  // namespaces + class + name, "::"-joined
  std::string cls;        // nearest enclosing class, "" for free functions
  std::string simple;     // last name component
  std::string file;
  std::size_t line = 0;
  std::vector<CallSite> calls;
  std::vector<UnorderedLoop> loops;
  std::vector<std::size_t> sort_lines;     // std::sort / stable_sort sites
  std::set<std::string> local_unordered;   // body-local unordered containers
  std::set<std::string> local_callables;   // `auto name = [...]` lambdas: calls
                                           // to these never resolve program-wide
};

struct TuModel {
  std::string path;
  std::size_t lines = 0;
  std::vector<UnorderedDecl> unordered;
  std::vector<FunctionModel> functions;
  // line -> passes waived by an `alvc-analyze: allow(<pass>)` comment.
  std::map<std::size_t, std::set<std::string>> allows;
};

/// Parses one translation unit into its model. Never throws on weird input:
/// unparseable constructs degrade to unmodeled code, not errors.
[[nodiscard]] TuModel parse_tu(const std::string& path, const std::string& content);

}  // namespace alvc::analyze
