// Heuristic per-TU parser for alvc_analyze. See model.h for scope and
// non-goals. Structure: a character scanner tracks braces and classifies
// each `{` as namespace / class / function / plain block from the pending
// declaration chunk; inside function bodies a line-oriented matcher records
// calls, range-for loops over identifiers, and escape sinks.
#include <cctype>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "model.h"
#include "scan.h"

namespace alvc::analyze {
namespace {

const std::regex& unordered_local_re() {
  static const std::regex re(
      R"(std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+))");
  return re;
}

const std::regex& sort_re() {
  static const std::regex re(R"((std\s*::\s*(?:stable_)?sort|ranges\s*::\s*sort)\s*\()");
  return re;
}

const std::regex& sink_re() {
  static const std::regex re(R"(\.\s*(push_back|emplace_back|append)\s*\(|<<)");
  return re;
}

const std::regex& call_re() {
  static const std::regex re(
      R"((?:(\.|->)\s*)?([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_~]\w*)*)\s*\()");
  return re;
}

const std::regex& unordered_member_re() {
  // Matches the declaration; the member name is extracted separately.
  static const std::regex re(R"(std\s*::\s*unordered_(map|set|multimap|multiset)\s*<)");
  return re;
}

const std::regex& class_re() {
  static const std::regex re(R"((^|[^\w])(class|struct|union)\s+([A-Za-z_]\w*))");
  return re;
}

const std::regex& namespace_re() {
  static const std::regex re(R"((^|[^\w])namespace(\s+[A-Za-z_][\w:]*)?\s*$)");
  return re;
}

bool is_keyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",      "while",  "switch",        "return",   "catch",
      "sizeof", "alignof",  "throw",  "new",           "delete",   "else",
      "do",     "case",     "goto",   "assert",        "decltype", "noexcept",
      "typeid", "co_await", "co_return", "static_assert"};
  return kKeywords.count(name) > 0;
}

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t");
  if (a == std::string::npos) return "";
  const std::size_t b = s.find_last_not_of(" \t");
  return s.substr(a, b - a + 1);
}

/// Last identifier token in an expression ("other.mu_" -> "mu_").
std::string last_identifier(const std::string& expr) {
  std::string out;
  for (std::size_t i = expr.size(); i-- > 0;) {
    const char c = expr[i];
    if ((std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_') {
      out.insert(out.begin(), c);
    } else if (!out.empty()) {
      break;
    }
  }
  return out;
}

class Parser {
 public:
  explicit Parser(std::string path) { tu_.path = std::move(path); }

  void feed(const std::string& raw) {
    ++line_no_;
    ++tu_.lines;
    record_allows(raw);
    std::string stripped = alvc::lint::strip_noncode(raw, scan_);
    const std::size_t first = stripped.find_first_not_of(" \t");
    const bool directive = first != std::string::npos && stripped[first] == '#';
    if (directive || in_continuation_) {
      in_continuation_ = !stripped.empty() && stripped.back() == '\\';
      return;
    }
    std::size_t pos = 0;
    while (pos < stripped.size()) {
      if (in_function()) {
        pos = feed_body(stripped, pos);
      } else {
        pos = feed_chunk(stripped, pos);
      }
    }
    if (!in_function()) chunk_ += ' ';
  }

  TuModel finish() {
    // Close any function left open by unbalanced input (defensive).
    while (!scopes_.empty()) {
      if (scopes_.back().kind == Scope::kFunction) end_function();
      scopes_.pop_back();
    }
    return std::move(tu_);
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kFunction, kBlock } kind = kBlock;
    std::string name;
  };

  struct ActiveLoop {
    std::string ident;
    int close_depth = 0;   // braced: loop ends when fdepth_ returns here
    std::size_t line = 0;
    bool braced = false;
    int lines_left = 0;    // unbraced: this line + the next
    bool has_sink = false;
    std::size_t sink_line = 0;
  };

  bool in_function() const {
    return !scopes_.empty() && scopes_.back().kind == Scope::kFunction;
  }

  void record_allows(const std::string& raw) {
    static const std::string kTag = "alvc-analyze: allow(";
    std::size_t at = 0;
    while ((at = raw.find(kTag, at)) != std::string::npos) {
      const std::size_t open = at + kTag.size();
      const std::size_t close = raw.find(')', open);
      if (close == std::string::npos) break;
      tu_.allows[line_no_].insert(raw.substr(open, close - open));
      at = close;
    }
  }

  // --- declaration-chunk mode (outside function bodies) -------------------

  std::size_t feed_chunk(const std::string& text, std::size_t pos) {
    for (std::size_t i = pos; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '{') {
        open_scope();
        if (in_function()) return i + 1;
        continue;
      }
      if (c == '}') {
        if (!scopes_.empty()) scopes_.pop_back();
        chunk_.clear();
        continue;
      }
      if (c == ';') {
        parse_declaration();
        chunk_.clear();
        continue;
      }
      chunk_ += c;
    }
    return text.size();
  }

  void open_scope() {
    const std::string chunk = trim(chunk_);
    chunk_.clear();
    std::smatch m;
    if (chunk.empty()) {
      scopes_.push_back({Scope::kBlock, ""});
      return;
    }
    if (std::regex_search(chunk, m, namespace_re())) {
      scopes_.push_back({Scope::kNamespace, trim(m[2].str())});
      return;
    }
    if (std::regex_search(chunk, std::regex(R"((^|\s)enum(\s|$))"))) {
      scopes_.push_back({Scope::kBlock, ""});
      return;
    }
    const char tail = chunk.back();
    if (tail == '=' || tail == ',' || tail == '(') {
      scopes_.push_back({Scope::kBlock, ""});  // initializer braces
      return;
    }
    const bool has_paren = chunk.find('(') != std::string::npos;
    if (!has_paren && tail == ']') {
      begin_function("<lambda>");  // `auto f = [...]` capture with no params
      return;
    }
    if (!has_paren && std::regex_search(chunk, m, class_re())) {
      // Take the last class-key match: `template <class T> struct Foo`.
      std::string name;
      for (auto it = std::sregex_iterator(chunk.begin(), chunk.end(), class_re());
           it != std::sregex_iterator(); ++it) {
        name = (*it)[3].str();
      }
      scopes_.push_back({Scope::kClass, name});
      return;
    }
    if (has_paren) {
      // Identifier sequence immediately before the first '(' names the
      // function (or, for a ctor, `Class::Class`).
      const std::size_t paren = chunk.find('(');
      std::size_t end = paren;
      while (end > 0 && (std::isspace(static_cast<unsigned char>(chunk[end - 1])) != 0)) --end;
      std::size_t begin = end;
      while (begin > 0) {
        const char p = chunk[begin - 1];
        if ((std::isalnum(static_cast<unsigned char>(p)) != 0) || p == '_' || p == ':' ||
            p == '~') {
          --begin;
        } else {
          break;
        }
      }
      const std::string name = chunk.substr(begin, end - begin);
      if (name.empty() || is_keyword(name)) {
        scopes_.push_back({Scope::kBlock, ""});
      } else if (chunk.find(']') != std::string::npos &&
                 chunk.find('[') != std::string::npos &&
                 chunk.rfind(']') > paren) {
        begin_function("<lambda>");  // `= [cap](args)` style lambda
      } else {
        begin_function(name);
      }
      return;
    }
    scopes_.push_back({Scope::kBlock, ""});
  }

  void begin_function(const std::string& name) {
    FunctionModel fn;
    fn.file = tu_.path;
    fn.line = line_no_;
    std::string prefix;
    std::string innermost_class;
    for (const auto& s : scopes_) {
      if (s.kind == Scope::kNamespace && !s.name.empty()) {
        prefix += s.name + "::";
      } else if (s.kind == Scope::kClass) {
        prefix += s.name + "::";
        innermost_class = s.name;
      }
    }
    fn.qualified = prefix + name;
    const std::size_t last_sep = name.rfind("::");
    if (last_sep != std::string::npos) {
      fn.simple = name.substr(last_sep + 2);
      const std::size_t prev = name.rfind("::", last_sep - 1);
      fn.cls = name.substr(prev == std::string::npos ? 0 : prev + 2,
                           last_sep - (prev == std::string::npos ? 0 : prev + 2));
    } else {
      fn.simple = name;
      fn.cls = innermost_class;
    }
    tu_.functions.push_back(std::move(fn));
    scopes_.push_back({Scope::kFunction, name});
    fdepth_ = 1;
    loops_.clear();
  }

  void end_function() {
    for (const auto& loop : loops_) finish_loop(loop);
    loops_.clear();
  }

  void parse_declaration() {
    const std::string chunk = trim(chunk_);
    if (chunk.empty()) return;
    std::string cls;
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) {
        cls = it->name;
        break;
      }
    }
    if (std::regex_search(chunk, unordered_member_re()) &&
        chunk.find('(') == std::string::npos) {
      // Member name: last identifier before any default initializer.
      std::string decl = chunk;
      const std::size_t eq = decl.find('=');
      if (eq != std::string::npos) decl = decl.substr(0, eq);
      const std::size_t close = decl.rfind('>');
      const std::string name =
          close == std::string::npos ? "" : last_identifier(decl.substr(close + 1));
      if (!name.empty()) tu_.unordered.push_back(UnorderedDecl{cls, name, line_no_});
    }
  }

  // --- function-body mode --------------------------------------------------

  FunctionModel& fn() { return tu_.functions.back(); }

  void flush_loops(int depth) {
    // A braced loop's body lives at close_depth; once the current depth
    // drops below that, the loop is over.
    for (std::size_t i = loops_.size(); i-- > 0;) {
      if (loops_[i].braced && loops_[i].close_depth > depth) {
        finish_loop(loops_[i]);
        loops_.erase(loops_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  void finish_loop(const ActiveLoop& loop) {
    UnorderedLoop out;
    out.ident = loop.ident;
    out.line = loop.line;
    out.has_sink = loop.has_sink;
    out.sink_line = loop.sink_line;
    fn().loops.push_back(std::move(out));
  }

  void expire_unbraced_loops() {
    for (std::size_t i = loops_.size(); i-- > 0;) {
      if (loops_[i].braced) continue;
      if (--loops_[i].lines_left <= 0) {
        finish_loop(loops_[i]);
        loops_.erase(loops_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  std::size_t feed_body(const std::string& text, std::size_t pos) {
    expire_unbraced_loops();
    // Leading closers first, so same-line matches see the post-pop loop set.
    std::size_t scan = pos;
    while (scan < text.size() &&
           (text[scan] == ' ' || text[scan] == '\t' || text[scan] == '}')) {
      if (text[scan] == '}') {
        --fdepth_;
        flush_loops(fdepth_);
        if (fdepth_ == 0) {
          end_function();
          scopes_.pop_back();
          return scan + 1;
        }
      }
      ++scan;
    }
    const std::string body = text.substr(scan);
    match_body(body);
    // Remaining braces decide scope: a mid-line `}` that ends the function
    // hands the rest of the line back to the chunk scanner.
    for (std::size_t i = scan; i < text.size(); ++i) {
      if (text[i] == '{') ++fdepth_;
      if (text[i] == '}') {
        --fdepth_;
        flush_loops(fdepth_);
        if (fdepth_ == 0) {
          end_function();
          scopes_.pop_back();
          return i + 1;
        }
      }
    }
    return text.size();
  }

  // Brace delta accumulated before `pos` within this body segment, so a
  // one-line `for (...) { ... }` records its loop at the depth the trailing
  // `}` actually pops.
  int depth_at(const std::string& body, std::size_t pos) const {
    int delta = 0;
    for (std::size_t i = 0; i < pos && i < body.size(); ++i) {
      if (body[i] == '{') ++delta;
      if (body[i] == '}') --delta;
    }
    return fdepth_ + delta;
  }

  void match_body(const std::string& body) {
    std::smatch m;
    if (std::regex_search(body, m, unordered_local_re())) {
      fn().local_unordered.insert(m[1].str());
    }
    static const std::regex lambda_local_re(R"(auto[&\s]+(\w+)\s*=\s*\[)");
    if (std::regex_search(body, m, lambda_local_re)) {
      fn().local_callables.insert(m[1].str());
    }
    if (std::regex_search(body, sort_re())) fn().sort_lines.push_back(line_no_);
    match_range_for(body);
    if (!loops_.empty() && std::regex_search(body, sink_re())) {
      for (auto& loop : loops_) {
        if (!loop.has_sink) {
          loop.has_sink = true;
          loop.sink_line = line_no_;
        }
      }
    }
    match_calls(body);
  }

  void match_range_for(const std::string& body) {
    static const std::regex for_re(R"((^|[^\w])for\s*\()");
    std::smatch m;
    if (!std::regex_search(body, m, for_re)) return;
    const std::size_t open =
        static_cast<std::size_t>(m.position(0) + m.length(0)) - 1;
    int depth = 0;
    std::size_t close = std::string::npos;
    std::size_t colon = std::string::npos;
    bool classic = false;
    for (std::size_t i = open; i < body.size(); ++i) {
      const char c = body[i];
      if (c == '(') ++depth;
      if (c == ')' && --depth == 0) {
        close = i;
        break;
      }
      if (depth == 1 && c == ';') classic = true;
      if (depth == 1 && c == ':' && colon == std::string::npos) {
        const bool scope_colon = (i + 1 < body.size() && body[i + 1] == ':') ||
                                 (i > 0 && body[i - 1] == ':');
        if (!scope_colon) colon = i;
      }
    }
    if (classic || colon == std::string::npos || close == std::string::npos) return;
    const std::string range = trim(body.substr(colon + 1, close - colon - 1));
    if (range.empty() || range.back() == ')') return;  // call result, not a member
    const std::string ident = last_identifier(range);
    if (ident.empty()) return;
    ActiveLoop loop;
    loop.ident = ident;
    loop.line = line_no_;
    const std::string tail = body.substr(close + 1);
    if (tail.find('{') != std::string::npos) {
      loop.braced = true;
      loop.close_depth = depth_at(body, close) + 1;  // the `{` after the header
    } else {
      loop.braced = false;
      loop.lines_left = 2;  // header line + one statement line
    }
    loops_.push_back(std::move(loop));
  }

  void match_calls(const std::string& body) {
    for (auto it = std::sregex_iterator(body.begin(), body.end(), call_re());
         it != std::sregex_iterator(); ++it) {
      std::string name = (*it)[2].str();
      name = std::regex_replace(name, std::regex(R"(\s+)"), "");
      if (is_keyword(name) || name.rfind("ALVC_", 0) == 0) continue;
      CallSite call;
      call.name = std::move(name);
      call.member_call = (*it)[1].matched;
      call.line = line_no_;
      fn().calls.push_back(std::move(call));
    }
  }

  TuModel tu_;
  alvc::lint::ScanState scan_;
  std::size_t line_no_ = 0;
  bool in_continuation_ = false;
  std::vector<Scope> scopes_;
  std::string chunk_;
  int fdepth_ = 0;
  std::vector<ActiveLoop> loops_;
};

}  // namespace

TuModel parse_tu(const std::string& path, const std::string& content) {
  Parser parser(path);
  std::istringstream stream{content};
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    parser.feed(line);
  }
  return parser.finish();
}

}  // namespace alvc::analyze
