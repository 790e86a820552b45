// alvc_analyze driver: parses every C++ file under the given roots, links
// them into one program model, runs the two passes (see analyze.h), and
// exits non-zero on any unsuppressed, un-baselined finding.
//
// Usage: alvc_analyze [--exclude SUBSTR]... [--baseline FILE]
//                     [--stats-json FILE] <file-or-dir>...
//
// The baseline file has the alvc_lint suppressions format — one
// `path-substring:pass` entry per line (`*` matches every pass), `#`
// comments ignored. The committed tree baseline (tools/alvc_analyze/
// baseline.txt) is empty and the check.sh gate keeps it that way; the flag
// exists so a future true-but-deferred finding can be parked visibly
// instead of silencing the whole gate.
//
// --stats-json writes run statistics (TUs, functions, call sites, findings,
// wall time) as a small JSON artifact so CI can chart analyzer coverage
// next to BENCH_*.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.h"

namespace {

namespace fs = std::filesystem;

bool analyzable(const fs::path& path) {
  const auto ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

bool excluded(const std::string& path, const std::vector<std::string>& excludes) {
  for (const auto& pattern : excludes) {
    if (path.find(pattern) != std::string::npos) return true;
  }
  return false;
}

struct BaselineEntry {
  std::string path_substring;
  std::string pass;  // "*" matches every pass
};

bool parse_baseline(const std::string& path, std::vector<BaselineEntry>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "alvc_analyze: cannot read baseline file " << path << "\n";
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    const std::string entry = line.substr(start, end - start + 1);
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == entry.size()) {
      std::cerr << "alvc_analyze: " << path << ":" << line_no
                << ": malformed baseline entry (want path-substring:pass): " << entry
                << "\n";
      return false;
    }
    out.push_back(BaselineEntry{entry.substr(0, colon), entry.substr(colon + 1)});
  }
  return true;
}

bool baselined(const alvc::analyze::Finding& finding,
               const std::vector<BaselineEntry>& entries) {
  for (const auto& e : entries) {
    if (finding.file.find(e.path_substring) == std::string::npos) continue;
    if (e.pass == "*" || e.pass == finding.pass) return true;
  }
  return false;
}

void write_stats_json(const std::string& path, const alvc::analyze::Stats& stats,
                      std::size_t baselined_count, long long wall_ms) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "alvc_analyze: cannot write stats file " << path << "\n";
    return;
  }
  out << "{\n"
      << "  \"schema\": \"alvc-analyze-stats-v1\",\n"
      << "  \"tus\": " << stats.tus << ",\n"
      << "  \"lines\": " << stats.lines << ",\n"
      << "  \"functions\": " << stats.functions << ",\n"
      << "  \"call_sites\": " << stats.call_sites << ",\n"
      << "  \"findings\": " << stats.findings << ",\n"
      << "  \"suppressed\": " << stats.suppressed << ",\n"
      << "  \"baselined\": " << baselined_count << ",\n"
      << "  \"wall_ms\": " << wall_ms << "\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::vector<std::string> excludes;
  std::vector<BaselineEntry> baseline;
  std::string stats_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--exclude") {
      if (i + 1 >= argc) {
        std::cerr << "alvc_analyze: --exclude needs an argument\n";
        return 2;
      }
      excludes.push_back(argv[++i]);
    } else if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::cerr << "alvc_analyze: --baseline needs an argument\n";
        return 2;
      }
      if (!parse_baseline(argv[++i], baseline)) return 2;
    } else if (arg == "--stats-json") {
      if (i + 1 >= argc) {
        std::cerr << "alvc_analyze: --stats-json needs an argument\n";
        return 2;
      }
      stats_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: alvc_analyze [--exclude SUBSTR]... [--baseline FILE] "
                   "[--stats-json FILE] <file-or-dir>...\n"
                   "passes: unordered-escape, layering-call\n";
      return 0;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "alvc_analyze: no inputs (try --help)\n";
    return 2;
  }

  // Wall time is diagnostic output of the tool itself, not simulated time.
  const auto started = std::chrono::steady_clock::now();  // alvc-lint: allow(raw-chrono-clock)

  std::vector<std::string> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && analyzable(entry.path())) {
          files.push_back(entry.path().generic_string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::cerr << "alvc_analyze: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  alvc::analyze::Analyzer analyzer;
  for (const auto& file : files) {
    if (excluded(file, excludes)) continue;
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "alvc_analyze: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    analyzer.add_source(file, buffer.str());
  }

  const auto result = analyzer.run();
  std::size_t finding_count = 0;
  std::size_t baselined_count = 0;
  for (const auto& finding : result.findings) {
    if (baselined(finding, baseline)) {
      std::cout << alvc::analyze::to_string(finding) << " (baselined)\n";
      ++baselined_count;
      continue;
    }
    std::cout << alvc::analyze::to_string(finding) << "\n";
    ++finding_count;
  }
  for (const auto& finding : result.suppressed) {
    std::cout << alvc::analyze::to_string(finding) << " (suppressed)\n";
  }

  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - started)  // alvc-lint: allow(raw-chrono-clock)
                           .count();
  if (!stats_path.empty()) {
    write_stats_json(stats_path, result.stats, baselined_count, wall_ms);
  }
  std::cout << "alvc_analyze: " << result.stats.tus << " TUs, "
            << result.stats.functions << " functions, " << result.stats.call_sites
            << " call sites, " << finding_count << " finding"
            << (finding_count == 1 ? "" : "s");
  if (result.stats.suppressed > 0) {
    std::cout << " (" << result.stats.suppressed << " suppressed)";
  }
  if (baselined_count > 0) std::cout << " (" << baselined_count << " baselined)";
  std::cout << " in " << wall_ms << "ms\n";
  return finding_count == 0 ? 0 : 1;
}
