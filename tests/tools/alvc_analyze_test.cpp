// Drives the alvc_analyze passes over the seeded fixtures: each pass must
// flag its true positives at the expected lines, honor allow() waivers, and
// stay silent on the clean fixture. Fixtures are fed under synthetic src/
// paths because the layering pass keys off the directory layout.
#include <cstddef>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze.h"
#include "gtest/gtest.h"

namespace {

using alvc::analyze::Analyzer;
using alvc::analyze::Finding;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ALVC_ANALYZE_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::multiset<std::pair<std::string, std::size_t>> passes_and_lines(
    const std::vector<Finding>& findings) {
  std::multiset<std::pair<std::string, std::size_t>> out;
  for (const auto& f : findings) out.insert({f.pass, f.line});
  return out;
}

TEST(AlvcAnalyzeTest, FlagsUnorderedIterationEscapes) {
  Analyzer analyzer;
  analyzer.add_source("src/util/exporter.cc", read_fixture("unordered_escape.cc"));
  const auto result = analyzer.run();
  // Line 15: member map escapes in hash order. Line 47: local map ditto.
  // dump_sorted (sort after the loop) and total (commutative sink) are
  // legal; line 36 is waived by its allow() comment.
  EXPECT_EQ(passes_and_lines(result.findings),
            (std::multiset<std::pair<std::string, std::size_t>>{
                {"unordered-escape", 15}, {"unordered-escape", 47}}));
  EXPECT_EQ(passes_and_lines(result.suppressed),
            (std::multiset<std::pair<std::string, std::size_t>>{
                {"unordered-escape", 36}}));
}

TEST(AlvcAnalyzeTest, FlagsUpwardLayerCalls) {
  Analyzer analyzer;
  analyzer.add_source("src/cluster/layering_call.cc", read_fixture("layering_call.cc"));
  analyzer.add_source("src/orchestrator/layering_callee.cc",
                      read_fixture("layering_callee.cc"));
  const auto result = analyzer.run();
  // Line 18: qualified upward call. Line 26: unqualified call resolving
  // uniquely into the orchestrator layer. The downward call (line 22) is
  // legal; line 30 is waived.
  EXPECT_EQ(passes_and_lines(result.findings),
            (std::multiset<std::pair<std::string, std::size_t>>{
                {"layering-call", 18}, {"layering-call", 26}}));
  EXPECT_EQ(passes_and_lines(result.suppressed),
            (std::multiset<std::pair<std::string, std::size_t>>{
                {"layering-call", 30}}));
}

TEST(AlvcAnalyzeTest, CleanFixtureHasNoFindings) {
  Analyzer analyzer;
  analyzer.add_source("src/cluster/ledger.cc", read_fixture("clean.cc"));
  const auto result = analyzer.run();
  EXPECT_TRUE(result.findings.empty())
      << alvc::analyze::to_string(result.findings.front());
  EXPECT_TRUE(result.suppressed.empty());
}

TEST(AlvcAnalyzeTest, StatsCountTheModel) {
  Analyzer analyzer;
  analyzer.add_source("src/util/exporter.cc", read_fixture("unordered_escape.cc"));
  analyzer.add_source("src/cluster/ledger.cc", read_fixture("clean.cc"));
  const auto result = analyzer.run();
  EXPECT_EQ(result.stats.tus, 2u);
  EXPECT_GE(result.stats.functions, 7u);
  EXPECT_GE(result.stats.call_sites, 10u);
  EXPECT_GT(result.stats.lines, 0u);
  EXPECT_EQ(result.stats.findings, result.findings.size());
  EXPECT_EQ(result.stats.suppressed, result.suppressed.size());
}

TEST(AlvcAnalyzeTest, FindingFormatIsPathLinePass) {
  Finding finding;
  finding.file = "src/util/exporter.cc";
  finding.line = 15;
  finding.pass = "unordered-escape";
  finding.message = "escapes in hash order";
  EXPECT_EQ(alvc::analyze::to_string(finding),
            "src/util/exporter.cc:15: [unordered-escape] escapes in hash order");
}

}  // namespace
