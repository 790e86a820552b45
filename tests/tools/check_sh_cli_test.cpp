// CLI coverage for the check.sh driver and the bench regression gate:
// argument handling that must fail fast (an empty --ci leg once silently
// ran the FULL local gate on CI) and the gate's slowdown/tolerance
// behavior on synthetic trajectories, plus scans of check.sh itself for
// filtered ctest calls that would pass with zero tests and for an ASan leg
// that does not build every `failures` suite. Paths are injected by CMake
// as ALVC_CHECK_SH, ALVC_BENCH_GATE_PY and ALVC_TESTS_CMAKELISTS; every
// covered branch exits before any build work, so the tests stay fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

RunResult run_command(const std::string& cmd, const fs::path& capture) {
  const int raw = std::system((cmd + " > " + capture.string() + " 2>&1").c_str());
  RunResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(capture);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  result.output = buffer.str();
  return result;
}

struct CliFixture : ::testing::Test {
  fs::path dir;

  void SetUp() override {
    dir = fs::temp_directory_path() /
          ("check_sh_cli_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  RunResult run_check(const std::string& args) {
    return run_command(std::string("bash ") + ALVC_CHECK_SH + " " + args, dir / "out.txt");
  }

  RunResult run_gate(const std::string& args, const std::string& env = "") {
    return run_command(env + " python3 " + ALVC_BENCH_GATE_PY + " " + args, dir / "out.txt");
  }

  /// Writes a minimal alvc-bench-trajectory-v1 file with one tracked row.
  fs::path write_trajectory(const std::string& name, double after_us) const {
    const fs::path path = dir / name;
    std::ofstream out(path);
    out << "{\n  \"schema\": \"alvc-bench-trajectory-v1\",\n  \"benchmarks\": [\n"
        << "    {\"bench\": \"bench_control_plane\", \"name\": \"BM_MidScaleOpsCycle\",\n"
        << "     \"before_cpu_time_us\": null, \"after_cpu_time_us\": " << after_us
        << ", \"speedup\": null}\n  ]\n}\n";
    return path;
  }
};

TEST_F(CliFixture, EmptyCiLegFailsFastInsteadOfRunningTheFullGate) {
  const auto result = run_check("--ci \"\"");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("non-empty leg name"), std::string::npos);
  EXPECT_EQ(result.output.find("configure"), std::string::npos)
      << "an empty leg must not fall through to the full local gate";
}

TEST_F(CliFixture, MissingCiLegIsAUsageError) {
  const auto result = run_check("--ci");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("non-empty leg name"), std::string::npos);
}

TEST_F(CliFixture, UnknownCiLegIsAUsageErrorListingTheLegs) {
  const auto result = run_check("--ci no-such-leg");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown CI leg"), std::string::npos);
  EXPECT_NE(result.output.find("scale-soak"), std::string::npos);
}

TEST_F(CliFixture, UnknownArgumentIsAUsageError) {
  EXPECT_EQ(run_check("--no-such-flag").exit_code, 2);
}

/// check.sh's shell commands, one per entry, with backslash-continued lines
/// joined and comment lines dropped. A non-empty `function` keeps only the
/// commands inside that shell function's body.
std::vector<std::string> check_sh_commands(const std::string& function = "") {
  std::ifstream in(ALVC_CHECK_SH);
  std::vector<std::string> commands;
  std::string line;
  std::string pending;
  bool inside = function.empty();
  while (std::getline(in, line)) {
    if (!function.empty()) {
      if (line.rfind(function + "() {", 0) == 0) {
        inside = true;
        continue;
      }
      if (inside && line == "}") break;
      if (!inside) continue;
    }
    if (!line.empty() && line.back() == '\\') {
      pending += line.substr(0, line.size() - 1);
      continue;
    }
    pending += line;
    const auto first = pending.find_first_not_of(" \t");
    if (first != std::string::npos && pending[first] != '#') commands.push_back(pending);
    pending.clear();
  }
  return commands;
}

TEST_F(CliFixture, FilteredCtestCallsFailWhenNoTestMatches) {
  // A ctest filter that matches nothing prints "No tests were found!!!" and
  // exits 0, so a leg whose filter went stale would pass having run nothing.
  const std::regex ctest_call(R"((^|\s)ctest\s)");
  const std::regex filter(R"(\s-(L|R)\s)");
  std::size_t filtered = 0;
  for (const std::string& command : check_sh_commands()) {
    if (command.find("echo ") != std::string::npos) continue;
    if (!std::regex_search(command, ctest_call) || !std::regex_search(command, filter)) continue;
    ++filtered;
    EXPECT_NE(command.find("--no-tests=error"), std::string::npos)
        << "filtered ctest call without --no-tests=error:\n" << command;
  }
  // asan, telemetry, overload-soak, elastic-soak and two scale-soak calls.
  EXPECT_EQ(filtered, 6u) << "check.sh's filtered ctest calls changed; update this count";
}

TEST_F(CliFixture, AsanLegBuildsEveryFailuresSuite) {
  // leg_asan runs `ctest -L failures` over the targets it builds. A labelled
  // target missing from its --target list registers an unlabelled
  // <target>_NOT_BUILT test instead, so -L failures would silently skip it.
  std::ifstream in(ALVC_TESTS_CMAKELISTS);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string cmake = buffer.str();
  const std::regex add_test(R"(alvc_add_test\(\s*(\w+)([^)]*)\))");
  const std::regex failures_label(R"(\sLABELS\s[^)]*\bfailures\b)");
  std::set<std::string> labelled;
  for (auto it = std::sregex_iterator(cmake.begin(), cmake.end(), add_test);
       it != std::sregex_iterator(); ++it) {
    const std::string args = (*it)[2].str();
    if (std::regex_search(args, failures_label)) labelled.insert((*it)[1].str());
  }
  ASSERT_GE(labelled.size(), 10u) << "the scan no longer finds the `failures` suites";

  std::set<std::string> built;
  for (const std::string& command : check_sh_commands("leg_asan")) {
    const auto at = command.find("--target");
    if (command.find("cmake --build") == std::string::npos || at == std::string::npos) continue;
    std::istringstream targets(command.substr(at + std::string("--target").size()));
    for (std::string target; targets >> target;) built.insert(target);
  }
  for (const std::string& target : labelled) {
    EXPECT_EQ(built.count(target), 1u)
        << target << " is labelled `failures` but leg_asan does not build it";
  }
}

TEST_F(CliFixture, BenchGateFailsOnInjectedSlowdown) {
  const auto baseline = write_trajectory("baseline.json", 100.0);
  const auto fresh = write_trajectory("fresh.json", 140.0);  // 1.40x > 1.25x
  const auto result = run_gate(fresh.string() + " " + baseline.string());
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("REGRESSED"), std::string::npos);
}

TEST_F(CliFixture, BenchGateToleranceEnvWidensTheBand) {
  const auto baseline = write_trajectory("baseline.json", 100.0);
  const auto fresh = write_trajectory("fresh.json", 140.0);
  const auto result =
      run_gate(fresh.string() + " " + baseline.string(), "ALVC_BENCH_TOLERANCE=0.60");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("no regressions"), std::string::npos);
}

TEST_F(CliFixture, BenchGatePassesWithinTolerance) {
  const auto baseline = write_trajectory("baseline.json", 100.0);
  const auto fresh = write_trajectory("fresh.json", 110.0);  // 1.10x <= 1.25x
  EXPECT_EQ(run_gate(fresh.string() + " " + baseline.string()).exit_code, 0);
}

TEST_F(CliFixture, BenchGatePassesVacuouslyWithoutACommittedBaseline) {
  const auto fresh = write_trajectory("fresh.json", 100.0);
  // cwd has no BENCH_PR*.json, so implicit baseline resolution finds none.
  const auto result = run_command("cd " + dir.string() + " && python3 " + ALVC_BENCH_GATE_PY +
                                      " " + fresh.string(),
                                  dir / "out.txt");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("vacuously"), std::string::npos);
}

TEST_F(CliFixture, BenchGatePicksTheHighestNumberedBaseline) {
  // BENCH_PR10.json is the newer baseline, though "BENCH_PR9" sorts after
  // it lexically. Against it (10us) a 20us run is a 2x regression; against
  // BENCH_PR9.json (100us) it would pass.
  write_trajectory("BENCH_PR9.json", 100.0);
  write_trajectory("BENCH_PR10.json", 10.0);
  const auto fresh = write_trajectory("fresh.json", 20.0);
  const auto result = run_command("cd " + dir.string() + " && python3 " + ALVC_BENCH_GATE_PY +
                                      " " + fresh.string(),
                                  dir / "out.txt");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("BENCH_PR10.json"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("BENCH_PR9.json"), std::string::npos) << result.output;
}

TEST_F(CliFixture, BenchGateRejectsMalformedInput) {
  const fs::path bad = dir / "bad.json";
  std::ofstream(bad) << "{\"schema\": \"wrong\"}\n";
  const auto baseline = write_trajectory("baseline.json", 100.0);
  EXPECT_EQ(run_gate(bad.string() + " " + baseline.string()).exit_code, 2);
  EXPECT_EQ(run_gate("").exit_code, 2);
}

}  // namespace
