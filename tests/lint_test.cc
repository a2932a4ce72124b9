// Pins the udao_lint rule set against known-good and known-bad fixtures
// (tests/lint_fixtures/): the good tree must come back clean, and each bad
// file -- one per rule -- must be reported at its exact file:line with its
// exact rule tag, nothing more. This is what keeps a regex tweak from
// silently widening (false findings on clean code) or narrowing (seeded
// violations slipping through) a rule.
//
// UDAO_LINT_BIN / UDAO_LINT_FIXTURES are injected by tests/CMakeLists.txt.

#include <cstdio>
#include <regex>
#include <set>
#include <string>

#include <gtest/gtest.h>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved.
};

LintRun RunLint(const std::string& dir) {
  LintRun run;
  const std::string cmd = std::string(UDAO_LINT_BIN) + " " + dir + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// Reduces each reported finding line ("file:line: [rule] detail") to the
// comparable "file:line:rule" triple; summary/clean lines do not match.
std::multiset<std::string> Findings(const std::string& output) {
  std::multiset<std::string> found;
  const std::regex finding_re(R"(([^\s:]+):(\d+): \[([\w-]+)\])");
  for (std::sregex_iterator it(output.begin(), output.end(), finding_re), end;
       it != end; ++it) {
    found.insert((*it)[1].str() + ":" + (*it)[2].str() + ":" + (*it)[3].str());
  }
  return found;
}

TEST(UdaoLintTest, GoodFixturesAreClean) {
  const LintRun run = RunLint(std::string(UDAO_LINT_FIXTURES) + "/good");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(Findings(run.output).empty()) << run.output;
}

TEST(UdaoLintTest, BadFixturesReportExactFindings) {
  const LintRun run = RunLint(std::string(UDAO_LINT_FIXTURES) + "/bad");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::multiset<std::string> want = {
      "assert_use.cc:6:assert",
      "direct_print.cc:6:direct-print",
      "include_guard.h:3:include-guard",
      "raw_intrinsic.cc:6:raw-intrinsic",
      "raw_random.cc:6:raw-random",
      "raw_sync.cc:6:raw-sync",
      "raw_thread.cc:6:raw-thread",
      "scalar_model_override.cc:9:scalar-model-override",
      "scalar_model_override.cc:13:scalar-model-override",
      "serving/deprecated_optimize.cc:9:deprecated-optimize",
      "serving/deprecated_optimize.cc:10:deprecated-optimize",
      "serving/unbounded_wait.cc:8:unbounded-wait",
      "standalone_mutex.h:12:standalone-mutex",
  };
  EXPECT_EQ(Findings(run.output), want) << run.output;
}

}  // namespace
