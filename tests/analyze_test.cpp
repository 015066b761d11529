// The static checker is itself under test: every must-fail fixture tree
// trips exactly its rule (and no other), the must-pass tree (seams,
// allow-edges, rationale'd suppressions, checked_* arithmetic, blessed
// line-rule idioms) stays clean, bare and retired-grammar allows are
// inert, bench/ and examples/ are line-checked, the layer-cycle report
// names the cycle's edges, the JSON report parses with util/json and is
// byte-identical across runs, and the real tree is clean under the
// checked-in layers.txt.
//
// Paths come in as compile definitions from CMake:
//   BILATNET_ANALYZE_BIN       the bilatnet_analyze executable
//   BILATNET_ANALYZE_FIXTURES  tools/analyze/fixtures
//   BILATNET_REPO_ROOT         the repository checkout
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

struct analyze_result {
  int exit_code{-1};
  std::string output;
};

analyze_result run_analyze(const std::string& args) {
  const std::string command =
      std::string(BILATNET_ANALYZE_BIN) + " " + args + " 2>&1";
  analyze_result result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), got);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// Run over the given top-level directories of one fixture tree, which
// carries its own layers.txt.
analyze_result run_fixture(const std::string& fixture,
                           const std::string& extra = "",
                           const std::vector<std::string>& dirs = {"src"}) {
  const std::string root =
      std::string(BILATNET_ANALYZE_FIXTURES) + "/" + fixture;
  std::string args =
      "--root " + root + " --layers " + root + "/layers.txt " + extra;
  for (const std::string& dir : dirs) args += " " + root + "/" + dir;
  return run_analyze(args);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

constexpr std::array<const char*, 13> all_rules = {
    // whole-program passes
    "layer-cycle", "layer-up", "det-taint", "exact-arith", "header-hygiene",
    // line rules
    "epsilon-literal", "float-alpha-compare", "unordered-iteration",
    "raw-random", "raw-thread", "metric-name-literal", "raw-exit",
    "counter-bypass"};

class AnalyzeFailFixture : public ::testing::TestWithParam<const char*> {};

TEST_P(AnalyzeFailFixture, TripsExactlyItsRule) {
  const std::string rule = GetParam();
  const analyze_result result = run_fixture("fail/" + rule);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("[" + rule + "]"), std::string::npos)
      << "expected a [" << rule << "] violation, got:\n"
      << result.output;
  for (const char* other : all_rules) {
    if (rule == other) continue;
    EXPECT_EQ(result.output.find(std::string("[") + other + "]"),
              std::string::npos)
        << "fixture for " << rule << " also tripped " << other << ":\n"
        << result.output;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, AnalyzeFailFixture, ::testing::ValuesIn(all_rules),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The cycle report must name the offending edges, not just a file.
TEST(AnalyzeLayerCycle, ReportsTheCycleEdge) {
  const analyze_result result = run_fixture("fail/layer-cycle");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(
      result.output.find("src/util/a.hpp -> src/util/b.hpp -> src/util/a.hpp"),
      std::string::npos)
      << result.output;
}

// The det-taint fixture carries a bare `analyze:allow(det-taint)` (no
// rationale) directly above the source line; tripping anyway proves bare
// allows are inert. The report must also show the full call chain.
TEST(AnalyzeDetTaint, BareAllowIsInertAndChainIsReported) {
  const analyze_result result = run_fixture("fail/det-taint");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("write_row <- mid_ticks <- ticks"),
            std::string::npos)
      << result.output;
}

// The line rules honor the same grammar: the raw-thread fixture carries a
// bare `analyze:allow(raw-thread)` and a leftover comment in the retired
// lint grammar, each above a std::thread line. Both lines must trip.
TEST(AnalyzeSuppression, BareAndRetiredAllowsAreInert) {
  const analyze_result result = run_fixture("fail/raw-thread");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  for (const char* line : {"bad_thread.cpp:10: [raw-thread]",
                           "bad_thread.cpp:16: [raw-thread]"}) {
    EXPECT_NE(result.output.find(line), std::string::npos)
        << line << " missing:\n"
        << result.output;
  }
}

// bench/ and examples/ are line-checked, not just src/: drivers with
// ad-hoc entropy or literal metric names drift exactly like library code
// would.
TEST(AnalyzeBenchScope, BenchAndExamplesAreScanned) {
  const analyze_result result =
      run_fixture("fail/bench-scope", "", {"bench", "examples"});
  EXPECT_EQ(result.exit_code, 1) << result.output;
  for (const char* hit :
       {"bench/bad_bench_entropy.cpp:9: [raw-random]",
        "examples/bad_example_metric.cpp:8: [metric-name-literal]"}) {
    EXPECT_NE(result.output.find(hit), std::string::npos)
        << hit << " missing:\n"
        << result.output;
  }
}

// The pass tree exercises seams, the allow-edge, a rationale'd det-taint
// suppression, checked_* arithmetic and every blessed line-rule idiom; all
// of it must stay silent.
TEST(AnalyzePassFixture, StaysClean) {
  const analyze_result result = run_fixture("pass");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("bilatnet_analyze: clean"), std::string::npos)
      << result.output;
}

TEST(AnalyzeJsonReport, ParsesAndIsByteIdenticalAcrossRuns) {
  const std::string json_a = ::testing::TempDir() + "analyze_a.json";
  const std::string json_b = ::testing::TempDir() + "analyze_b.json";
  const analyze_result first = run_fixture("fail/layer-up", "--json " + json_a);
  const analyze_result second =
      run_fixture("fail/layer-up", "--json " + json_b);
  EXPECT_EQ(first.exit_code, 1);
  EXPECT_EQ(first.output, second.output);
  const std::string text_a = slurp(json_a);
  EXPECT_FALSE(text_a.empty());
  EXPECT_EQ(text_a, slurp(json_b)) << "JSON report is not deterministic";

  const bnf::json_value doc = bnf::json_value::parse(text_a);
  EXPECT_EQ(doc.at("tool").as_string(), "bilatnet_analyze");
  EXPECT_FALSE(doc.at("summary").at("clean").as_bool());
  EXPECT_EQ(doc.at("summary").at("violations").as_int(),
            static_cast<std::int64_t>(doc.at("violations").items().size()));
  ASSERT_FALSE(doc.at("violations").items().empty());
  const bnf::json_value& v = doc.at("violations").items().front();
  EXPECT_EQ(v.at("rule").as_string(), "layer-up");
  EXPECT_EQ(v.at("file").as_string(), "src/util/low.cpp");
  EXPECT_GT(v.at("line").as_int(), 0);
}

// The real tree (the default inputs src/, tools/, bench/, examples/) is
// clean under the checked-in layers.txt — and deterministically so.
TEST(AnalyzeRealTree, DefaultInputsAreClean) {
  const std::string root = BILATNET_REPO_ROOT;
  const std::string json_a = ::testing::TempDir() + "analyze_real_a.json";
  const std::string json_b = ::testing::TempDir() + "analyze_real_b.json";
  const std::string args = "--root " + root + " --layers " + root +
                           "/tools/analyze/layers.txt";
  const analyze_result first = run_analyze(args + " --json " + json_a);
  EXPECT_EQ(first.exit_code, 0)
      << "the real tree violates a checked invariant:\n"
      << first.output;
  const analyze_result second = run_analyze(args + " --json " + json_b);
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(slurp(json_a), slurp(json_b));
  const bnf::json_value doc = bnf::json_value::parse(slurp(json_a));
  EXPECT_TRUE(doc.at("summary").at("clean").as_bool());
  EXPECT_GT(doc.at("summary").at("functions").as_int(), 100);
  EXPECT_GT(doc.at("summary").at("call_edges").as_int(), 100);
}

TEST(AnalyzeCli, ListRulesNamesEveryRule) {
  const analyze_result result = run_analyze("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  std::istringstream lines(result.output);
  std::vector<std::string> ids;
  for (std::string line; std::getline(lines, line);) {
    ids.push_back(line.substr(0, line.find('\t')));
  }
  EXPECT_EQ(ids, std::vector<std::string>(all_rules.begin(), all_rules.end()))
      << result.output;
}

}  // namespace
