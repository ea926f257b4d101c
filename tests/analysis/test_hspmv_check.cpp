// Negative-fixture suite for hspmv-check (src/analysis/).
//
// Each fixture under tests/analysis/fixtures/ is a deliberately broken
// translation unit for exactly one check; this driver asserts the
// expected check ids fire on it (and nothing on the clean fixture), that
// suppression and baseline mechanics behave, and — the keystone — that
// the real tree analyzed with the committed baseline reports zero
// unsuppressed findings, so any regression that introduces a flagged
// pattern fails ctest even where the lint lane is unavailable.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "analysis/driver.hpp"
#include "analysis/registry.hpp"

namespace {

using hspmv::analysis::AnalysisOptions;
using hspmv::analysis::AnalysisResult;
using hspmv::analysis::Finding;
using hspmv::analysis::run_analysis;

std::string fixture(const std::string& name) {
  return std::string(HSPMV_FIXTURE_DIR) + "/" + name;
}

AnalysisResult analyze_fixture(const std::string& name) {
  AnalysisOptions options;
  options.roots = {fixture(name)};
  options.repo_root = HSPMV_REPO_ROOT;
  return run_analysis(options);
}

std::set<std::string> unsuppressed_checks(const AnalysisResult& result) {
  std::set<std::string> checks;
  for (const Finding& f : result.report.findings) {
    if (!f.suppressed && !f.baselined) checks.insert(f.check);
  }
  return checks;
}

int count_of(const AnalysisResult& result, const std::string& check) {
  int n = 0;
  for (const Finding& f : result.report.findings) {
    if (f.check == check && !f.suppressed && !f.baselined) ++n;
  }
  return n;
}

TEST(HspmvCheck, RegistersTheFiveDomainChecks) {
  std::set<std::string> ids;
  for (const auto& check : hspmv::analysis::all_checks()) {
    EXPECT_FALSE(check->description().empty()) << check->id();
    EXPECT_FALSE(check->mirrors().empty()) << check->id();
    ids.insert(check->id());
  }
  const std::set<std::string> expected = {
      "divergent-collective", "nonblocking-lifetime", "first-touch",
      "write-range-claim", "determinism-policy"};
  EXPECT_EQ(ids, expected);
}

TEST(HspmvCheck, DivergentCollectiveFixtureFires) {
  const auto result = analyze_fixture("divergent_collective.cpp");
  EXPECT_EQ(unsuppressed_checks(result),
            std::set<std::string>{"divergent-collective"});
  // Lopsided sibling branch, early exit, the lopsided spawn (the
  // elastic rendezvous is a collective too) and the root-only in-place
  // gatherv.
  EXPECT_EQ(count_of(result, "divergent-collective"), 4);
}

TEST(HspmvCheck, NonblockingLifetimeFixtureFires) {
  const auto result = analyze_fixture("nonblocking_lifetime.cpp");
  EXPECT_EQ(unsuppressed_checks(result),
            std::set<std::string>{"nonblocking-lifetime"});
  // Discarded request, mutated buffer, scope-out without wait, and a
  // spawn with the request still in flight.
  EXPECT_EQ(count_of(result, "nonblocking-lifetime"), 4);
}

TEST(HspmvCheck, FirstTouchFixtureFires) {
  const auto result = analyze_fixture("first_touch.cpp");
  EXPECT_EQ(unsuppressed_checks(result),
            std::set<std::string>{"first-touch"});
  EXPECT_EQ(count_of(result, "first-touch"), 2);
}

TEST(HspmvCheck, WriteRangeClaimFixtureFires) {
  const auto result = analyze_fixture("write_range.cpp");
  EXPECT_EQ(unsuppressed_checks(result),
            std::set<std::string>{"write-range-claim"});
  // Shape (A) unclaimed kernel override + shape (B) racy capture write.
  EXPECT_EQ(count_of(result, "write-range-claim"), 2);
}

TEST(HspmvCheck, DeterminismPolicyFixtureFires) {
  const auto result = analyze_fixture("determinism_policy.cpp");
  EXPECT_EQ(unsuppressed_checks(result),
            std::set<std::string>{"determinism-policy"});
  // Ad-hoc += loop, std::accumulate, and intrinsic lines.
  EXPECT_GE(count_of(result, "determinism-policy"), 3);
}

TEST(HspmvCheck, UnregisteredBlockSumStillFires) {
  // Only the registered team reducer may sum block partials in a loop.
  const auto result = analyze_fixture("determinism_block_sum.cpp");
  EXPECT_EQ(unsuppressed_checks(result),
            std::set<std::string>{"determinism-policy"});
  ASSERT_EQ(count_of(result, "determinism-policy"), 1)
      << result.report.to_json();
  for (const Finding& f : result.report.findings) {
    EXPECT_NE(f.message.find("'team_block_sum'"), std::string::npos)
        << f.message;
  }
}

TEST(HspmvCheck, BadSuppressionShapesFire) {
  const auto result = analyze_fixture("bad_suppression.cpp");
  bool reasonless = false;
  bool unknown = false;
  bool stale = false;
  for (const Finding& f : result.report.findings) {
    if (f.check != "bad-suppression") continue;
    reasonless = reasonless ||
                 f.message.find("non-empty reason") != std::string::npos;
    unknown = unknown ||
              f.message.find("unknown check") != std::string::npos;
    stale = stale || f.message.find("stale") != std::string::npos;
  }
  EXPECT_TRUE(reasonless);
  EXPECT_TRUE(unknown);
  EXPECT_TRUE(stale);
}

TEST(HspmvCheck, CleanFixtureIsClean) {
  const auto result = analyze_fixture("clean.cpp");
  EXPECT_EQ(result.report.unsuppressed_count(), 0)
      << result.report.to_json();
}

TEST(HspmvCheck, JustifiedAllowSuppressesAndIsNotStale) {
  const auto result = analyze_fixture("suppressed.cpp");
  EXPECT_EQ(result.report.unsuppressed_count(), 0)
      << result.report.to_json();
  int suppressed = 0;
  for (const Finding& f : result.report.findings) {
    if (f.suppressed) {
      ++suppressed;
      EXPECT_EQ(f.check, "first-touch");
      EXPECT_FALSE(f.suppress_reason.empty());
    }
  }
  EXPECT_EQ(suppressed, 1);
}

TEST(HspmvCheck, BaselineRoundTripSilencesFindings) {
  const auto before = analyze_fixture("first_touch.cpp");
  ASSERT_GT(before.report.unsuppressed_count(), 0);
  const std::string path =
      testing::TempDir() + "/hspmv_check_baseline_roundtrip.txt";
  {
    std::ofstream out(path);
    out << hspmv::analysis::baseline_text(before.report,
                                          before.finding_lines);
  }
  AnalysisOptions options;
  options.roots = {fixture("first_touch.cpp")};
  options.repo_root = HSPMV_REPO_ROOT;
  options.baseline_path = path;
  const auto after = run_analysis(options);
  EXPECT_EQ(after.report.unsuppressed_count(), 0);
  int baselined = 0;
  for (const Finding& f : after.report.findings) {
    if (f.baselined) ++baselined;
  }
  EXPECT_EQ(baselined, before.report.unsuppressed_count());
  std::remove(path.c_str());
}

TEST(HspmvCheck, JsonReportCarriesTheSchema) {
  const auto result = analyze_fixture("first_touch.cpp");
  const std::string json = result.report.to_json();
  EXPECT_NE(json.find("\"tool\": \"hspmv-check\""), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\""), std::string::npos);
  EXPECT_NE(json.find("\"first-touch\""), std::string::npos);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
}

// The keystone: the real tree, analyzed against the committed baseline,
// has zero unsuppressed findings. Introducing a divergent collective, an
// unwaited request, a misplaced kernel vector, an unclaimed team write,
// or an ad-hoc FP reduction anywhere under src/, bench/, or examples/
// fails this test unless it carries a justified HSPMV-CHECK-ALLOW.
TEST(HspmvCheck, RealTreeIsCleanUnderTheCommittedBaseline) {
  AnalysisOptions options;
  const std::string root = HSPMV_REPO_ROOT;
  options.roots = {root + "/src", root + "/bench", root + "/examples"};
  options.repo_root = root;
  options.baseline_path = root + "/tools/hspmv-check-baseline.txt";
  const auto result = run_analysis(options);
  EXPECT_GT(result.report.files_analyzed, 100);
  std::string offending;
  for (const Finding& f : result.report.findings) {
    if (!f.suppressed && !f.baselined) {
      offending += f.file + ":" + std::to_string(f.line) + " [" + f.check +
                   "] " + f.message + "\n";
    }
  }
  EXPECT_EQ(result.report.unsuppressed_count(), 0) << offending;
}

}  // namespace
