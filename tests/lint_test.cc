/// Tests for tools/lint/kgeval_lint: every negative fixture in
/// tests/lint_fixtures/ trips exactly its one rule, the clean fixtures trip
/// nothing, suppressions behave, and the real source tree is finding-free
/// (the same check `ctest -R repo_lint` runs through the CLI).

#include "tools/lint/lint.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace kgeval {
namespace lint {
namespace {

std::string RepoRoot() { return KGEVAL_SOURCE_DIR; }

std::string ReadFixture(const std::string& name) {
  const std::string path = RepoRoot() + "/tests/lint_fixtures/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string Describe(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

/// The fixture contract: exactly one finding, of exactly this rule.
void ExpectSingleFinding(const std::vector<Finding>& findings,
                         const std::string& rule) {
  ASSERT_EQ(findings.size(), 1u) << Describe(findings);
  EXPECT_EQ(findings[0].rule, rule) << Describe(findings);
  EXPECT_GT(findings[0].line, 0);
  EXPECT_FALSE(findings[0].message.empty());
}

TEST(LintRulesTest, RuleTableHasUniqueNonEmptyIds) {
  std::set<std::string> ids;
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(rule.id[0], '\0');
    EXPECT_NE(rule.summary[0], '\0');
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate id " << rule.id;
  }
  EXPECT_GE(ids.size(), 10u);
}

// ---------------------------------------------------------------------------
// Negative fixtures: each trips exactly its rule
// ---------------------------------------------------------------------------

TEST(LintFixtureTest, SimdContainment) {
  ExpectSingleFinding(
      LintSourceFile("src/eval/bad.cc", ReadFixture("simd_containment.cc")),
      "simd-containment");
}

TEST(LintFixtureTest, ThreadContainment) {
  ExpectSingleFinding(
      LintSourceFile("src/eval/bad.cc", ReadFixture("thread_containment.cc")),
      "thread-containment");
}

TEST(LintFixtureTest, ThreadDetachFlaggedEvenInAllowedDirs) {
  ExpectSingleFinding(
      LintSourceFile("src/sched/bad.cc", ReadFixture("thread_detach.cc")),
      "thread-containment");
}

TEST(LintFixtureTest, Determinism) {
  ExpectSingleFinding(
      LintSourceFile("src/eval/bad.cc", ReadFixture("determinism.cc")),
      "determinism");
}

TEST(LintFixtureTest, FpDrift) {
  ExpectSingleFinding(
      LintSourceFile("src/la/bad.cc", ReadFixture("fp_drift.cc")),
      "fp-drift");
}

TEST(LintFixtureTest, NolintReason) {
  ExpectSingleFinding(
      LintSourceFile("src/eval/bad.cc", ReadFixture("nolint_reason.cc")),
      "nolint-reason");
}

TEST(LintFixtureTest, SuppressionWithoutReason) {
  ExpectSingleFinding(
      LintSourceFile("src/eval/bad.cc", ReadFixture("suppression_reason.cc")),
      "suppression-reason");
}

TEST(LintFixtureTest, SuppressionOfUnknownRule) {
  ExpectSingleFinding(
      LintSourceFile("src/eval/bad.cc",
                     ReadFixture("suppression_unknown_rule.cc")),
      "suppression-reason");
}

// ---------------------------------------------------------------------------
// Clean fixtures and suppression semantics
// ---------------------------------------------------------------------------

TEST(LintFixtureTest, CleanFileHasNoFindings) {
  const std::vector<Finding> findings =
      LintSourceFile("src/eval/good.cc", ReadFixture("clean.cc"));
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(LintFixtureTest, SameContentOutsideSrcIsNotLinted) {
  // Containment rules key off the repo-relative path: the same SIMD include
  // is fine under src/la/kernels/ (and in non-src trees entirely).
  EXPECT_TRUE(LintSourceFile("src/la/kernels/bad.cc",
                             ReadFixture("simd_containment.cc"))
                  .empty());
  EXPECT_TRUE(LintSourceFile("src/net/bad.cc",
                             ReadFixture("thread_containment.cc"))
                  .empty());
}

TEST(LintSuppressionTest, AllowFileCoversTheWholeFile) {
  const std::string content =
      "// kgeval-lint: allow-file(determinism): fixture for file scope.\n"
      "#include <cstdlib>\n"
      "int A() { return rand(); }\n"
      "int B() { return rand(); }\n";
  const std::vector<Finding> findings =
      LintSourceFile("src/eval/bad.cc", content);
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(LintSuppressionTest, LineSuppressionDoesNotLeakPastNextLine) {
  const std::string content =
      "#include <cstdlib>\n"
      "// kgeval-lint: allow(determinism): covers only the next line.\n"
      "int A() { return rand(); }\n"
      "int B() { return rand(); }\n";
  ExpectSingleFinding(LintSourceFile("src/eval/bad.cc", content),
                      "determinism");
}

TEST(LintSuppressionTest, SuppressionForADifferentRuleDoesNotApply) {
  const std::string content =
      "#include <cstdlib>\n"
      "// kgeval-lint: allow(fp-drift): names the wrong rule.\n"
      "int A() { return rand(); }\n";
  ExpectSingleFinding(LintSourceFile("src/eval/bad.cc", content),
                      "determinism");
}

// ---------------------------------------------------------------------------
// CMake handling
// ---------------------------------------------------------------------------

TEST(LintCMakeTest, FastMathInCMakeIsFlagged) {
  ExpectSingleFinding(
      LintSourceFile("CMakeLists.txt", "add_compile_options(-ffast-math)\n"),
      "fp-drift");
}

TEST(LintCMakeTest, ContractOffAndCommentsAreFine) {
  const std::string content =
      "# NOT -ffast-math: parity depends on strict FP.\n"
      "add_compile_options(-ffp-contract=off)\n";
  const std::vector<Finding> findings =
      LintSourceFile("CMakeLists.txt", content);
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(LintCMakeTest, ContractFastIsFlagged) {
  ExpectSingleFinding(LintSourceFile("CMakeLists.txt",
                                     "add_compile_options(-ffp-contract=fast)\n"),
                      "fp-drift");
}

// ---------------------------------------------------------------------------
// Doc-consistency fixture trees
// ---------------------------------------------------------------------------

std::string FixtureTree(const std::string& name) {
  return RepoRoot() + "/tests/lint_fixtures/" + name;
}

TEST(LintDocTest, UndocumentedStatsFieldIsFlagged) {
  ExpectSingleFinding(LintDocConsistency(FixtureTree("stats_doc")),
                      "stats-doc");
}

TEST(LintDocTest, UndocumentedErrCodeIsFlagged) {
  ExpectSingleFinding(LintDocConsistency(FixtureTree("err_doc")), "err-doc");
}

TEST(LintDocTest, UndocumentedFaultPointIsFlagged) {
  ExpectSingleFinding(LintDocConsistency(FixtureTree("fault_doc")),
                      "fault-doc");
}

TEST(LintDocTest, UnreachedHeaderIsFlagged) {
  const std::vector<Finding> findings =
      LintDocConsistency(FixtureTree("module_reach"));
  ExpectSingleFinding(findings, "module-reach");
  EXPECT_EQ(findings[0].file, "src/lib/orphan.h") << Describe(findings);
}

TEST(LintDocTest, ConsistentTreeIsClean) {
  const std::vector<Finding> findings =
      LintDocConsistency(FixtureTree("clean_tree"));
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

TEST(LintRepoTest, SourceTreeIsFindingFree) {
  const std::vector<Finding> findings = LintRepo(RepoRoot());
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

}  // namespace
}  // namespace lint
}  // namespace kgeval
