// Fixture-pinned behavior of the determinism lint (tools/lint). The lint is
// a heuristic single-file analyzer, so these tests ARE its specification:
// each violation class has a fixture file whose expected findings are pinned
// line-by-line, the non-findings (member calls, foreign qualifiers, sorted
// containers, nested-in-vector unordered maps) are pinned as absent, and the
// suppression annotations are pinned as silencing exactly their rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint_core.hpp"

namespace {

using asyncmr::lint::LintFile;
using asyncmr::lint::LintSource;
using asyncmr::lint::Violation;

std::string Fixture(const std::string& name) {
  return std::string(AMR_LINT_FIXTURE_DIR) + "/" + name;
}

// (line, rule) pairs, sorted — the shape the fixture expectations pin.
std::vector<std::pair<int, std::string>> Shape(const std::vector<Violation>& vs) {
  std::vector<std::pair<int, std::string>> out;
  out.reserve(vs.size());
  for (const Violation& v : vs) out.emplace_back(v.line, v.rule);
  std::sort(out.begin(), out.end());
  return out;
}

std::string Dump(const std::vector<Violation>& vs) {
  std::string s;
  for (const Violation& v : vs) s += asyncmr::lint::FormatViolation(v) + "\n";
  return s;
}

TEST(LintFixtures, CleanFileHasNoFindings) {
  const auto vs = LintFile(Fixture("clean.cpp"));
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(LintFixtures, SuppressedFileHasNoFindings) {
  const auto vs = LintFile(Fixture("suppressed.cpp"));
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(LintFixtures, WallClock) {
  const auto vs = LintFile(Fixture("wall_clock.cpp"));
  const std::vector<std::pair<int, std::string>> expected{
      {3, "wall-clock"},   // #include <chrono>
      {10, "wall-clock"},  // std::chrono::steady_clock
      {13, "wall-clock"},  // time(nullptr)
      {18, "wall-clock"},  // std::clock()
      {27, "wall-clock"},  // gettimeofday(...)
  };
  EXPECT_EQ(Shape(vs), expected) << Dump(vs);
}

TEST(LintFixtures, Randomness) {
  const auto vs = LintFile(Fixture("randomness.cpp"));
  const std::vector<std::pair<int, std::string>> expected{
      {3, "randomness"},   // #include <random>
      {10, "randomness"},  // srand(42)
      {11, "randomness"},  // rand()
      {16, "randomness"},  // std::random_device
      {17, "randomness"},  // std::mt19937
      {23, "randomness"},  // std::mt19937_64
  };
  EXPECT_EQ(Shape(vs), expected) << Dump(vs);
}

TEST(LintFixtures, UnorderedIteration) {
  const auto vs = LintFile(Fixture("unordered_iteration.cpp"));
  const std::vector<std::pair<int, std::string>> expected{
      {20, "unordered-iteration"},  // inline unordered type in range expr
      {22, "unordered-iteration"},  // member variable of unordered type
      {24, "unordered-iteration"},  // variable declared via tracked alias
      {26, "unordered-iteration"},  // call to unordered-returning function
      {29, "unordered-iteration"},  // local unordered variable
  };
  EXPECT_EQ(Shape(vs), expected) << Dump(vs);
}

TEST(LintFixtures, RawOutput) {
  const auto vs = LintFile(Fixture("raw_output.cpp"));
  const std::vector<std::pair<int, std::string>> expected{
      {10, "raw-output"},  // printf
      {11, "raw-output"},  // fprintf
      {12, "raw-output"},  // puts
      {17, "raw-output"},  // std::cout
      {18, "raw-output"},  // std::cerr
  };
  EXPECT_EQ(Shape(vs), expected) << Dump(vs);
}

TEST(LintFixtures, HostThreads) {
  const auto vs = LintFile(Fixture("host_threads.cpp"));
  const std::vector<std::pair<int, std::string>> expected{
      {3, "host-threads"},   // #include <future>
      {4, "host-threads"},   // #include <thread>
      {10, "host-threads"},  // std::thread
      {11, "host-threads"},  // std::jthread
      {12, "host-threads"},  // std::async
  };
  EXPECT_EQ(Shape(vs), expected) << Dump(vs);
}

TEST(LintFixtures, MissingFileIsAnIoError) {
  const auto vs = LintFile(Fixture("does_not_exist.cpp"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "io-error");
}

// --- targeted LintSource probes (the heuristics' sharp edges) ----------------

TEST(LintSource, MemberAndArrowCallsAreNotTheLibcFacility) {
  const auto vs = LintSource("x.cpp",
                             "double f(T t, T* p) { return t.time() + "
                             "p->clock() + t.rand(); }\n");
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(LintSource, ForeignNamespaceQualifierIsNotFlagged) {
  const auto vs = LintSource("x.cpp", "double f() { return sim::clock(); }\n");
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(LintSource, StdQualifierIsFlagged) {
  const auto vs = LintSource("x.cpp", "double f() { return std::clock(); }\n");
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "wall-clock");
}

TEST(LintSource, DeclarationIsNotACallButKeywordPrefixedCallIs) {
  // `double time()` declares a member named like the libc facility; the
  // call in `return rand()` is the real thing even though an identifier
  // (the keyword) precedes it.
  EXPECT_TRUE(LintSource("x.cpp", "struct T { double time() const; };\n").empty());
  const auto vs = LintSource("x.cpp", "int f() { return rand(); }\n");
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "randomness");
}

TEST(LintSource, IdentifierSuffixIsNotACall) {
  // my_time(...) must not match time(...).
  const auto vs = LintSource("x.cpp", "int f() { return my_time(1) + xrand(); }\n");
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(LintSource, CommentsAndStringsNeverFire) {
  const auto vs = LintSource(
      "x.cpp",
      "// rand() under std::chrono\n"
      "/* printf(\"x\") */\n"
      "const char* s = \"rand() time() std::cout\";\n"
      "const char* r = R\"(for (auto& kv : unordered_things))\";\n");
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(LintSource, AllowlistIsMatchedByPathSuffix) {
  const std::string src = "double f() { return std::clock(); }\n";
  EXPECT_TRUE(LintSource("src/common/stopwatch.hpp", src).empty());
  EXPECT_FALSE(LintSource("src/sim/event_queue.cpp", src).empty());
  // The allowlist entry covers exactly its rule: stopwatch may read the host
  // clock but must still log through the sanctioned path.
  const auto vs = LintSource("src/common/stopwatch.hpp",
                             "void f() { printf(\"x\"); }\n");
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "raw-output");
}

TEST(LintSource, VectorOfUnorderedMapsIsOrderStable) {
  const auto vs = LintSource(
      "x.cpp",
      "std::vector<std::unordered_map<int, int>> views;\n"
      "long f() { long s = 0; for (const auto& v : views) s += v.size(); "
      "return s; }\n");
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(LintSource, TypedefAliasIsTracked) {
  const auto vs = LintSource(
      "x.cpp",
      "typedef std::unordered_map<int, int> Table;\n"
      "Table table;\n"
      "long f() { long s = 0; for (const auto& [k, v] : table) s += v; "
      "return s; }\n");
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "unordered-iteration");
  EXPECT_EQ(vs[0].line, 3);
}

TEST(LintSource, OrderInsensitiveAnnotationCoversLineAndLineAbove) {
  const std::string decl = "std::unordered_map<int, int> m;\n";
  EXPECT_TRUE(LintSource("x.cpp",
                         decl +
                             "// lint:order-insensitive\n"
                             "void f() { for (auto& [k, v] : m) (void)v; }\n")
                  .empty());
  EXPECT_TRUE(
      LintSource("x.cpp", decl +
                              "void f() { for (auto& [k, v] : m) (void)v; }"
                              "  // lint:order-insensitive\n")
          .empty());
  // Two lines above is out of scope: still flagged.
  EXPECT_FALSE(LintSource("x.cpp",
                          decl +
                              "// lint:order-insensitive\n"
                              "//\n"
                              "void f() { for (auto& [k, v] : m) (void)v; }\n")
                   .empty());
}

TEST(LintSource, FormatViolationShape) {
  Violation v{"a/b.cpp", 7, "raw-output", "printf"};
  EXPECT_EQ(asyncmr::lint::FormatViolation(v), "a/b.cpp:7: [raw-output] printf");
}

}  // namespace
