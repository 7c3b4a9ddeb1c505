// Unit tests for src/common: contracts, Span2d, Rng, Stopwatch, Table, CLI.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/span2d.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace sslic {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Check, PassingCheckDoesNothing) { SSLIC_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsContractViolation) {
  EXPECT_THROW(SSLIC_CHECK(false), ContractViolation);
}

TEST(Check, MessageIsIncluded) {
  try {
    SSLIC_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// ------------------------------------------------------------------- Span2d

TEST(Span2d, DefaultIsEmpty) {
  Span2d<int> s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.width(), 0);
  EXPECT_EQ(s.height(), 0);
}

TEST(Span2d, IndexingIsRowMajor) {
  std::array<int, 6> data{0, 1, 2, 3, 4, 5};
  Span2d<int> s(data.data(), 3, 2);
  EXPECT_EQ(s(0, 0), 0);
  EXPECT_EQ(s(2, 0), 2);
  EXPECT_EQ(s(0, 1), 3);
  EXPECT_EQ(s(2, 1), 5);
}

TEST(Span2d, StrideSkipsPadding) {
  std::array<int, 8> data{0, 1, 2, 9, 3, 4, 5, 9};
  Span2d<int> s(data.data(), 3, 2, 4);
  EXPECT_EQ(s(2, 0), 2);
  EXPECT_EQ(s(0, 1), 3);
}

TEST(Span2d, ClampedAccessClampsAllSides) {
  std::array<int, 4> data{1, 2, 3, 4};
  Span2d<int> s(data.data(), 2, 2);
  EXPECT_EQ(s.at_clamped(-5, -5), 1);
  EXPECT_EQ(s.at_clamped(9, -1), 2);
  EXPECT_EQ(s.at_clamped(-1, 9), 3);
  EXPECT_EQ(s.at_clamped(9, 9), 4);
}

TEST(Span2d, SubviewSharesStorage) {
  std::vector<int> data(16, 0);
  Span2d<int> s(data.data(), 4, 4);
  Span2d<int> sub = s.subview(1, 1, 2, 2);
  sub(0, 0) = 7;
  EXPECT_EQ(s(1, 1), 7);
  EXPECT_EQ(sub.stride(), 4);
}

TEST(Span2d, SubviewOutOfBoundsThrows) {
  std::vector<int> data(16, 0);
  Span2d<int> s(data.data(), 4, 4);
  EXPECT_THROW((void)s.subview(2, 2, 3, 3), ContractViolation);
}

TEST(Span2d, ConstConversion) {
  std::array<int, 4> data{1, 2, 3, 4};
  Span2d<int> s(data.data(), 2, 2);
  Span2d<const int> c = s;
  EXPECT_EQ(c(1, 1), 4);
}

TEST(Span2d, InvalidConstructionThrows) {
  std::array<int, 4> data{};
  EXPECT_THROW(Span2d<int>(data.data(), -1, 2), ContractViolation);
  EXPECT_THROW(Span2d<int>(data.data(), 4, 2, 2), ContractViolation);
  EXPECT_THROW(Span2d<int>(nullptr, 2, 2), ContractViolation);
}

// ---------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowZeroBoundThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, NextIntCoversClosedRange) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInHalfOpenUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanIsCentered) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(19);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng forked = a.fork();
  // The fork must not replay the parent's sequence.
  Rng b(5);
  b.next_u64();  // advance to match the parent's post-fork state
  EXPECT_NE(forked.next_u64(), b.next_u64());
}

TEST(Rng, BernoulliProbabilityRoughlyHolds) {
  Rng rng(23);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.25, 0.02);
}

// ---------------------------------------------------------------- Stopwatch

TEST(Stopwatch, MonotonicNonNegative) {
  Stopwatch w;
  const double t1 = w.elapsed_ms();
  const double t2 = w.elapsed_ms();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  w.reset();
  EXPECT_GE(w.elapsed_ms(), 0.0);
}

// -------------------------------------------------------------------- Table

TEST(Table, RendersHeaderAndRows) {
  Table t("Title");
  t.set_header({"col1", "column2"});
  t.add_row({"a", "b"});
  t.add_row({"longer", "x"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("col1"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, SiSuffixes) {
  EXPECT_EQ(Table::si(1500.0, 1), "1.5k");
  EXPECT_EQ(Table::si(2.5e6, 1), "2.5M");
  EXPECT_EQ(Table::si(3.0e9, 1), "3.0G");
  EXPECT_EQ(Table::si(12.0, 1), "12.0");
}

TEST(Table, NotesArePrinted) {
  Table t;
  t.set_header({"x"});
  t.add_row({"1"});
  t.add_note("a footnote");
  EXPECT_NE(t.to_string().find("a footnote"), std::string::npos);
}

// ------------------------------------------------------------------ logging

TEST(Logging, LevelRoundTrips) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(original);
}

TEST(Logging, SuppressedMessageDoesNotEvaluateStream) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  const auto touch = [&] {
    ++evaluations;
    return "x";
  };
  SSLIC_LOG(LogLevel::kDebug, touch());  // below threshold: not evaluated
  EXPECT_EQ(evaluations, 0);
  SSLIC_ERROR(touch());  // at threshold: evaluated (and printed to stderr)
  EXPECT_EQ(evaluations, 1);
  set_log_level(original);
}

// ---------------------------------------------------------------------- CLI

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--count=5", "--name=abc"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("count", 0), 5);
  EXPECT_EQ(args.get_string("name", ""), "abc");
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--count", "7"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("count", 0), 7);
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, PositionalCollected) {
  const char* argv[] = {"prog", "input.ppm", "--k=10", "output.ppm"};
  CliArgs args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.ppm");
  EXPECT_EQ(args.positional()[1], "output.ppm");
}

}  // namespace
}  // namespace sslic
