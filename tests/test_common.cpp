// Unit tests: common utilities (status, rng, stats, strings).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/logging.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/stopwatch.hpp"
#include "common/string_util.hpp"

namespace asyncmr {
namespace {

// --- Status ------------------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::DataLoss("x"), Status::DataLoss("x"));
  EXPECT_FALSE(Status::DataLoss("x") == Status::DataLoss("y"));
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::Unavailable("retry");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.value_or(7), 7);
}

// --- Rng ----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextExponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic) {
  Rng a(5), b(5);
  Rng sa = a.Split(1), sb = b.Split(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sa.Next(), sb.Next());
  Rng other = Rng(5).Split(2);
  EXPECT_NE(Rng(5).Split(1).Next(), other.Next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- Stats ---------------------------------------------------------------------

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all, a, b;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble(-5, 5);
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Histogram, CountsAndPercentiles) {
  Histogram h({1.0, 10.0, 100.0});
  for (double x : {0.5, 0.7, 5.0, 50.0, 500.0}) h.Add(x);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);  // <= 1
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
  EXPECT_DOUBLE_EQ(h.Percentile(40), 1.0);
}

TEST(Histogram, ExponentialBuckets) {
  Histogram h = Histogram::Exponential(1.0, 2.0, 4);  // 1,2,4,8
  h.Add(3.0);
  EXPECT_EQ(h.bucket_count(2), 1u);
}

TEST(Histogram, PercentileEdgeCases) {
  // Single sample in an interior bucket: every percentile — including p=0,
  // whose target rank of ceil(0)=0 used to "find" the empty first bucket —
  // must land on the sample's bucket.
  Histogram single({1.0, 2.0, 4.0});
  single.Add(3.0);  // bucket [2, 4)
  EXPECT_DOUBLE_EQ(single.Percentile(0), 4.0);
  EXPECT_DOUBLE_EQ(single.Percentile(50), 4.0);
  EXPECT_DOUBLE_EQ(single.Percentile(100), 4.0);

  // p=0 is the minimum-occupied bucket, p=100 the maximum-occupied one.
  Histogram h({1.0, 10.0, 100.0});
  h.Add(5.0);
  h.Add(50.0);
  h.Add(50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);

  // Empty histograms report 0 for every percentile.
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(100), 0.0);
}

TEST(Histogram, OverflowPercentileReportsMaxSeen) {
  // A percentile landing in the overflow bucket has no upper bound to
  // report; the honest answer is the largest value actually observed, not
  // the last finite bound (which would underreport).
  Histogram h({1.0, 10.0});
  h.Add(0.5);
  h.Add(250.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 250.0);
  EXPECT_DOUBLE_EQ(h.min_seen(), 0.5);
  EXPECT_DOUBLE_EQ(h.max_seen(), 250.0);
}

TEST(Histogram, MergeMatchesSequential) {
  Histogram all({1.0, 4.0, 16.0, 64.0});
  Histogram a({1.0, 4.0, 16.0, 64.0});
  Histogram b({1.0, 4.0, 16.0, 64.0});
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble(0.0, 100.0);
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.total(), all.total());
  for (size_t i = 0; i < all.num_buckets(); ++i) {
    EXPECT_EQ(a.bucket_count(i), all.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(a.min_seen(), all.min_seen());
  EXPECT_DOUBLE_EQ(a.max_seen(), all.max_seen());
  for (double p : {0.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), all.Percentile(p)) << "p" << p;
  }
}

TEST(Histogram, MergeWithEmptySides) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.Merge(b);  // empty into empty
  EXPECT_EQ(a.total(), 0u);
  b.Add(1.5);
  a.Merge(b);  // occupied into empty
  EXPECT_EQ(a.total(), 1u);
  EXPECT_DOUBLE_EQ(a.max_seen(), 1.5);
  Histogram c({1.0, 2.0});
  a.Merge(c);  // empty into occupied: no change
  EXPECT_EQ(a.total(), 1u);
  EXPECT_DOUBLE_EQ(a.min_seen(), 1.5);
}

// --- ParseLogLevel -----------------------------------------------------------

TEST(ParseLogLevel, AcceptsKnownNamesCaseInsensitive) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("WARN"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("none"), LogLevel::kOff);
}

TEST(ParseLogLevel, RejectsUnknownNames) {
  EXPECT_EQ(ParseLogLevel(""), std::nullopt);
  EXPECT_EQ(ParseLogLevel("verbose"), std::nullopt);
  EXPECT_EQ(ParseLogLevel("2"), std::nullopt);
}

TEST(ParseLogLevel, RoundTripsLogLevelName) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    EXPECT_EQ(ParseLogLevel(LogLevelName(level)), level);
  }
}

TEST(FitLine, RecoversSlope) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LineFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitPowerLaw, RecoversExponent) {
  // Sample from p(k) ~ k^-2.5 via inverse transform on a continuous Pareto.
  Rng rng(23);
  std::vector<uint64_t> samples;
  const double alpha = 2.5;
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.NextDouble();
    const double x = std::pow(1.0 - u, -1.0 / (alpha - 1.0));
    samples.push_back(static_cast<uint64_t>(x));
  }
  // Flooring the continuous Pareto to integers biases the MLE low; using a
  // larger k_min shrinks the discretization bias.
  const double est = FitPowerLawExponent(samples, 5);
  EXPECT_NEAR(est, alpha, 0.25);
}

// --- strings --------------------------------------------------------------------

TEST(StringUtil, SplitKeepsEmptyTokens) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtil, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a\t b \n"), (std::vector<std::string>{"a", "b"}));
}

TEST(StringUtil, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, "-"), "x-y-z");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtil, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("asyncmr", "async"));
  EXPECT_TRUE(EndsWith("asyncmr", "mr"));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(StringUtil, WithThousands) {
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
  EXPECT_EQ(WithThousands(7), "7");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(3u << 20), "3.0 MiB");
}

TEST(StringUtil, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.002), "2 ms");
  EXPECT_EQ(HumanSeconds(90.0), "90.0 s");
}

// --- logging / options -----------------------------------------------------------

TEST(Logging, CaptureRespectsLevel) {
  Logger::Get().set_capture(true);
  Logger::Get().set_level(LogLevel::kWarn);
  AMR_LOG_INFO << "hidden";
  AMR_LOG_WARN << "visible " << 42;
  auto lines = Logger::Get().TakeCaptured();
  Logger::Get().set_capture(false);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[WARN] visible 42");
}

TEST(Options, EnvParsing) {
  setenv("AMR_TEST_INT", "17", 1);
  setenv("AMR_TEST_BOOL", "yes", 1);
  setenv("AMR_TEST_BAD", "zzz", 1);
  EXPECT_EQ(GetEnvInt("AMR_TEST_INT", 0), 17);
  EXPECT_TRUE(GetEnvBool("AMR_TEST_BOOL", false));
  EXPECT_EQ(GetEnvInt("AMR_TEST_BAD", 5), 5);
  EXPECT_EQ(GetEnvInt("AMR_TEST_UNSET_XYZ", 9), 9);
  unsetenv("AMR_TEST_INT");
  unsetenv("AMR_TEST_BOOL");
  unsetenv("AMR_TEST_BAD");
}

TEST(Options, ScaledRespectsMinimum) {
  BenchOptions opts;
  opts.scale = 0.001;
  EXPECT_EQ(opts.Scaled(1000, 5), 5u);
  opts.scale = 2.0;
  EXPECT_EQ(opts.Scaled(1000), 2000u);
}

}  // namespace
}  // namespace asyncmr
