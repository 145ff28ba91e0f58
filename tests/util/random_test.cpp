#include "util/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/stats.hpp"

namespace idp::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.gaussian() != b.gaussian()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(123);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.gaussian());
  EXPECT_NEAR(mean(xs), 0.0, 0.03);
  EXPECT_NEAR(stddev(xs), 1.0, 0.03);
}

TEST(Rng, ScaledGaussianHasRequestedSigma) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.gaussian(3.0));
  EXPECT_NEAR(stddev(xs), 3.0, 0.1);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, ReseedReproduces) {
  Rng rng(77);
  const double first = rng.gaussian();
  rng.gaussian();
  rng.reseed(77);
  EXPECT_DOUBLE_EQ(rng.gaussian(), first);
}

// ---------------------------------------------------------------------------
// The lazy engine against std::mt19937_64, the reference it must equal.
// ---------------------------------------------------------------------------

// Fixed edge seeds plus a few drawn ones. 1200 draws cross draw 156 (the
// seeding recurrence completes), 312 (the second round starts), 624 and 936.
std::vector<std::uint64_t> oracle_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0},
                                      0x9e3779b97f4a7c15ULL};
  std::mt19937_64 pick(20261017);
  for (int i = 0; i < 4; ++i) seeds.push_back(pick());
  return seeds;
}
constexpr int kOracleDraws = 1200;

TEST(Mt19937_64, RawOutputMatchesStdEngine) {
  for (std::uint64_t seed : oracle_seeds()) {
    Mt19937_64 lazy(seed);
    std::mt19937_64 ref(seed);
    for (int k = 0; k < kOracleDraws; ++k) {
      ASSERT_EQ(lazy(), ref()) << "seed " << seed << ", draw " << k;
    }
  }
}

TEST(Mt19937_64, ReseedMidStreamMatchesStdEngine) {
  for (std::uint64_t seed : oracle_seeds()) {
    // Reseed inside the first round (seeding incomplete), at its end and
    // in a later round.
    for (int at : {0, 7, 155, 312, 700}) {
      Mt19937_64 lazy(seed);
      std::mt19937_64 ref(seed);
      for (int k = 0; k < at; ++k) ASSERT_EQ(lazy(), ref());
      lazy.seed(seed ^ 0xabcdefULL);
      ref.seed(seed ^ 0xabcdefULL);
      for (int k = 0; k < kOracleDraws; ++k) {
        ASSERT_EQ(lazy(), ref()) << "seed " << seed << ", reseeded after "
                                 << at << ", draw " << k;
      }
    }
  }
}

TEST(Mt19937_64, CopyDuringFirstRoundContinuesBothStreams) {
  for (std::uint64_t seed : oracle_seeds()) {
    for (int at : {0, 3, 100, 200}) {
      Mt19937_64 lazy(seed);
      std::mt19937_64 ref(seed);
      for (int k = 0; k < at; ++k) ASSERT_EQ(lazy(), ref());
      Mt19937_64 copy = lazy;
      std::mt19937_64 ref_copy = ref;
      // Draw the original first, then the copy: the copy must not share
      // state with the original's seeding progress.
      for (int k = 0; k < kOracleDraws; ++k) ASSERT_EQ(lazy(), ref());
      for (int k = 0; k < kOracleDraws; ++k) {
        ASSERT_EQ(copy(), ref_copy()) << "seed " << seed << ", copied after "
                                      << at << ", draw " << k;
      }
    }
  }
}

TEST(Rng, DrawsMatchTheWrapperOverStdEngine) {
  for (std::uint64_t seed : oracle_seeds()) {
    Rng rng(seed);
    BasicRng<std::mt19937_64> ref(seed);
    // Interleave the three draw kinds so the normal distribution's cached
    // second deviate and the raw index draws share one stream.
    for (int k = 0; k < kOracleDraws; ++k) {
      switch (k % 4) {
        case 0:
        case 1:
          ASSERT_EQ(rng.gaussian(), ref.gaussian()) << "draw " << k;
          break;
        case 2:
          ASSERT_EQ(rng.uniform(-3.0, 7.0), ref.uniform(-3.0, 7.0))
              << "draw " << k;
          break;
        default:
          ASSERT_EQ(rng.index(1000003), ref.index(1000003)) << "draw " << k;
      }
    }
    rng.reseed(seed + 1);
    ref.reseed(seed + 1);
    for (int k = 0; k < 200; ++k) ASSERT_EQ(rng.gaussian(2.5), ref.gaussian(2.5));
  }
}

TEST(PinkNoise, RmsApproximatesSigma) {
  PinkNoise pink(2.0, 42);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(pink.sample());
  EXPECT_NEAR(rms(xs), 2.0, 0.8);  // 1/f processes converge slowly
}

TEST(PinkNoise, DeterministicForSameSeed) {
  PinkNoise a(1.0, 3), b(1.0, 3);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.sample(), b.sample());
}

TEST(PinkNoise, SpectrumFallsWithFrequency) {
  // Compare variance of coarse-grained (low-frequency) vs first-difference
  // (high-frequency) content: for pink noise the low band must dominate a
  // white sequence's ratio.
  PinkNoise pink(1.0, 99);
  const int n = 1 << 14;
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(pink.sample());

  // Block means over 64 samples capture f < fs/64 energy.
  std::vector<double> blocks;
  for (int i = 0; i + 64 <= n; i += 64) {
    double s = 0.0;
    for (int k = 0; k < 64; ++k) s += xs[i + k];
    blocks.push_back(s / 64.0);
  }
  // First differences capture the top octave.
  std::vector<double> diffs;
  for (int i = 1; i < n; ++i) diffs.push_back(xs[i] - xs[i - 1]);

  const double low = variance(blocks);
  const double high = variance(diffs) / 2.0;  // diff doubles white variance
  EXPECT_GT(low / high, 0.2);  // white noise would give ~1/64

  Rng rng(1234);
  std::vector<double> white;
  for (int i = 0; i < n; ++i) white.push_back(rng.gaussian());
  std::vector<double> wblocks;
  for (int i = 0; i + 64 <= n; i += 64) {
    double s = 0.0;
    for (int k = 0; k < 64; ++k) s += white[i + k];
    wblocks.push_back(s / 64.0);
  }
  std::vector<double> wdiffs;
  for (int i = 1; i < n; ++i) wdiffs.push_back(white[i] - white[i - 1]);
  const double wratio = variance(wblocks) / (variance(wdiffs) / 2.0);
  EXPECT_GT(low / high, 5.0 * wratio);
}

TEST(DriftProcess, StationaryStdApproachesSigma) {
  DriftProcess drift(4.0, 10.0, 21);
  // Burn in past several time constants, then sample.
  for (int i = 0; i < 2000; ++i) drift.step(0.1);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(drift.step(0.1));
  EXPECT_NEAR(stddev(xs), 4.0, 0.8);
}

TEST(DriftProcess, CorrelatedOverTau) {
  DriftProcess drift(1.0, 100.0, 8);
  for (int i = 0; i < 1000; ++i) drift.step(1.0);
  const double a = drift.value();
  drift.step(1.0);  // dt << tau: little movement expected
  EXPECT_NEAR(drift.value(), a, 0.5);
}

TEST(DriftProcess, ResetZeroes) {
  DriftProcess drift(1.0, 1.0, 4);
  drift.step(5.0);
  drift.reset();
  EXPECT_DOUBLE_EQ(drift.value(), 0.0);
}

}  // namespace
}  // namespace idp::util
