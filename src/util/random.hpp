/// \file random.hpp
/// Deterministic random sources for noise modelling.
///
/// Every stochastic component of the platform takes an explicit seed so that
/// simulations, tests and benches are bit-reproducible run to run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace idp::util {

/// MT19937-64 that does its set-up work lazily: the raw output equals
/// std::mt19937_64's for every seed and every draw.
///
/// std::mt19937_64 runs its 312-step seeding recurrence at construction and
/// twists all 312 state words at the first draw, which a noise stream that
/// draws a few dozen numbers mostly wastes. This engine twists one word per
/// draw, in place, and extends the seeding recurrence only as far as that
/// twist reads. Twisting word k reads words k, k+1 and k+156 (mod 312):
/// during the first round the last of these is still an untwisted seeding
/// word (word k + 156 for draw k < 156) or an already-twisted one (k >= 156),
/// which is exactly what the standard engine's whole-block twist reads. So
/// a stream of d < 156 draws costs d + 156 seeding steps and d twists,
/// where the standard engine pays 311 and 312.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type s) { seed(s); }

  /// Restart the sequence of seed `s` (same as std::mt19937_64::seed).
  void seed(result_type s) {
    x_[0] = s;
    seeded_ = 1;
    next_ = 0;
  }

  result_type operator()() {
    const std::size_t k = next_;
    // Only in the first round: seeding stays ahead of the words the twist
    // of word k reads (seeded_ reaches kN at draw kN - kM - 1, so k + kM
    // is in range whenever this runs).
    if (seeded_ < kN) {
      for (; seeded_ <= k + kM; ++seeded_) {
        const result_type prev = x_[seeded_ - 1];
        x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
      }
    }
    const std::size_t k1 = k + 1 == kN ? 0 : k + 1;
    const std::size_t km = k < kN - kM ? k + kM : k + kM - kN;
    const result_type y = (x_[k] & kUpperMask) | (x_[k1] & ~kUpperMask);
    result_type z = x_[km] ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
    x_[k] = z;
    next_ = k1;
    // Tempering.
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;  ///< state words
  static constexpr std::size_t kM = 156;  ///< twist offset
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;

  /// Words [0, seeded_) hold the seeding recurrence, or their twist once
  /// drawn; the rest are unset (zeroed, so that copying one is defined).
  std::array<result_type, kN> x_{};
  std::size_t seeded_ = 1;
  std::size_t next_ = 0;  ///< the word the next draw twists and returns
};

/// Thin deterministic wrapper giving normal, uniform and index draws over a
/// 64-bit engine. Over the same seed, BasicRng<Mt19937_64> and
/// BasicRng<std::mt19937_64> return the same values (tests pin this).
template <class Engine>
class BasicRng {
 public:
  explicit BasicRng(std::uint64_t seed) : engine_(seed) {}

  /// Standard-normal deviate.
  double gaussian() { return normal_(engine_); }

  /// Normal deviate with the given standard deviation.
  double gaussian(double sigma) { return sigma * normal_(engine_); }

  /// Uniform deviate in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform_(engine_);
  }

  /// Uniform integer in [0, n).
  std::uint64_t index(std::uint64_t n) { return engine_() % n; }

  /// Re-seed (resets the distribution caches too).
  void reseed(std::uint64_t seed) {
    engine_.seed(seed);
    normal_.reset();
    uniform_.reset();
  }

 private:
  Engine engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

/// The platform's deterministic random source: the wrapper over the lazy
/// engine, drawing exactly the values it would draw over std::mt19937_64.
using Rng = BasicRng<Mt19937_64>;

/// Pink (1/f) noise generator, Voss-McCartney algorithm with 16 octave rows.
///
/// Produces samples whose power spectral density falls off as ~1/f over
/// roughly 16 octaves below half the sampling rate. Used to model flicker
/// noise of the analog front-end and slow electrode drift. Output is scaled
/// so that the long-run standard deviation is approximately `sigma`.
class PinkNoise {
 public:
  /// \param sigma   target RMS amplitude of the generated sequence
  /// \param seed    RNG seed (deterministic)
  PinkNoise(double sigma, std::uint64_t seed);

  /// Next pink-noise sample.
  double sample();

 private:
  static constexpr int kRows = 16;
  Rng rng_;
  std::array<double, kRows> rows_{};
  double running_sum_ = 0.0;
  std::uint32_t counter_ = 0;
  double scale_ = 1.0;
};

/// First-order Gauss-Markov (Ornstein-Uhlenbeck) drift process.
///
/// Models slow baseline wander of an electrochemical cell: correlated over
/// `tau` seconds with stationary standard deviation `sigma`.
class DriftProcess {
 public:
  DriftProcess(double sigma, double tau_s, std::uint64_t seed);

  /// Advance by dt seconds and return the new drift value.
  double step(double dt);

  /// Current value without advancing.
  double value() const { return state_; }

  void reset() { state_ = 0.0; }

 private:
  Rng rng_;
  double sigma_;
  double tau_;
  double state_ = 0.0;
};

}  // namespace idp::util
