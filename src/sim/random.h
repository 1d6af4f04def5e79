#ifndef ACCELFLOW_SIM_RANDOM_H_
#define ACCELFLOW_SIM_RANDOM_H_

#include <cstdint>
#include <vector>

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator implements its own generator (xoshiro256**) and its own
 * distribution transforms instead of <random> distributions, because the
 * standard leaves distribution algorithms implementation-defined: the same
 * seed would give different experiment results on different standard
 * libraries. Everything here is reproducible bit-for-bit everywhere.
 */

namespace accelflow::sim {

/**
 * xoshiro256** generator with splitmix64 seeding.
 *
 * Small, fast, high quality; passes BigCrush. One instance per independent
 * stochastic process (e.g. one per load generator, one per request) keeps
 * experiments paired: changing one component's draws does not perturb
 * another's.
 */
class Rng {
 public:
  /** Creates a generator seeded with `seed` (expanded via splitmix64). */
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /** Re-seeds the generator, expanding the seed with splitmix64. */
  void reseed(std::uint64_t seed);

  /** Next raw 64-bit value. */
  std::uint64_t next_u64();

  /** Uniform double in [0, 1). */
  double next_double();

  /** Uniform integer in [0, bound) using Lemire's unbiased method. */
  std::uint64_t next_below(std::uint64_t bound);

  /** Uniform integer in [lo, hi] inclusive. */
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /** Uniform double in [lo, hi). */
  double uniform(double lo, double hi);

  /** Bernoulli draw: true with probability p. */
  bool bernoulli(double p);

  /** Exponential with the given mean (= 1/rate). */
  double exponential(double mean);

  /** Standard normal via Box-Muller (stateless variant: uses two draws). */
  double normal(double mean = 0.0, double stddev = 1.0);

  /**
   * Lognormal parameterized by the *linear-domain* mean and the ratio
   * sigma/mean of the underlying distribution shape. This is far more
   * convenient for calibration than (mu, sigma) of the log domain.
   */
  double lognormal_mean_cv(double mean, double cv);

  /** Classic lognormal with log-domain parameters. */
  double lognormal(double mu, double sigma);

  /** Poisson-distributed count with the given mean (lambda). */
  std::uint64_t poisson(double lambda);

  /** Zipf-like rank in [0, n) with exponent s (s = 0 -> uniform). */
  std::size_t zipf(std::size_t n, double s);

  /** Derives an independent child generator (stable given parent seed). */
  Rng fork();

 private:
  std::uint64_t s_[4];
};

/**
 * Precomputed Zipf sampler for repeated draws over a fixed (n, s).
 *
 * Builds the CDF once and samples by binary search; Rng::zipf is O(n) per
 * draw and only suitable for occasional use.
 */
class ZipfTable {
 public:
  /** Precomputes the CDF for ranks [0, n) with exponent `s`. */
  ZipfTable(std::size_t n, double s);

  /** Draws one rank in [0, size()) using `rng`. */
  std::size_t sample(Rng& rng) const;
  /** The number of ranks n. */
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace accelflow::sim

#endif  // ACCELFLOW_SIM_RANDOM_H_
