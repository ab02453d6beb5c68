#ifndef DHGCN_BASE_RNG_H_
#define DHGCN_BASE_RNG_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "base/status.h"

namespace dhgcn {

/// \brief Deterministic pseudo-random source used everywhere in the library.
///
/// Wraps std::mt19937_64 with the distributions the codebase needs.
/// Every consumer takes an `Rng&` (or a seed) explicitly — no hidden global
/// state — so experiments are reproducible bit-for-bit given a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eedULL) : engine_(seed) {}

  /// Derives an independent child generator; use to give each subsystem
  /// its own stream without coupling their consumption order.
  Rng Split() { return Rng(engine_()); }

  /// Uniform in [0, 1).
  float Uniform() {
    return std::uniform_real_distribution<float>(0.0f, 1.0f)(engine_);
  }

  /// Uniform in [lo, hi).
  float Uniform(float lo, float hi) {
    return std::uniform_real_distribution<float>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal scaled to N(mean, stddev^2); `mean` when
  /// stddev <= 0. std::normal_distribution requires stddev > 0, so that
  /// case draws a standard normal and drops it: the polar method's engine
  /// draws do not depend on the parameters, so the stream advances exactly
  /// as for any other stddev.
  float Normal(float mean = 0.0f, float stddev = 1.0f) {
    if (!(stddev > 0.0f)) {
      std::normal_distribution<float> standard;
      standard(engine_);
      return mean;
    }
    return std::normal_distribution<float>(mean, stddev)(engine_);
  }

  /// Bernoulli with probability p of true.
  bool Bernoulli(float p) {
    return std::bernoulli_distribution(static_cast<double>(p))(engine_);
  }

  /// A uniformly random permutation of {0, ..., n-1}.
  std::vector<int64_t> Permutation(int64_t n);

  /// Samples k distinct indices from {0, ..., n-1} (k <= n).
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Serializes the full engine state as text (space-separated, no
  /// newlines); checkpointing uses this so a resumed run consumes the
  /// exact same random stream as an uninterrupted one.
  std::string SerializeState() const;
  /// Restores a state produced by SerializeState.
  Status DeserializeState(const std::string& text);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dhgcn

#endif  // DHGCN_BASE_RNG_H_
