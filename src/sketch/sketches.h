// Mergeable sketch data structures for the non-linear query classes the
// OASRS sample cannot answer: heavy hitters (Count-Min), distinct counts
// (HyperLogLog) and quantiles (log-boundary bucket sketch).
//
// Every sketch here is sized from a per-query error target (width/depth from
// ε/δ for Count-Min, register count from ε for HyperLogLog, relative bucket
// width α for quantiles) and merges EXACTLY: merge() is commutative and
// associative, and a sketch built from any partition / interleaving of a
// stream equals the sketch built from the whole stream. That property is
// load-bearing — worker-local sketches merge at slide close through the same
// path as OasrsSampler::merge(), and the sharded / work-stealing runtimes
// must reproduce the sequential answers bit-for-bit even though record →
// worker assignment is nondeterministic. For the same reason the quantile
// sketch uses deterministic log-spaced buckets (DDSketch-style) rather than
// KLL's randomized compaction, whose state depends on arrival order.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace streamapprox::sketch {

/// SplitMix64 finalizer — the stateless 64-bit mixer used to derive the
/// per-row Count-Min hashes and the HyperLogLog hash from a key and a seed.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Exact `h % d` by multiplication instead of division (Lemire, Kaser &
/// Kurz, "Faster remainder by direct computation", 2019). With the 128-bit
/// reciprocal M = ⌈2^128 / d⌉ precomputed, h % d is the high 64 bits of
/// (M·h mod 2^128)·d — exact for every 64-bit h and every d ≥ 1, because
/// M·d − 2^128 < d ≤ 2^64. (For d = 1, M wraps to 0 and the result is the
/// correct 0.)
class FastMod {
 public:
  FastMod() = default;
  explicit FastMod(std::uint64_t divisor) noexcept
      : divisor_(divisor), magic_(~static_cast<unsigned __int128>(0) /
                                      divisor + 1) {}

  std::uint64_t operator()(std::uint64_t h) const noexcept {
    const unsigned __int128 fraction = magic_ * h;  // mod 2^128
    // High 64 bits of the 192-bit product fraction·d, in two 128-bit
    // halves (their sum cannot overflow: it is below 2^128 − 2^64).
    const unsigned __int128 low =
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(fraction)) *
         divisor_) >> 64;
    const unsigned __int128 high = (fraction >> 64) * divisor_;
    return static_cast<std::uint64_t>((low + high) >> 64);
  }

  std::uint64_t divisor() const noexcept { return divisor_; }

  friend bool operator==(const FastMod&, const FastMod&) = default;

 private:
  std::uint64_t divisor_ = 1;
  unsigned __int128 magic_ = 0;
};

/// Count-Min sketch (Cormode & Muthukrishnan): depth rows of width counters;
/// update adds to one counter per row, estimate takes the row minimum. With
/// width = ceil(e/ε) and depth = ceil(ln(1/δ)), each point estimate
/// overcounts by at most ε·N with probability ≥ 1−δ (N = total updates) and
/// never undercounts. Merging is element-wise counter addition — exact.
class CountMinSketch {
 public:
  /// Smallest width whose additive error guarantee is ε·N.
  static std::size_t width_for(double epsilon);
  /// Smallest depth whose failure probability is at most δ.
  static std::size_t depth_for(double delta);

  CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t seed);

  /// Convenience: sized directly from the (ε, δ) target.
  static CountMinSketch for_error(double epsilon, double delta,
                                  std::uint64_t seed) {
    return CountMinSketch(width_for(epsilon), depth_for(delta), seed);
  }

  void update(std::uint64_t key, std::uint64_t count = 1) {
    // Locals, not members, inside the loop: a counter store could alias any
    // uint64_t member, which would force a reload of each per row.
    const FastMod reduce = reduce_;
    const std::uint64_t* salts = row_salts_.data();
    const std::size_t width = width_;
    std::uint64_t* row = counters_.data();
    for (std::size_t r = 0, depth = depth_; r < depth; ++r, row += width) {
      row[reduce(mix64(key ^ salts[r]))] += count;
    }
    total_ += count;
  }

  /// Point estimate of key's frequency: true count ≤ estimate, and
  /// estimate ≤ true count + ε·total() with probability ≥ 1−δ.
  std::uint64_t estimate(std::uint64_t key) const;

  /// Total weight of all updates (N in the guarantee).
  std::uint64_t total() const noexcept { return total_; }

  std::size_t width() const noexcept { return width_; }
  std::size_t depth() const noexcept { return depth_; }

  /// Element-wise counter addition. Throws std::invalid_argument when the
  /// shapes or seeds differ (merging is only defined for sketches built
  /// from the same spec).
  void merge(const CountMinSketch& other);

  /// Order-insensitive structural digest (for property tests).
  std::uint64_t digest() const noexcept;

  friend bool operator==(const CountMinSketch&,
                         const CountMinSketch&) = default;

 private:
  std::size_t index(std::size_t row, std::uint64_t key) const noexcept {
    return row * width_ +
           static_cast<std::size_t>(reduce_(mix64(key ^ row_salts_[row])));
  }

  std::size_t width_ = 0;
  std::size_t depth_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counters_;  // depth_ rows of width_ counters
  // Derived from (seed_, width_) at construction, hoisted off the
  // per-record path: row r hashes key ^ mix64(seed_ + r), reduced mod width_.
  std::vector<std::uint64_t> row_salts_;
  FastMod reduce_;
};

/// HyperLogLog (Flajolet et al.): 2^p registers each holding the maximum
/// leading-zero rank seen in its substream. Standard error ≈ 1.04/√(2^p);
/// the small-range regime uses linear counting. Merging is element-wise
/// register max — exact.
class HyperLogLog {
 public:
  /// Smallest precision p (register count 2^p) whose standard error
  /// 1.04/√(2^p) is at most ε. Clamped to [4, 18].
  static int precision_for(double epsilon);

  explicit HyperLogLog(int precision, std::uint64_t seed);

  static HyperLogLog for_error(double epsilon, std::uint64_t seed) {
    return HyperLogLog(precision_for(epsilon), seed);
  }

  void add(std::uint64_t key) {
    const std::uint64_t h = mix64(key ^ seed_mix_);
    const std::size_t idx = static_cast<std::size_t>(h >> (64 - precision_));
    const std::uint64_t rest = h << precision_;
    const std::uint8_t rank = static_cast<std::uint8_t>(
        rest == 0 ? 64 - precision_ + 1 : std::countl_zero(rest) + 1);
    registers_[idx] = std::max(registers_[idx], rank);
  }

  /// Estimated number of distinct keys added.
  double estimate() const;

  int precision() const noexcept { return precision_; }
  std::size_t register_count() const noexcept { return registers_.size(); }

  /// Relative standard error of estimate() (1.04/√m).
  double standard_error() const noexcept;

  /// Element-wise register max. Throws std::invalid_argument on
  /// precision/seed mismatch.
  void merge(const HyperLogLog& other);

  std::uint64_t digest() const noexcept;

  friend bool operator==(const HyperLogLog&, const HyperLogLog&) = default;

 private:
  int precision_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t seed_mix_ = 0;  // mix64(seed_), hoisted off add()
  std::vector<std::uint8_t> registers_;
};

/// Dense per-sign bucket counts of a QuantileSketch: one contiguous array
/// of counters covering the bucket-index range [base, base + slots), so an
/// update is one indexed increment. A reallocation sizes the array to twice
/// the held index range, with the headroom on the side that overflowed, so
/// a stream whose index keeps falling (or rising) pays amortised O(1) per
/// record. Equality, digests and quantile walks read only the non-zero
/// buckets in index order, so they do not depend on growth history or
/// headroom.
///
/// Memory is (index range) × 8 B, at most doubled by headroom. Magnitudes
/// are confined to (1e-12, DBL_MAX], so the range is at most
/// ln(DBL_MAX / 1e-12) / ln γ buckets: about 18.4k (~150 KB) per sign at
/// α = 0.02 and 369k (~2.9 MB) at the floor α = QuantileSketch::kMinAlpha.
class BucketStore {
 public:
  void add(std::int32_t index, std::uint64_t count = 1) {
    std::int64_t offset = index - base_;
    if (offset < 0 || offset >= static_cast<std::int64_t>(counts_.size())) {
      grow_to(index, index);
      offset = index - base_;
    }
    counts_[static_cast<std::size_t>(offset)] += count;
    if (index < lo_) lo_ = index;
    if (index > hi_) hi_ = index;
  }

  /// Counter addition over the union of both index ranges.
  void merge(const BucketStore& other);

  bool empty() const noexcept { return lo_ > hi_; }
  /// Lowest / highest non-empty bucket index (valid when !empty()).
  std::int32_t lowest() const noexcept { return lo_; }
  std::int32_t highest() const noexcept { return hi_; }
  /// Count of bucket `index` (0 outside the stored range).
  std::uint64_t at(std::int32_t index) const noexcept {
    const std::int64_t offset = index - base_;
    return offset < 0 || offset >= static_cast<std::int64_t>(counts_.size())
               ? 0
               : counts_[static_cast<std::size_t>(offset)];
  }

  friend bool operator==(const BucketStore& a, const BucketStore& b);

 private:
  /// Reallocates to cover [low, high] and the held range, with headroom.
  void grow_to(std::int64_t low, std::int64_t high);

  std::vector<std::uint64_t> counts_;
  std::int64_t base_ = 0;  // bucket index of counts_[0]
  std::int32_t lo_ = std::numeric_limits<std::int32_t>::max();
  std::int32_t hi_ = std::numeric_limits<std::int32_t>::min();
};

/// Quantile sketch over log-spaced buckets (DDSketch-style): bucket i covers
/// (γ^(i−1), γ^i] with γ = (1+α)/(1−α), so any reported quantile of the
/// positive (or negative, via a mirrored store) values has relative value
/// error at most α — deterministically, not just in expectation. Merging
/// adds bucket counts — exact. This fills the KLL slot of the query family;
/// KLL's randomized compaction was rejected because its state depends on
/// arrival order, which would break sharded ≡ sequential bit-identity.
///
/// Non-finite values: NaN has no rank, so update() skips it and counts it in
/// non_finite() (merged by addition, part of the digest); ±inf clamps to the
/// bucket of ±DBL_MAX.
class QuantileSketch {
 public:
  /// Smallest accepted α. The dense bucket store holds the whole index range
  /// a stream touches, which grows as 1/ln γ; at this floor it stays under
  /// about 3 MB per sign (6 MB with headroom) for any finite values, and
  /// bucket indices stay far inside int32.
  static constexpr double kMinAlpha = 1e-3;

  /// Throws std::invalid_argument unless α ∈ [kMinAlpha, 1).
  explicit QuantileSketch(double alpha);

  void update(double value) {
    double magnitude = std::abs(value);
    // Magnitudes below the smallest representable bucket boundary collapse
    // to the zero bucket (their absolute value is ≤ 1e-12; relative error on
    // such answers is meaningless at double precision anyway).
    if (magnitude <= 1e-12) {
      ++count_;
      ++zero_count_;
      return;
    }
    if (!(magnitude <= kMaxMagnitude)) {  // NaN or ±inf
      if (std::isnan(magnitude)) {
        ++non_finite_;
        return;
      }
      magnitude = kMaxMagnitude;
    }
    ++count_;
    (value > 0.0 ? positive_ : negative_).add(bucket_index(magnitude));
  }

  /// Value at quantile q ∈ [0, 1] (midpoint of the covering bucket, so the
  /// relative error vs. the exact quantile value is ≤ α for non-zero
  /// answers). Returns 0 when empty.
  double quantile(double q) const;

  /// Values digested into buckets (NaNs excluded).
  std::uint64_t count() const noexcept { return count_; }
  /// NaN values skipped by update().
  std::uint64_t non_finite() const noexcept { return non_finite_; }
  double alpha() const noexcept { return alpha_; }

  /// Bucket-count addition. Throws std::invalid_argument on α mismatch.
  void merge(const QuantileSketch& other);

  std::uint64_t digest() const noexcept;

  friend bool operator==(const QuantileSketch&,
                         const QuantileSketch&) = default;

 private:
  static constexpr double kMaxMagnitude = std::numeric_limits<double>::max();

  std::int32_t bucket_index(double magnitude) const {
    return static_cast<std::int32_t>(
        std::ceil(std::log(magnitude) / log_gamma_));
  }
  double representative(std::int32_t index) const;

  double alpha_ = 0.0;
  double gamma_ = 0.0;
  double log_gamma_ = 0.0;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  std::uint64_t non_finite_ = 0;
  BucketStore positive_;
  BucketStore negative_;  // indexed by the bucket of |v|
};

}  // namespace streamapprox::sketch
