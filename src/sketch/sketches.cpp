#include "sketch/sketches.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace streamapprox::sketch {
namespace {

constexpr double kEulersNumber = 2.718281828459045;

// Folds (tag, value) into an order-insensitive digest accumulator: each cell
// is mixed independently and the results are summed, so the digest depends
// only on the multiset of cells, matching the merge semantics.
std::uint64_t fold(std::uint64_t acc, std::uint64_t tag,
                   std::uint64_t value) noexcept {
  return acc + mix64(tag * 0x9ddfea08eb382d69ULL + value);
}

}  // namespace

// ---------------------------------------------------------------------------
// CountMinSketch

std::size_t CountMinSketch::width_for(double epsilon) {
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    throw std::invalid_argument("count-min epsilon must be in (0, 1)");
  }
  return static_cast<std::size_t>(std::ceil(kEulersNumber / epsilon));
}

std::size_t CountMinSketch::depth_for(double delta) {
  if (!(delta > 0.0) || delta >= 1.0) {
    throw std::invalid_argument("count-min delta must be in (0, 1)");
  }
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::log(1.0 / delta))));
}

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t seed)
    : width_(width), depth_(depth), seed_(seed) {
  if (width_ == 0 || depth_ == 0) {
    throw std::invalid_argument("count-min width and depth must be positive");
  }
  counters_.assign(width_ * depth_, 0);
  row_salts_.reserve(depth_);
  for (std::size_t row = 0; row < depth_; ++row) {
    row_salts_.push_back(mix64(seed_ + row));
  }
  reduce_ = FastMod(width_);
}

std::uint64_t CountMinSketch::estimate(std::uint64_t key) const {
  std::uint64_t best = counters_[index(0, key)];
  for (std::size_t row = 1; row < depth_; ++row) {
    best = std::min(best, counters_[index(row, key)]);
  }
  return best;
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_) {
    throw std::invalid_argument("count-min merge: incompatible sketches");
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  total_ += other.total_;
}

std::uint64_t CountMinSketch::digest() const noexcept {
  std::uint64_t acc = mix64(seed_ ^ (width_ * 131 + depth_));
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] != 0) acc = fold(acc, i, counters_[i]);
  }
  return mix64(acc ^ total_);
}

// ---------------------------------------------------------------------------
// HyperLogLog

int HyperLogLog::precision_for(double epsilon) {
  if (!(epsilon > 0.0)) {
    throw std::invalid_argument("hyperloglog epsilon must be positive");
  }
  for (int p = 4; p <= 18; ++p) {
    const double error = 1.04 / std::sqrt(static_cast<double>(1u << p));
    if (error <= epsilon) return p;
  }
  return 18;
}

HyperLogLog::HyperLogLog(int precision, std::uint64_t seed)
    : precision_(precision), seed_(seed), seed_mix_(mix64(seed)) {
  if (precision_ < 4 || precision_ > 18) {
    throw std::invalid_argument("hyperloglog precision must be in [4, 18]");
  }
  registers_.assign(std::size_t{1} << precision_, 0);
}

double HyperLogLog::standard_error() const noexcept {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

double HyperLogLog::estimate() const {
  const double m = static_cast<double>(registers_.size());
  double inverse_sum = 0.0;
  std::size_t zeros = 0;
  for (const std::uint8_t reg : registers_) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  double alpha = 0.7213 / (1.0 + 1.079 / m);
  if (registers_.size() == 16) alpha = 0.673;
  if (registers_.size() == 32) alpha = 0.697;
  if (registers_.size() == 64) alpha = 0.709;
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void HyperLogLog::merge(const HyperLogLog& other) {
  if (precision_ != other.precision_ || seed_ != other.seed_) {
    throw std::invalid_argument("hyperloglog merge: incompatible sketches");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
}

std::uint64_t HyperLogLog::digest() const noexcept {
  std::uint64_t acc = mix64(seed_ ^ static_cast<std::uint64_t>(precision_));
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (registers_[i] != 0) acc = fold(acc, i, registers_[i]);
  }
  return mix64(acc);
}

// ---------------------------------------------------------------------------
// BucketStore

void BucketStore::grow_to(std::int64_t low, std::int64_t high) {
  constexpr std::int64_t kMinSlots = 128;
  const std::int64_t lo = empty() ? low : std::min<std::int64_t>(low, lo_);
  const std::int64_t hi = empty() ? high : std::max<std::int64_t>(high, hi_);
  // Twice the held index range: a stream whose index keeps falling (or
  // rising) doubles the range between reallocations, so growth is amortised
  // O(1) per record, and the array never exceeds 2× the range it holds.
  const std::int64_t slots = std::max(2 * (hi - lo + 1), kMinSlots);
  const std::int64_t headroom = slots - (hi - lo + 1);
  // Headroom goes on the side that overflowed (both sides when fresh).
  std::int64_t base = lo;
  if (empty()) {
    base = lo - headroom / 2;
  } else if (low < lo_) {
    base = lo - headroom;
  }
  std::vector<std::uint64_t> grown(static_cast<std::size_t>(slots), 0);
  if (!empty()) {
    std::copy(counts_.begin() + (lo_ - base_),
              counts_.begin() + (hi_ - base_ + 1), grown.begin() + (lo_ - base));
  }
  counts_ = std::move(grown);
  base_ = base;
}

void BucketStore::merge(const BucketStore& other) {
  if (other.empty()) return;
  if (other.lo_ < base_ ||
      other.hi_ >= base_ + static_cast<std::int64_t>(counts_.size())) {
    grow_to(other.lo_, other.hi_);
  }
  const std::uint64_t* theirs =
      other.counts_.data() + (other.lo_ - other.base_);
  std::uint64_t* ours = counts_.data() + (other.lo_ - base_);
  for (std::int64_t i = 0, n = other.hi_ - other.lo_ + 1; i < n; ++i) {
    ours[i] += theirs[i];
  }
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
}

bool operator==(const BucketStore& a, const BucketStore& b) {
  if (a.empty() || b.empty()) return a.empty() == b.empty();
  if (a.lo_ != b.lo_ || a.hi_ != b.hi_) return false;
  return std::equal(a.counts_.begin() + (a.lo_ - a.base_),
                    a.counts_.begin() + (a.hi_ - a.base_ + 1),
                    b.counts_.begin() + (b.lo_ - b.base_));
}

// ---------------------------------------------------------------------------
// QuantileSketch

QuantileSketch::QuantileSketch(double alpha) : alpha_(alpha) {
  if (!(alpha >= kMinAlpha) || alpha >= 1.0) {
    throw std::invalid_argument("quantile alpha must be in [1e-3, 1)");
  }
  gamma_ = (1.0 + alpha) / (1.0 - alpha);
  log_gamma_ = std::log(gamma_);
}

double QuantileSketch::representative(std::int32_t index) const {
  // Midpoint (harmonic) of bucket (γ^(i−1), γ^i]: 2γ^i / (γ+1) — within α
  // relative error of every value in the bucket. Capped at DBL_MAX: the
  // midpoint of the bucket holding DBL_MAX (and clamped ±inf) overflows.
  return std::min(
      2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0),
      kMaxMagnitude);
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target =
      q * static_cast<double>(count_ - 1);  // rank in [0, count)
  std::uint64_t cumulative = 0;
  // Ascending value order: most-negative first (descending |v| index), then
  // zeros, then positives ascending.
  // Empty buckets add nothing to the cumulative count, so they can never be
  // the first to pass the target rank.
  if (!negative_.empty()) {
    for (std::int32_t i = negative_.highest(); i >= negative_.lowest(); --i) {
      cumulative += negative_.at(i);
      if (static_cast<double>(cumulative) > target) return -representative(i);
    }
  }
  cumulative += zero_count_;
  if (static_cast<double>(cumulative) > target) return 0.0;
  if (!positive_.empty()) {
    for (std::int32_t i = positive_.lowest(); i <= positive_.highest(); ++i) {
      cumulative += positive_.at(i);
      if (static_cast<double>(cumulative) > target) return representative(i);
    }
  }
  // Numerically unreachable; return the largest representative for safety.
  return positive_.empty() ? 0.0 : representative(positive_.highest());
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (alpha_ != other.alpha_) {
    throw std::invalid_argument("quantile merge: incompatible sketches");
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  non_finite_ += other.non_finite_;
  positive_.merge(other.positive_);
  negative_.merge(other.negative_);
}

std::uint64_t QuantileSketch::digest() const noexcept {
  std::uint64_t acc = mix64(std::bit_cast<std::uint64_t>(alpha_));
  const auto fold_store = [&acc](const BucketStore& store,
                                 std::uint64_t sign_tag) {
    if (store.empty()) return;
    for (std::int32_t i = store.lowest(); i <= store.highest(); ++i) {
      if (const std::uint64_t n = store.at(i); n != 0) {
        acc = fold(acc, static_cast<std::uint64_t>(i) * 2 + sign_tag, n);
      }
    }
  };
  fold_store(positive_, 2);
  fold_store(negative_, 3);
  // Folded only when present, so NaN-free sketches keep the digest they had
  // before non-finite values were counted. Tag 2^62 lies outside every
  // bucket tag (index·2 + 2 or 3, mod 2^64, with |index| < 2^31).
  if (non_finite_ != 0) acc = fold(acc, std::uint64_t{1} << 62, non_finite_);
  return mix64(acc ^ (count_ * 0x9e3779b97f4a7c15ULL) ^ zero_count_);
}

}  // namespace streamapprox::sketch
