// Statistical acceptance tests for the sketch data structures: ε/δ sizing,
// fixed-seed error bounds on Zipf and uniform key streams, and merge
// property tests (associativity / commutativity / partition-exactness) over
// randomized splits — the properties the sharded runtime's bit-identity
// guarantee rests on.
#include "sketch/sketches.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_set.h"
#include "common/rng.h"
#include "sketch/sketch_sink.h"

namespace streamapprox::sketch {
namespace {

std::vector<std::uint64_t> zipf_keys(std::size_t n, std::uint64_t universe,
                                     double s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.zipf(universe, s));
  return keys;
}

std::vector<std::uint64_t> uniform_keys(std::size_t n, std::uint64_t universe,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.uniform_int(universe));
  return keys;
}

// ---------------------------------------------------------------- Count-Min

TEST(CountMin, SizingFollowsErrorTargets) {
  // width = ⌈e/ε⌉, depth = ⌈ln(1/δ)⌉ — the classic guarantee-driven sizing.
  EXPECT_EQ(CountMinSketch::width_for(0.01), 272u);
  EXPECT_EQ(CountMinSketch::width_for(0.001), 2719u);
  EXPECT_EQ(CountMinSketch::depth_for(0.01), 5u);
  EXPECT_EQ(CountMinSketch::depth_for(0.1), 3u);
  EXPECT_THROW(CountMinSketch::width_for(0.0), std::invalid_argument);
  EXPECT_THROW(CountMinSketch::depth_for(1.0), std::invalid_argument);

  const auto cm = CountMinSketch::for_error(0.01, 0.01, 7);
  EXPECT_EQ(cm.width(), 272u);
  EXPECT_EQ(cm.depth(), 5u);
}

TEST(CountMin, NeverUndercounts) {
  CountMinSketch cm(64, 3, 42);  // deliberately narrow: collisions certain
  std::map<std::uint64_t, std::uint64_t> exact;
  Rng rng(11);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.zipf(500, 1.2);
    cm.update(key);
    ++exact[key];
  }
  for (const auto& [key, count] : exact) {
    EXPECT_GE(cm.estimate(key), count);
  }
}

// Fixed-seed acceptance: the measured per-key error stays within the
// configured ε·N bound for at least a 1−δ fraction of probes (the guarantee
// is per-key probabilistic), on both skewed and uniform key streams.
void expect_count_min_error_bound(const std::vector<std::uint64_t>& keys,
                                  double epsilon, double delta,
                                  std::uint64_t seed) {
  auto cm = CountMinSketch::for_error(epsilon, delta, seed);
  std::map<std::uint64_t, std::uint64_t> exact;
  for (const std::uint64_t key : keys) {
    cm.update(key);
    ++exact[key];
  }
  ASSERT_EQ(cm.total(), keys.size());
  const double bound =
      epsilon * static_cast<double>(keys.size());
  std::size_t probes = 0;
  std::size_t within = 0;
  for (const auto& [key, count] : exact) {
    const std::uint64_t estimate = cm.estimate(key);
    ASSERT_GE(estimate, count);
    const double overcount = static_cast<double>(estimate - count);
    ++probes;
    if (overcount <= bound) ++within;
    // Even δ-tail failures stay within a small multiple of the bound at
    // these sizes — a hard backstop against gross hashing defects.
    EXPECT_LE(overcount, 5.0 * bound + 1.0);
  }
  EXPECT_GE(static_cast<double>(within),
            (1.0 - delta) * static_cast<double>(probes));
}

TEST(CountMin, ErrorWithinBoundOnZipfStream) {
  expect_count_min_error_bound(zipf_keys(200'000, 10'000, 1.2, 101),
                               /*epsilon=*/0.005, /*delta=*/0.01, 1);
}

TEST(CountMin, ErrorWithinBoundOnUniformStream) {
  expect_count_min_error_bound(uniform_keys(200'000, 5'000, 202),
                               /*epsilon=*/0.005, /*delta=*/0.01, 2);
}

// -------------------------------------------------------------- HyperLogLog

TEST(HyperLogLog, SizingFollowsErrorTarget) {
  // 1.04/√(2^p) ≤ ε, clamped to [4, 18].
  EXPECT_EQ(HyperLogLog::precision_for(0.3), 4);
  EXPECT_EQ(HyperLogLog::precision_for(0.02), 12);
  EXPECT_EQ(HyperLogLog::precision_for(1e-9), 18);
  EXPECT_THROW(HyperLogLog::precision_for(0.0), std::invalid_argument);

  const HyperLogLog hll(12, 7);
  EXPECT_EQ(hll.register_count(), 4096u);
  EXPECT_NEAR(hll.standard_error(), 1.04 / 64.0, 1e-12);
}

void expect_hll_error_bound(const std::vector<std::uint64_t>& keys,
                            double epsilon, std::uint64_t seed) {
  auto hll = HyperLogLog::for_error(epsilon, seed);
  std::set<std::uint64_t> exact;
  for (const std::uint64_t key : keys) {
    hll.add(key);
    exact.insert(key);
  }
  const double truth = static_cast<double>(exact.size());
  // 4σ acceptance on a fixed seed: σ = 1.04/√m ≤ ε by construction.
  EXPECT_NEAR(hll.estimate(), truth, 4.0 * epsilon * truth + 2.0)
      << "true distinct " << truth;
}

TEST(HyperLogLog, ErrorWithinBoundOnZipfStream) {
  // Zipf visits a heavy head plus a long sampled tail: the distinct set is
  // well below the universe and the estimate must still track it.
  expect_hll_error_bound(zipf_keys(300'000, 50'000, 1.1, 303), 0.02, 3);
}

TEST(HyperLogLog, ErrorWithinBoundOnUniformStream) {
  expect_hll_error_bound(uniform_keys(300'000, 40'000, 404), 0.02, 4);
}

TEST(HyperLogLog, SmallRangeUsesLinearCounting) {
  HyperLogLog hll(12, 9);
  for (std::uint64_t k = 0; k < 100; ++k) hll.add(k);
  EXPECT_NEAR(hll.estimate(), 100.0, 3.0);
}

// ---------------------------------------------------------------- Quantiles

TEST(Quantile, DeterministicRelativeErrorBound) {
  // The log-bucket guarantee is deterministic: EVERY reported quantile of a
  // nonzero-valued stream is within α of the exact quantile value.
  const double alpha = 0.01;
  for (const std::uint64_t seed : {55u, 56u}) {
    QuantileSketch sketch(alpha);
    Rng rng(seed);
    std::vector<double> values;
    for (int i = 0; i < 50'000; ++i) {
      // Mixed-sign heavy-tailed values exercise both bucket stores.
      const double v = rng.lognormal(2.0, 1.5) * (rng.uniform() < 0.25 ? -1 : 1);
      values.push_back(v);
      sketch.update(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      const double exact = values[static_cast<std::size_t>(
          q * static_cast<double>(values.size() - 1))];
      const double approx = sketch.quantile(q);
      EXPECT_NEAR(approx, exact, alpha * std::abs(exact) + 1e-9)
          << "q=" << q << " seed=" << seed;
    }
  }
}

TEST(Quantile, HandlesZerosAndEmpty) {
  QuantileSketch sketch(0.05);
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
  sketch.update(0.0);
  sketch.update(0.0);
  sketch.update(10.0);
  EXPECT_EQ(sketch.quantile(0.25), 0.0);
  EXPECT_NEAR(sketch.quantile(1.0), 10.0, 0.5);
}

TEST(Quantile, AlphaBelowFloorThrows) {
  // The dense store holds the whole index range a stream touches, which
  // grows as 1/ln γ: α below the floor is rejected, however it arrives.
  EXPECT_THROW(QuantileSketch(QuantileSketch::kMinAlpha * 0.99),
               std::invalid_argument);
  EXPECT_THROW(QuantileSketch(1e-6), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(0.0), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(1.0), std::invalid_argument);
  EXPECT_THROW(QuantileSketch(std::nan("")), std::invalid_argument);
  SketchSpec spec;
  spec.kind = SketchSpec::Kind::kQuantile;
  spec.epsilon = 1e-4;
  EXPECT_THROW(SlideSketchState::make(spec), std::invalid_argument);

  // At the floor, the widest finite span still answers within α.
  QuantileSketch sketch(QuantileSketch::kMinAlpha);
  sketch.update(1.1e-12);
  sketch.update(std::numeric_limits<double>::max());
  sketch.update(-1e300);
  EXPECT_NEAR(sketch.quantile(0.0), -1e300, 1e300 * QuantileSketch::kMinAlpha);
  EXPECT_NEAR(sketch.quantile(0.5), 1.1e-12,
              1.1e-12 * QuantileSketch::kMinAlpha);
  EXPECT_NEAR(sketch.quantile(1.0), std::numeric_limits<double>::max(),
              std::numeric_limits<double>::max() * QuantileSketch::kMinAlpha);
}

TEST(Quantile, NaNIsSkippedAndCounted) {
  QuantileSketch with_nan(0.02);
  QuantileSketch clean(0.02);
  for (const double v : {-3.0, 0.0, 0.5, 7.0, 1e6}) {
    with_nan.update(v);
    clean.update(v);
  }
  with_nan.update(std::nan(""));
  with_nan.update(-std::nan(""));
  EXPECT_EQ(with_nan.count(), clean.count());
  EXPECT_EQ(with_nan.non_finite(), 2u);
  EXPECT_EQ(clean.non_finite(), 0u);
  // Ranks ignore the NaNs; the state (and digest) records them.
  for (const double q : {0.0, 0.3, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(with_nan.quantile(q), clean.quantile(q)) << "q=" << q;
  }
  EXPECT_NE(with_nan, clean);
  EXPECT_NE(with_nan.digest(), clean.digest());

  // The counter merges by addition, order-insensitively.
  QuantileSketch a(0.02);
  QuantileSketch b(0.02);
  a.update(std::nan(""));
  a.update(2.0);
  b.update(-5.0);
  b.update(std::nan(""));
  b.update(std::nan(""));
  QuantileSketch ab = a;
  ab.merge(b);
  QuantileSketch ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.non_finite(), 3u);
  EXPECT_EQ(ab.count(), 2u);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.digest(), ba.digest());

  // Only NaNs: no ranks, so quantiles read 0 like an empty sketch.
  QuantileSketch only_nan(0.02);
  only_nan.update(std::nan(""));
  EXPECT_EQ(only_nan.count(), 0u);
  EXPECT_EQ(only_nan.quantile(0.5), 0.0);
}

TEST(Quantile, InfinityClampsToLargestFiniteBucket) {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  QuantileSketch with_inf(0.02);
  QuantileSketch with_max(0.02);
  for (const double v : {1.0, -2.0, 3.0}) {
    with_inf.update(v);
    with_max.update(v);
  }
  with_inf.update(inf);
  with_inf.update(-inf);
  with_max.update(max);
  with_max.update(-max);
  EXPECT_EQ(with_inf, with_max);
  EXPECT_EQ(with_inf.digest(), with_max.digest());
  EXPECT_EQ(with_inf.non_finite(), 0u);
  EXPECT_TRUE(std::isfinite(with_inf.quantile(1.0)));
  EXPECT_TRUE(std::isfinite(with_inf.quantile(0.0)));
  EXPECT_GT(with_inf.quantile(1.0), 1e307);
  EXPECT_LT(with_inf.quantile(0.0), -1e307);

  // Merged from parts, still the DBL_MAX buckets.
  QuantileSketch part1(0.02);
  QuantileSketch part2(0.02);
  part1.update(1.0);
  part1.update(-2.0);
  part1.update(-inf);
  part2.update(3.0);
  part2.update(inf);
  part2.merge(part1);
  EXPECT_EQ(part2, with_max);
}

// ---------------------------------------------- Merge property tests
//
// For each sketch: build one sketch over the whole stream, then split the
// stream into random parts, build one sketch per part, merge them in a
// random order/association, and require EXACT equality with the whole-stream
// sketch. Randomized splits + shuffled merge order cover commutativity and
// associativity in one property; equality (operator== over the full state,
// plus the digest) is the bit-identity the sharded runtime relies on.

template <typename Sketch, typename UpdateFn>
void expect_merge_partition_exact(const std::vector<std::uint64_t>& keys,
                                  const Sketch& reference,
                                  const UpdateFn& update,
                                  const std::function<Sketch()>& fresh) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t parts = 2 + rng.uniform_int(6);
    std::vector<Sketch> partial;
    for (std::size_t p = 0; p < parts; ++p) partial.push_back(fresh());
    // Random assignment of records to parts (workers), preserving nothing
    // about order or balance.
    for (const std::uint64_t key : keys) {
      update(partial[rng.uniform_int(parts)], key);
    }
    // Merge in random association: repeatedly fold a random sketch into
    // another random one until one remains.
    std::vector<std::size_t> alive(parts);
    std::iota(alive.begin(), alive.end(), 0u);
    while (alive.size() > 1) {
      const std::size_t a = rng.uniform_int(alive.size());
      std::size_t b = rng.uniform_int(alive.size() - 1);
      if (b >= a) ++b;
      partial[alive[a]].merge(partial[alive[b]]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(b));
    }
    const Sketch& merged = partial[alive.front()];
    EXPECT_EQ(merged, reference) << "trial " << trial;
    EXPECT_EQ(merged.digest(), reference.digest()) << "trial " << trial;
  }
}

TEST(SketchMerge, CountMinPartitionExact) {
  const auto keys = zipf_keys(30'000, 2'000, 1.1, 77);
  auto reference = CountMinSketch::for_error(0.01, 0.05, 5);
  for (const std::uint64_t key : keys) reference.update(key);
  expect_merge_partition_exact<CountMinSketch>(
      keys, reference,
      [](CountMinSketch& cm, std::uint64_t key) { cm.update(key); },
      [] { return CountMinSketch::for_error(0.01, 0.05, 5); });
}

TEST(SketchMerge, HyperLogLogPartitionExact) {
  const auto keys = uniform_keys(30'000, 10'000, 88);
  auto reference = HyperLogLog::for_error(0.03, 6);
  for (const std::uint64_t key : keys) reference.add(key);
  expect_merge_partition_exact<HyperLogLog>(
      keys, reference,
      [](HyperLogLog& hll, std::uint64_t key) { hll.add(key); },
      [] { return HyperLogLog::for_error(0.03, 6); });
}

TEST(SketchMerge, QuantilePartitionExact) {
  const auto keys = zipf_keys(30'000, 5'000, 1.0, 99);
  QuantileSketch reference(0.02);
  const auto update = [](QuantileSketch& s, std::uint64_t key) {
    // Signed value derived from the key so both stores participate.
    const double v = (key % 3 == 0 ? -1.0 : 1.0) *
                     (static_cast<double>(key) + 0.5);
    s.update(v);
  };
  for (const std::uint64_t key : keys) update(reference, key);
  expect_merge_partition_exact<QuantileSketch>(
      keys, reference, update, [] { return QuantileSketch(0.02); });
}

TEST(SketchMerge, IncompatibleShapesThrow) {
  auto a = CountMinSketch(64, 3, 1);
  auto b = CountMinSketch(64, 4, 1);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  HyperLogLog h1(8, 1), h2(9, 1);
  EXPECT_THROW(h1.merge(h2), std::invalid_argument);
  QuantileSketch q1(0.01), q2(0.02);
  EXPECT_THROW(q1.merge(q2), std::invalid_argument);
}

// ------------------------------------------------------ Golden digests
//
// Pinned digest() values and evaluated SketchAnswers of the three sketch
// kinds on fixed-seed streams, recorded from the map/unordered_set
// implementation the flat kernels replaced. Any change to bucket indexing,
// row hashing, register ranks or candidate enumeration shows up here as a
// digest mismatch — the sketch state must stay bit-identical across kernel
// rewrites, or sharded runs stop matching stored baselines.

std::uint64_t mix_in(std::uint64_t acc, std::uint64_t value) {
  return mix64(acc * 0x9ddfea08eb382d69ULL + value);
}

/// Order-SENSITIVE digest of every field of an answer (heavy-hitter rank
/// order and probe order are part of the contract).
std::uint64_t answer_digest(const SketchAnswer& answer) {
  std::uint64_t acc = static_cast<std::uint64_t>(answer.kind);
  acc = mix_in(acc, answer.stream_count);
  acc = mix_in(acc, std::bit_cast<std::uint64_t>(answer.epsilon));
  for (const auto& [key, estimate] : answer.heavy_hitters) {
    acc = mix_in(mix_in(acc, key), estimate);
  }
  acc = mix_in(acc, std::bit_cast<std::uint64_t>(answer.distinct));
  for (const auto& [q, value] : answer.quantiles) {
    acc = mix_in(mix_in(acc, std::bit_cast<std::uint64_t>(q)),
                 std::bit_cast<std::uint64_t>(value));
  }
  return acc;
}

struct GoldenCase {
  const char* name;
  SketchSpec spec;
  std::vector<engine::Record> records;
  std::uint64_t sketch_digest;  // digest() of the whole-stream sketch
  std::uint64_t answer_digest;  // answer_digest() of the evaluated window
};

SketchSpec golden_spec(SketchSpec::Kind kind, SketchSpec::KeySource key,
                       double epsilon) {
  SketchSpec spec;
  spec.kind = kind;
  spec.key = key;
  spec.epsilon = epsilon;
  spec.delta = 0.01;
  spec.top_k = 12;
  spec.seed = 2017;
  spec.id = 1;
  return spec;
}

std::vector<engine::Record> keyed_records(
    const std::vector<std::uint64_t>& keys) {
  std::vector<engine::Record> records;
  records.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    records.push_back(engine::Record{static_cast<sampling::StratumId>(keys[i]),
                                     1.0, static_cast<std::int64_t>(i)});
  }
  return records;
}

/// Integer-ish values around zero with −1.0 planted every 7th record, so
/// kValueInt keys cover 0xFFFF…FFFF and the rest of the negative range.
std::vector<engine::Record> value_int_records(std::size_t n,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<engine::Record> records;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = i % 7 == 0 ? -1.0 : rng.gaussian(0.0, 40.0);
    records.push_back(engine::Record{0, value, static_cast<std::int64_t>(i)});
  }
  return records;
}

std::vector<engine::Record> value_records(const std::vector<double>& values) {
  std::vector<engine::Record> records;
  for (std::size_t i = 0; i < values.size(); ++i) {
    records.push_back(
        engine::Record{0, values[i], static_cast<std::int64_t>(i)});
  }
  return records;
}

/// Signed values whose magnitudes span 1e-14 .. 1e6 (zero bucket, negative
/// and positive bucket indices), plus exact zeros and values at ±1.
std::vector<double> spanning_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  for (std::size_t i = 0; i < n; ++i) {
    double v = std::pow(10.0, rng.uniform(-14.0, 6.0));
    if (i % 11 == 0) v = 0.0;
    if (i % 13 == 0) v = 1.0;
    if (i % 17 == 0) v = 0.5;
    values.push_back(rng.uniform() < 0.4 ? -v : v);
  }
  return values;
}

std::vector<GoldenCase> golden_cases() {
  using Kind = SketchSpec::Kind;
  using Key = SketchSpec::KeySource;
  std::vector<double> lognormal;
  Rng rng(31);
  for (int i = 0; i < 20'000; ++i) lognormal.push_back(rng.lognormal(3.0, 1.0));
  const auto zipf = keyed_records(zipf_keys(20'000, 4096, 1.1, 21));
  const auto uniform = keyed_records(uniform_keys(20'000, 4096, 22));
  const auto value_int = value_int_records(20'000, 23);
  return {
      {"cm-zipf", golden_spec(Kind::kCountMin, Key::kStratum, 0.005), zipf,
       0x129fdf495def5e4bULL, 0x3cb09fdce34e6577ULL},
      {"cm-uniform", golden_spec(Kind::kCountMin, Key::kStratum, 0.005),
       uniform, 0x54ca6fb81d0d8119ULL, 0xeefdf62a5ebb9261ULL},
      {"cm-value-int", golden_spec(Kind::kCountMin, Key::kValueInt, 0.01),
       value_int, 0xcb19a0de932f35b7ULL, 0x926a9f187f01d492ULL},
      {"hll-zipf", golden_spec(Kind::kHyperLogLog, Key::kStratum, 0.02), zipf,
       0x732f5d727b9cc79aULL, 0x3088851e68f13959ULL},
      {"hll-uniform", golden_spec(Kind::kHyperLogLog, Key::kStratum, 0.02),
       uniform, 0x7b40d46b031ecf08ULL, 0x83dc34765cfb6e43ULL},
      {"hll-value-int", golden_spec(Kind::kHyperLogLog, Key::kValueInt, 0.02),
       value_int, 0xaecf092c6bce5e97ULL, 0xfb692c1c17e6a75eULL},
      {"quantile-lognormal", golden_spec(Kind::kQuantile, Key::kStratum, 0.02),
       value_records(lognormal), 0x44f41af40a36c659ULL, 0x2ef536152ba5dc2eULL},
      {"quantile-spanning", golden_spec(Kind::kQuantile, Key::kStratum, 0.01),
       value_records(spanning_values(20'000, 24)), 0x5f6509bee2715bf8ULL,
       0xcac0ef840d966d1cULL},
  };
}

std::uint64_t sketch_digest(const SlideSketchState& state) {
  if (state.count_min) return state.count_min->digest();
  if (state.hll) return state.hll->digest();
  return state.quantile->digest();
}

TEST(SketchGolden, DigestsAndAnswersMatchPinnedValues) {
  constexpr std::size_t kSlides = 4;
  for (const GoldenCase& golden : golden_cases()) {
    SCOPED_TRACE(golden.name);
    const SketchPlan plan{{golden.spec}};

    SlideSketchState whole = SlideSketchState::make(golden.spec);
    whole.absorb(golden.records.data(), golden.records.size());

    // The same stream as a 4-slide window, each slide digested by two
    // "workers" (interleaved halves) and merged — the runtime's path.
    SketchSink sink("golden", golden.spec, {0.01, 0.25, 0.5, 0.9, 0.999});
    sink.bind(engine::WindowConfig{4'000'000, 1'000'000}, 1.96);
    const std::size_t per_slide = golden.records.size() / kSlides;
    for (std::size_t s = 0; s < kSlides; ++s) {
      const engine::Record* begin = golden.records.data() + s * per_slide;
      const std::size_t n =
          s + 1 == kSlides ? golden.records.size() - s * per_slide : per_slide;
      SlideSketches slide;
      for (std::size_t w = 0; w < 2; ++w) {
        SlideSketches worker(plan);
        for (std::size_t i = w; i < n; i += 2) worker.absorb(begin + i, 1);
        slide.merge(worker);
      }
      sink.on_slide({}, nullptr, &slide);
    }
    const core::QueryOutput output =
        sink.evaluate(engine::WindowResult{0, 4'000'000, {}});
    ASSERT_TRUE(output.sketch.has_value());
    EXPECT_EQ(output.sketch->stream_count, golden.records.size());

    EXPECT_EQ(sketch_digest(whole), golden.sketch_digest);
    EXPECT_EQ(answer_digest(*output.sketch), golden.answer_digest);
  }
}

// ------------------------------------------------- Kernel property tests
//
// The flat kernels against the structures they replaced: the multiply-based
// reduction against `%`, the dense bucket store against a std::map oracle,
// and the flat candidate set against std::unordered_set.

TEST(FastModKernel, EqualsRemainderForEveryDivisorShape) {
  Rng rng(0xFA57);
  std::vector<std::uint64_t> divisors = {1,    2,    3,    7,
                                         2719, 272,  (1ULL << 40) + 1,
                                         ~0ULL, ~0ULL - 1, 1ULL << 63};
  for (int k = 1; k < 64; ++k) divisors.push_back(1ULL << k);
  for (int i = 0; i < 64; ++i) {
    // Random divisors of every bit width.
    divisors.push_back(std::max<std::uint64_t>(1, rng.next() >> (i % 64)));
  }
  std::vector<std::uint64_t> numerators = {0, 1, ~0ULL, ~0ULL - 1,
                                           1ULL << 63, (1ULL << 63) - 1};
  for (int i = 0; i < 2000; ++i) numerators.push_back(rng.next());
  for (const std::uint64_t d : divisors) {
    const FastMod reduce(d);
    EXPECT_EQ(reduce.divisor(), d);
    for (const std::uint64_t h : numerators) {
      ASSERT_EQ(reduce(h), h % d) << "h=" << h << " d=" << d;
    }
    // Numerators around multiples of d, where rounding would show first.
    for (std::uint64_t m = 1; m < 5; ++m) {
      const std::uint64_t base = d * (~0ULL / d / m);
      for (const std::uint64_t h : {base - 1, base, base + 1}) {
        ASSERT_EQ(reduce(h), h % d) << "h=" << h << " d=" << d;
      }
    }
  }
}

/// The std::map bucket store the dense store replaced, kept as an oracle:
/// same bucket indexing, quantile walk and digest, finite values only.
class MapQuantileOracle {
 public:
  explicit MapQuantileOracle(double alpha)
      : alpha_(alpha),
        gamma_((1.0 + alpha) / (1.0 - alpha)),
        log_gamma_(std::log(gamma_)) {}

  void update(double value) {
    ++count_;
    const double magnitude = std::abs(value);
    if (magnitude <= 1e-12) {
      ++zero_count_;
    } else if (value > 0.0) {
      ++positive_[bucket_index(magnitude)];
    } else {
      ++negative_[bucket_index(magnitude)];
    }
  }

  void merge(const MapQuantileOracle& other) {
    count_ += other.count_;
    zero_count_ += other.zero_count_;
    for (const auto& [i, n] : other.positive_) positive_[i] += n;
    for (const auto& [i, n] : other.negative_) negative_[i] += n;
  }

  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double target = std::clamp(q, 0.0, 1.0) *
                          static_cast<double>(count_ - 1);
    std::uint64_t cumulative = 0;
    for (auto it = negative_.rbegin(); it != negative_.rend(); ++it) {
      cumulative += it->second;
      if (static_cast<double>(cumulative) > target) {
        return -representative(it->first);
      }
    }
    cumulative += zero_count_;
    if (static_cast<double>(cumulative) > target) return 0.0;
    for (const auto& [i, n] : positive_) {
      cumulative += n;
      if (static_cast<double>(cumulative) > target) return representative(i);
    }
    return positive_.empty() ? 0.0 : representative(positive_.rbegin()->first);
  }

  std::uint64_t digest() const {
    const auto fold = [](std::uint64_t acc, std::uint64_t tag,
                         std::uint64_t value) {
      return acc + mix64(tag * 0x9ddfea08eb382d69ULL + value);
    };
    std::uint64_t acc = mix64(std::bit_cast<std::uint64_t>(alpha_));
    for (const auto& [i, n] : positive_) {
      acc = fold(acc, static_cast<std::uint64_t>(i) * 2 + 2, n);
    }
    for (const auto& [i, n] : negative_) {
      acc = fold(acc, static_cast<std::uint64_t>(i) * 2 + 3, n);
    }
    return mix64(acc ^ (count_ * 0x9e3779b97f4a7c15ULL) ^ zero_count_);
  }

 private:
  std::int32_t bucket_index(double magnitude) const {
    return static_cast<std::int32_t>(
        std::ceil(std::log(magnitude) / log_gamma_));
  }
  double representative(std::int32_t index) const {
    return 2.0 * std::pow(gamma_, static_cast<double>(index)) /
           (gamma_ + 1.0);
  }

  double alpha_;
  double gamma_;
  double log_gamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  std::map<std::int32_t, std::uint64_t> positive_;
  std::map<std::int32_t, std::uint64_t> negative_;
};

const std::vector<double> kProbeGrid = {0.0,  0.001, 0.01, 0.1, 0.25, 0.5,
                                        0.75, 0.9,   0.99, 0.999, 1.0};

void expect_matches_oracle(const QuantileSketch& sketch,
                           const MapQuantileOracle& oracle) {
  EXPECT_EQ(sketch.digest(), oracle.digest());
  for (const double q : kProbeGrid) {
    EXPECT_EQ(sketch.quantile(q), oracle.quantile(q)) << "q=" << q;
  }
}

TEST(DenseBucketStore, MatchesMapOracleUnderRandomPartitionsAndMerges) {
  const double alpha = 0.02;
  Rng rng(0xDE45E);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    // Each trial draws a different magnitude span, so stores start, grow
    // and merge at different offsets.
    const double lo_exp = rng.uniform(-13.0, 2.0);
    const double hi_exp = lo_exp + rng.uniform(0.1, 14.0);
    const std::size_t parts = 1 + rng.uniform_int(7);
    std::vector<QuantileSketch> sketches(parts, QuantileSketch(alpha));
    std::vector<MapQuantileOracle> oracles(parts, MapQuantileOracle(alpha));
    QuantileSketch whole(alpha);
    for (int i = 0; i < 5'000; ++i) {
      double v = std::pow(10.0, rng.uniform(lo_exp, hi_exp));
      if (rng.uniform() < 0.3) v = -v;
      if (rng.uniform() < 0.02) v = 0.0;
      const std::size_t p = rng.uniform_int(parts);
      sketches[p].update(v);
      oracles[p].update(v);
      whole.update(v);
    }
    for (std::size_t p = 0; p < parts; ++p) {
      expect_matches_oracle(sketches[p], oracles[p]);
    }
    // Fold the parts together in a random order; both sides alike.
    std::vector<std::size_t> order(parts);
    std::iota(order.begin(), order.end(), 0u);
    for (std::size_t i = parts; i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_int(i)]);
    }
    QuantileSketch merged = sketches[order[0]];
    MapQuantileOracle merged_oracle = oracles[order[0]];
    for (std::size_t i = 1; i < parts; ++i) {
      merged.merge(sketches[order[i]]);
      merged_oracle.merge(oracles[order[i]]);
    }
    expect_matches_oracle(merged, merged_oracle);
    EXPECT_EQ(merged, whole);
  }
}

TEST(DenseBucketStore, EqualityIgnoresGrowthHistory) {
  // The same multiset of values fed falling, rising and shuffled: the
  // stores grow in different directions and end with different headroom,
  // yet compare equal, digest equal, and answer like the map oracle.
  std::vector<double> values;
  for (int i = 0; i < 4'000; ++i) {
    values.push_back(std::pow(10.0, 6.0 - 17.0 * i / 4'000.0));  // falling
    values.push_back(-std::pow(10.0, 1.0 - 12.0 * i / 4'000.0));
  }
  std::vector<double> rising(values.rbegin(), values.rend());
  std::vector<double> shuffled = values;
  Rng rng(9);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniform_int(i)]);
  }
  QuantileSketch falling_sketch(0.02);
  QuantileSketch rising_sketch(0.02);
  QuantileSketch shuffled_sketch(0.02);
  MapQuantileOracle oracle(0.02);
  for (const double v : values) {
    falling_sketch.update(v);
    oracle.update(v);
  }
  for (const double v : rising) rising_sketch.update(v);
  for (const double v : shuffled) shuffled_sketch.update(v);
  EXPECT_EQ(falling_sketch, rising_sketch);
  EXPECT_EQ(falling_sketch, shuffled_sketch);
  expect_matches_oracle(falling_sketch, oracle);
  expect_matches_oracle(rising_sketch, oracle);
  expect_matches_oracle(shuffled_sketch, oracle);

  // Merging into a store that grew the other way changes nothing either.
  QuantileSketch halves(0.02);
  QuantileSketch first(0.02);
  QuantileSketch second(0.02);
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < values.size() / 2 ? first : second).update(values[i]);
  }
  halves.merge(second);
  halves.merge(first);
  EXPECT_EQ(halves, falling_sketch);

  // An empty sketch equals a fresh one, and is unequal to a non-empty one.
  EXPECT_EQ(QuantileSketch(0.02), QuantileSketch(0.02));
  EXPECT_NE(QuantileSketch(0.02), falling_sketch);
}

TEST(FlatCandidateSet, AgreesWithUnorderedSetThroughGrowthAndSentinel) {
  constexpr std::uint64_t kSentinel = ~0ULL;
  FlatU64Set flat(1);  // start tiny: many rehashes
  std::unordered_set<std::uint64_t> mirror;
  Rng rng(0xCA4D);
  for (int i = 0; i < 20'000; ++i) {
    std::uint64_t key = rng.uniform_int(6'000);
    const double pick = rng.uniform();
    if (pick < 0.05) key = kSentinel;
    else if (pick < 0.10) key = kSentinel - rng.uniform_int(50);
    else if (pick < 0.15) key = rng.next();
    EXPECT_EQ(flat.insert(key), mirror.insert(key).second) << key;
  }
  ASSERT_TRUE(mirror.count(kSentinel));
  EXPECT_EQ(flat.size(), mirror.size());
  for (const std::uint64_t key : mirror) EXPECT_TRUE(flat.contains(key));
  EXPECT_FALSE(flat.contains(kSentinel - 1'000));

  std::vector<std::uint64_t> enumerated;
  flat.for_each([&](std::uint64_t key) { enumerated.push_back(key); });
  std::vector<std::uint64_t> expected(mirror.begin(), mirror.end());
  std::sort(enumerated.begin(), enumerated.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(enumerated, expected);

  // Union with a set holding the sentinel and fresh keys.
  FlatU64Set other;
  other.insert(kSentinel);
  other.insert(123'456'789);
  FlatU64Set empty;
  empty.insert_all(other);
  EXPECT_EQ(empty.size(), 2u);
  EXPECT_TRUE(empty.contains(kSentinel));
  flat.insert_all(other);
  EXPECT_EQ(flat.size(), mirror.size() + 1);
}

TEST(FlatCandidateSet, NegativeValueIntKeysReachTheAnswer) {
  // kValueInt keys of -1.0 are 0xFFFF…FFFF — the set's empty-slot value.
  SketchSpec spec = golden_spec(SketchSpec::Kind::kCountMin,
                                SketchSpec::KeySource::kValueInt, 0.01);
  std::vector<double> values;
  for (int i = 0; i < 600; ++i) values.push_back(-1.0);
  for (int i = 0; i < 300; ++i) values.push_back(-2.0);
  for (int i = 0; i < 100; ++i) values.push_back(static_cast<double>(i % 20));
  const auto records = value_records(values);
  SlideSketchState a = SlideSketchState::make(spec);
  SlideSketchState b = SlideSketchState::make(spec);
  a.absorb(records.data(), 500);
  b.absorb(records.data() + 500, records.size() - 500);
  a.merge(b);
  EXPECT_TRUE(a.candidates.contains(~0ULL));
  EXPECT_TRUE(a.candidates.contains(static_cast<std::uint64_t>(-2LL)));
  EXPECT_EQ(a.candidates.size(), 22u);

  SketchSink sink("values", spec);
  sink.bind(engine::WindowConfig{1'000'000, 1'000'000}, 1.96);
  SlideSketches slide(SketchPlan{{spec}});
  slide.absorb(records.data(), records.size());
  sink.on_slide({}, nullptr, &slide);
  const auto output = sink.evaluate(engine::WindowResult{0, 1'000'000, {}});
  ASSERT_TRUE(output.sketch.has_value());
  ASSERT_GE(output.sketch->heavy_hitters.size(), 2u);
  EXPECT_EQ(output.sketch->heavy_hitters[0].first, ~0ULL);
  EXPECT_GE(output.sketch->heavy_hitters[0].second, 600u);
  EXPECT_EQ(output.sketch->heavy_hitters[1].first,
            static_cast<std::uint64_t>(-2LL));
}

}  // namespace
}  // namespace streamapprox::sketch
