// Sketch-vs-sample ablation: the three mergeable sketch kinds (Count-Min
// heavy hitters, HyperLogLog distinct count, log-bucket quantiles) against
// the same query classes answered from a 10% OASRS stratified sample
// (estimation/sample_queries.h). The axes are the key regime (Zipf-skewed /
// uniform) and the key universe ("strata"), because that is what separates
// the two approaches structurally: weight-scaled sample counts track heavy
// hitters well under skew, but a sample cannot see the distinct keys it
// dropped and its tail quantiles degrade with the sampling fraction — the
// gap the full-stream sketch sinks close at a fixed small memory cost.
//
// Sketch rows come on two paths: "update" times the bare sketch update
// loop, "slide_state" times SlideSketchState::absorb — the production
// per-worker path, which also maintains the Count-Min candidate-key set.
//
// Writes BENCH_micro_sketches.json: one run per (method, path, sketch kind,
// regime, universe) cell with digest throughput and the measured error
// against the exact stream answer. scripts/check_bench_json.py fails any
// sketch row whose error exceeds its configured bound (Count-Min additive
// error ≤ ε, quantile relative error ≤ α, HyperLogLog ≤ 3·1.04/√m). Scale
// the workload with SA_BENCH_SCALE.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/table.h"
#include "engine/record.h"
#include "estimation/sample_queries.h"
#include "sampling/oasrs.h"
#include "sketch/sketch_query.h"

namespace {

using namespace streamapprox;
using engine::Record;

constexpr int kPasses = 3;
constexpr std::size_t kTopK = 10;
constexpr double kSampleFraction = 0.10;
constexpr double kCmEpsilon = 0.005;
constexpr double kCmDelta = 0.01;
constexpr double kHllEpsilon = 0.02;
constexpr double kQuantileAlpha = 0.02;
/// Records per SlideSketchState::absorb call (the size of an exchange run
/// batch on the production path).
constexpr std::size_t kAbsorbRun = 512;
const std::vector<double> kProbes = {0.5, 0.95, 0.99};

/// Keys drawn from the regime over [0, universe); values lognormal so the
/// quantile ablation has a heavy tail to chase.
std::vector<Record> make_stream(const std::string& regime, std::size_t count,
                                std::uint64_t universe) {
  Rng rng(0x5ee7ULL + universe + (regime == "zipf" ? 1 : 0));
  std::vector<Record> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Record record;
    record.stratum = static_cast<sampling::StratumId>(
        regime == "zipf" ? rng.zipf(universe, 1.2) : rng.uniform_int(universe));
    record.value = rng.lognormal(3.0, 1.0);
    record.event_time_us = static_cast<std::int64_t>(i);
    records.push_back(record);
  }
  return records;
}

/// Exact stream answers, computed once per cell.
struct GroundTruth {
  std::map<std::uint64_t, std::uint64_t> counts;
  std::vector<std::uint64_t> top_keys;  // true top-K, count desc / key asc
  std::size_t distinct = 0;
  std::vector<double> quantiles;  // exact value at each probe
};

GroundTruth exact_answers(const std::vector<Record>& records) {
  GroundTruth truth;
  for (const auto& record : records) ++truth.counts[record.stratum];
  truth.distinct = truth.counts.size();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked(
      truth.counts.begin(), truth.counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < std::min(kTopK, ranked.size()); ++i) {
    truth.top_keys.push_back(ranked[i].first);
  }
  std::vector<double> values;
  values.reserve(records.size());
  for (const auto& record : records) values.push_back(record.value);
  std::sort(values.begin(), values.end());
  for (const double q : kProbes) {
    truth.quantiles.push_back(values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))]);
  }
  return truth;
}

/// Mean additive error |est − exact| / N of the estimated counts of the
/// TRUE top-K keys (a missing key estimates 0) — the quantity Count-Min's
/// ε·N guarantee bounds, scored the same way for both methods.
double heavy_hitter_error(
    const GroundTruth& truth, std::size_t stream_size,
    const std::map<std::uint64_t, double>& estimated) {
  double total = 0.0;
  for (const std::uint64_t key : truth.top_keys) {
    const double exact = static_cast<double>(truth.counts.at(key));
    const auto it = estimated.find(key);
    const double est = it == estimated.end() ? 0.0 : it->second;
    total += std::abs(est - exact) / static_cast<double>(stream_size);
  }
  return truth.top_keys.empty()
             ? 0.0
             : total / static_cast<double>(truth.top_keys.size());
}

/// Mean relative error over the probe grid.
double quantile_error(const GroundTruth& truth,
                      const std::vector<double>& answers) {
  double total = 0.0;
  for (std::size_t i = 0; i < kProbes.size(); ++i) {
    total += std::abs(answers[i] - truth.quantiles[i]) /
             std::abs(truth.quantiles[i]);
  }
  return total / static_cast<double>(kProbes.size());
}

struct Measured {
  double wall_seconds = 0.0;
  double records_per_sec = 0.0;
  double measured_error = 0.0;
};

/// Best-of-kPasses timing of `digest` (which rebuilds its state each pass);
/// the error comes from `error_of` over the last pass's state (all paths are
/// deterministic, so every pass answers identically).
template <typename DigestFn, typename ErrorFn>
Measured measure(std::size_t n, const DigestFn& digest,
                 const ErrorFn& error_of) {
  Measured best;
  for (int pass = 0; pass < kPasses; ++pass) {
    Stopwatch watch;
    digest();
    const double wall = watch.seconds();
    if (pass == 0 || wall < best.wall_seconds) best.wall_seconds = wall;
  }
  best.records_per_sec = best.wall_seconds > 0.0
                             ? static_cast<double>(n) / best.wall_seconds
                             : 0.0;
  best.measured_error = error_of();
  return best;
}

bench::Json run_json(const std::string& method, const std::string& path,
                     const std::string& sketch, const std::string& regime,
                     std::uint64_t universe, std::size_t records,
                     const Measured& measured) {
  auto entry = bench::Json::object();
  entry.set("mode", method + "-" + path + "-" + regime);
  entry.set("workers", 1);
  entry.set("throughput", measured.records_per_sec);
  entry.set("wall_seconds", measured.wall_seconds);
  entry.set("method", method);
  entry.set("path", path);
  entry.set("sketch", sketch);
  entry.set("regime", regime);
  entry.set("strata", universe);
  entry.set("records", records);
  entry.set("records_per_sec", measured.records_per_sec);
  entry.set("measured_error", measured.measured_error);
  return entry;
}

sampling::StratifiedSample<Record> draw_sample(
    const std::vector<Record>& records) {
  sampling::OasrsConfig config;
  config.total_budget = static_cast<std::size_t>(
      std::max(16.0, static_cast<double>(records.size()) * kSampleFraction));
  config.seed = 0xab1e;
  auto sampler = sampling::make_oasrs<Record>(config);
  sampler.offer_batch(records.data(), records.size());
  return sampler.take();
}

/// The production per-worker path: a fresh SlideSketchState for `spec`
/// absorbing the stream in exchange-sized runs.
sketch::SlideSketchState absorb_slide_state(const sketch::SketchSpec& spec,
                                            const std::vector<Record>& records) {
  auto state = sketch::SlideSketchState::make(spec);
  for (std::size_t i = 0; i < records.size(); i += kAbsorbRun) {
    state.absorb(records.data() + i,
                 std::min(kAbsorbRun, records.size() - i));
  }
  return state;
}

sketch::SketchSpec bench_spec(sketch::SketchSpec::Kind kind, double epsilon) {
  sketch::SketchSpec spec;
  spec.kind = kind;
  spec.key = sketch::SketchSpec::KeySource::kStratum;
  spec.epsilon = epsilon;
  spec.delta = kCmDelta;
  spec.top_k = kTopK;
  spec.seed = 7;
  spec.id = 1;
  return spec;
}

}  // namespace

int main() {
  const std::size_t count = bench::scaled(std::size_t{1} << 18);
  std::printf(
      "Sketch-vs-sample ablation: Count-Min / HLL / quantile sketches vs a "
      "%.0f%% OASRS sample (%zu records/cell, best of %d passes, scale "
      "%.2f)\n\n",
      kSampleFraction * 100.0, count, kPasses, bench::bench_scale());

  struct Cell {
    const char* regime;
    std::uint64_t universe;
  };
  const std::vector<Cell> cells = {
      {"zipf", 256}, {"zipf", 4096}, {"uniform", 256}, {"uniform", 4096}};

  const auto key_fn = [](const Record& r) {
    return static_cast<std::uint64_t>(r.stratum);
  };
  using Kind = sketch::SketchSpec::Kind;
  const auto cm_spec = bench_spec(Kind::kCountMin, kCmEpsilon);
  const auto hll_spec = bench_spec(Kind::kHyperLogLog, kHllEpsilon);
  const auto quant_spec = bench_spec(Kind::kQuantile, kQuantileAlpha);

  auto runs_json = bench::Json::array();
  Table table(
      "Sketch vs sample accuracy (heavy hitters: mean |est-exact|/N; "
      "distinct, quantiles: mean relative error)",
      {"Regime", "Universe", "Query", "Sketch err", "Sample err",
       "update rec/s", "slide_state rec/s", "Sample rec/s"});
  for (const auto& cell : cells) {
    const auto records = make_stream(cell.regime, count, cell.universe);
    const auto truth = exact_answers(records);
    const auto sample = draw_sample(records);
    const auto push = [&](const std::string& method, const std::string& path,
                          const std::string& kind, const Measured& m) {
      runs_json.push(run_json(method, path, kind, cell.regime, cell.universe,
                              records.size(), m));
    };

    // Timed once per cell: the sample path's digest is the OASRS offer loop
    // itself (shared by all three query classes), so each sample row
    // reports the same digest throughput with its own answer error.
    const auto sample_digest = [&] {
      auto drawn = draw_sample(records);
      (void)drawn;
    };

    // ---- Count-Min vs weight-scaled sample counts.
    const auto cm_error = [&](const sketch::CountMinSketch& cm) {
      std::map<std::uint64_t, double> estimated;
      for (const std::uint64_t key : truth.top_keys) {
        estimated[key] = static_cast<double>(cm.estimate(key));
      }
      return heavy_hitter_error(truth, records.size(), estimated);
    };
    sketch::CountMinSketch cm(1, 1, 0);
    const auto cm_measured = measure(
        records.size(),
        [&] {
          cm = sketch::CountMinSketch::for_error(kCmEpsilon, kCmDelta, 7);
          for (const auto& record : records) cm.update(record.stratum);
        },
        [&] { return cm_error(cm); });
    auto cm_state = sketch::SlideSketchState::make(cm_spec);
    const auto cm_state_measured = measure(
        records.size(),
        [&] { cm_state = absorb_slide_state(cm_spec, records); },
        [&] { return cm_error(*cm_state.count_min); });
    const auto sample_hh = measure(records.size(), sample_digest, [&] {
      std::map<std::uint64_t, double> estimated;
      for (const auto& [key, est] :
           estimation::sample_heavy_hitters(sample, key_fn, kTopK)) {
        estimated[key] = est;
      }
      return heavy_hitter_error(truth, records.size(), estimated);
    });
    push("sketch", "update", "count_min", cm_measured);
    push("sketch", "slide_state", "count_min", cm_state_measured);
    push("sample", "oasrs", "count_min", sample_hh);
    table.add_row({cell.regime, std::to_string(cell.universe), "heavy hitters",
                   Table::num(cm_measured.measured_error, 5),
                   Table::num(sample_hh.measured_error, 5),
                   bench::format_throughput(cm_measured.records_per_sec),
                   bench::format_throughput(cm_state_measured.records_per_sec),
                   bench::format_throughput(sample_hh.records_per_sec)});

    // ---- HyperLogLog vs distinct-keys-observed-in-sample.
    const double truth_d = static_cast<double>(truth.distinct);
    const auto hll_error = [&](const sketch::HyperLogLog& hll) {
      return std::abs(hll.estimate() - truth_d) / truth_d;
    };
    sketch::HyperLogLog hll(4, 0);
    const auto hll_measured = measure(
        records.size(),
        [&] {
          hll = sketch::HyperLogLog::for_error(kHllEpsilon, 7);
          for (const auto& record : records) hll.add(record.stratum);
        },
        [&] { return hll_error(hll); });
    auto hll_state = sketch::SlideSketchState::make(hll_spec);
    const auto hll_state_measured = measure(
        records.size(),
        [&] { hll_state = absorb_slide_state(hll_spec, records); },
        [&] { return hll_error(*hll_state.hll); });
    const auto sample_distinct = measure(records.size(), sample_digest, [&] {
      const double est =
          static_cast<double>(estimation::sample_distinct(sample, key_fn));
      return std::abs(est - truth_d) / truth_d;
    });
    push("sketch", "update", "hll", hll_measured);
    push("sketch", "slide_state", "hll", hll_state_measured);
    push("sample", "oasrs", "hll", sample_distinct);
    table.add_row({cell.regime, std::to_string(cell.universe), "distinct",
                   Table::num(hll_measured.measured_error, 5),
                   Table::num(sample_distinct.measured_error, 5),
                   bench::format_throughput(hll_measured.records_per_sec),
                   bench::format_throughput(hll_state_measured.records_per_sec),
                   bench::format_throughput(sample_distinct.records_per_sec)});

    // ---- Log-bucket quantiles vs weight-expanded sample quantiles.
    const auto quant_error = [&](const sketch::QuantileSketch& quant) {
      std::vector<double> answers;
      for (const double q : kProbes) answers.push_back(quant.quantile(q));
      return quantile_error(truth, answers);
    };
    sketch::QuantileSketch quant(kQuantileAlpha);
    const auto quant_measured = measure(
        records.size(),
        [&] {
          quant = sketch::QuantileSketch(kQuantileAlpha);
          for (const auto& record : records) quant.update(record.value);
        },
        [&] { return quant_error(quant); });
    auto quant_state = sketch::SlideSketchState::make(quant_spec);
    const auto quant_state_measured = measure(
        records.size(),
        [&] { quant_state = absorb_slide_state(quant_spec, records); },
        [&] { return quant_error(*quant_state.quantile); });
    const auto sample_quant = measure(records.size(), sample_digest, [&] {
      std::vector<double> answers;
      for (const double q : kProbes) {
        answers.push_back(estimation::sample_quantile(sample, q));
      }
      return quantile_error(truth, answers);
    });
    push("sketch", "update", "kll", quant_measured);
    push("sketch", "slide_state", "kll", quant_state_measured);
    push("sample", "oasrs", "kll", sample_quant);
    table.add_row(
        {cell.regime, std::to_string(cell.universe), "quantiles",
         Table::num(quant_measured.measured_error, 5),
         Table::num(sample_quant.measured_error, 5),
         bench::format_throughput(quant_measured.records_per_sec),
         bench::format_throughput(quant_state_measured.records_per_sec),
         bench::format_throughput(sample_quant.records_per_sec)});
  }
  table.print();

  auto meta = bench::Json::object();
  meta.set("scale", bench::bench_scale());
  meta.set("records_per_cell", count);
  meta.set("passes", kPasses);
  meta.set("absorb_run", kAbsorbRun);
  meta.set("sample_fraction", kSampleFraction);
  meta.set("top_k", kTopK);
  meta.set("cm_epsilon", kCmEpsilon);
  meta.set("cm_delta", kCmDelta);
  meta.set("hll_epsilon", kHllEpsilon);
  meta.set("hll_registers",
           sketch::HyperLogLog::for_error(kHllEpsilon, 7).register_count());
  meta.set("quantile_alpha", kQuantileAlpha);
  auto body = bench::Json::object();
  body.set("meta", meta);
  body.set("runs", runs_json);
  bench::write_bench_json("micro_sketches", body);
  std::printf(
      "\nSketch-row error bounds (Count-Min <= eps, quantile <= alpha, "
      "HyperLogLog <= 3*1.04/sqrt(m)) are checked by "
      "scripts/check_bench_json.py.\n");
  return 0;
}
