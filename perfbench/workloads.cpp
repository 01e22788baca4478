#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "perfbench.h"
#include "sketch/sketch_query.h"

namespace perfbench {
namespace core = streamapprox::core;

namespace {

/// The four workloads. README.md records why each exists.
std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  Workload zipf_seq;
  zipf_seq.name = "zipf64-seq";
  all.push_back(zipf_seq);

  Workload zipf_x2 = zipf_seq;
  zipf_x2.name = "zipf64-x2";
  zipf_x2.workers = 2;
  all.push_back(zipf_x2);

  Workload wide;
  wide.name = "wide4096-fanout-x2";
  wide.strata = 4096;
  wide.zipf_rates = false;
  wide.lognormal_values = true;
  wide.event_seconds = 20.0;
  wide.fraction = 0.01;
  wide.workers = 2;
  wide.fanout = true;
  all.push_back(wide);

  Workload paced = zipf_seq;
  paced.name = "paced-zipf64-x2";
  paced.rate_per_s = 1'500'000.0;
  paced.event_seconds = 4.2;
  paced.window = {100'000, 20'000};
  paced.workers = 2;
  paced.paced = true;
  all.push_back(paced);
  return all;
}

/// splitmix64: small, fast and fixed forever, unlike the library's Rng.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double gaussian() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  }

 private:
  std::uint64_t state_;
};

std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> workloads = make_workloads();
  for (const auto& workload : workloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::vector<Record> generate_records(const Workload& workload,
                                     std::uint64_t seed) {
  std::vector<double> rates(workload.strata);
  double norm = 0.0;
  for (std::size_t i = 0; i < workload.strata; ++i) {
    rates[i] = workload.zipf_rates
                   ? 1.0 / std::sqrt(static_cast<double>(i + 1))
                   : 1.0;
    norm += rates[i];
  }
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(workload.rate_per_s *
                                           workload.event_seconds) +
                  workload.strata);
  InputRng root(seed ^ name_hash(workload.name));
  for (std::size_t i = 0; i < workload.strata; ++i) {
    InputRng rng(root.next());
    const double rate = workload.rate_per_s * rates[i] / norm;
    const auto n = static_cast<std::size_t>(rate * workload.event_seconds);
    const double spacing_us = 1e6 / rate;
    const double scale = static_cast<double>(i + 1);
    const double log_mu = 3.0 + 0.25 * static_cast<double>(i % 8);
    for (std::size_t j = 0; j < n; ++j) {
      Record record;
      record.stratum = static_cast<streamapprox::sampling::StratumId>(i);
      // Jittered uniform spacing: per-slide counts stay close to
      // rate * slide while strata interleave.
      record.event_time_us = static_cast<std::int64_t>(
          (static_cast<double>(j) + rng.uniform()) * spacing_us);
      record.value = workload.lognormal_values
                         ? std::exp(log_mu + rng.gaussian())
                         : 100.0 * scale + 10.0 * scale * rng.gaussian();
      records.push_back(record);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.event_time_us != b.event_time_us
                         ? a.event_time_us < b.event_time_us
                         : a.stratum < b.stratum;
            });
  return records;
}

// ---------------------------------------------------------------- Reference

Reference::Reference(const std::vector<Record>& records,
                     const Workload& workload)
    : strata_(workload.strata),
      slides_per_window_(workload.window.slides_per_window()),
      slide_us_(workload.window.slide_us) {
  if (records.empty()) return;
  first_slide_ = records.front().event_time_us / slide_us_;
  const std::int64_t last_slide = records.back().event_time_us / slide_us_;
  slides_ = static_cast<std::size_t>(last_slide - first_slide_ + 1);
  count_.assign(slides_ * strata_, 0);
  sum_.assign(slides_ * strata_, 0.0);
  last_event_us_.assign(slides_, -1);
  for (const auto& record : records) {
    const auto slide = static_cast<std::size_t>(
        record.event_time_us / slide_us_ - first_slide_);
    const std::size_t cell = slide * strata_ + record.stratum;
    ++count_[cell];
    sum_[cell] += record.value;
    last_event_us_[slide] =
        std::max(last_event_us_[slide], record.event_time_us);
  }
  expected_windows_ =
      slides_ >= slides_per_window_ ? slides_ - slides_per_window_ + 1 : 0;
}

std::int64_t Reference::window_index(std::int64_t window_end_us) const {
  if (window_end_us % slide_us_ != 0) return -1;
  const std::int64_t last_slide = window_end_us / slide_us_ - 1;
  const std::int64_t index = last_slide - first_slide_ -
                             static_cast<std::int64_t>(slides_per_window_) + 1;
  if (index < 0 || index >= static_cast<std::int64_t>(expected_windows_)) {
    return -1;
  }
  return index;
}

std::uint64_t Reference::window_stratum_count(std::size_t index,
                                              std::size_t stratum) const {
  std::uint64_t total = 0;
  for (std::size_t s = index; s < index + slides_per_window_; ++s) {
    total += count_[s * strata_ + stratum];
  }
  return total;
}

std::uint64_t Reference::window_count(std::size_t index) const {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < strata_; ++k) {
    total += window_stratum_count(index, k);
  }
  return total;
}

double Reference::window_sum(std::size_t index, std::size_t stratum) const {
  double total = 0.0;
  for (std::size_t s = index; s < index + slides_per_window_; ++s) {
    total += sum_[s * strata_ + stratum];
  }
  return total;
}

std::int64_t Reference::window_last_event_us(std::size_t index) const {
  std::int64_t last = -1;
  for (std::size_t s = index; s < index + slides_per_window_; ++s) {
    last = std::max(last, last_event_us_[s]);
  }
  return last;
}

// --------------------------------------------------------------- WindowCheck

void WindowCheck::begin_pass() {
  reported_.assign(reference_.expected_windows(), 0);
  expected_ += reference_.expected_windows();
}

std::int64_t WindowCheck::observe(std::int64_t window_end_us,
                                  std::uint64_t records_seen,
                                  bool subscription_dropped) {
  const std::int64_t index = reference_.window_index(window_end_us);
  if (index < 0) {
    ++failed_;
    return -1;
  }
  const auto i = static_cast<std::size_t>(index);
  // A duplicate fails once here; the first report already counted as a pass
  // or failure on its own merits.
  if (reported_[i]++ > 0 || subscription_dropped ||
      records_seen != reference_.window_count(i)) {
    ++failed_;
  }
  return index;
}

void WindowCheck::end_pass() {
  for (const std::uint32_t n : reported_) {
    if (n == 0) ++failed_;
  }
  reported_.clear();
}

// ------------------------------------------------------------------ queries

core::QuerySet workload_queries(const Workload& workload) {
  namespace sk = streamapprox::sketch;
  core::QuerySet queries;
  queries.aggregate("mean", {core::Aggregation::kMean, false});
  queries.aggregate(kSumQuery, {core::Aggregation::kSum, true});
  if (workload.fanout) {
    queries.histogram("histogram", {0.0, 400.0, 32});
    sk::SketchSpec top_k;
    top_k.kind = sk::SketchSpec::Kind::kCountMin;
    top_k.epsilon = 0.001;
    top_k.top_k = 10;
    queries.sketch("top-k", top_k);
    sk::SketchSpec distinct;
    distinct.kind = sk::SketchSpec::Kind::kHyperLogLog;
    distinct.epsilon = 0.02;
    queries.sketch("distinct", distinct);
    sk::SketchSpec quantiles;
    quantiles.kind = sk::SketchSpec::Kind::kQuantile;
    quantiles.epsilon = 0.02;
    queries.sketch("quantiles", quantiles);
  }
  return queries;
}

std::unique_ptr<core::QuerySink> subscription_query() {
  return std::make_unique<core::AggregateSink>(
      "count", core::QuerySpec{core::Aggregation::kCount, false});
}

core::StreamApproxConfig facade_config(const Workload& workload,
                                       std::uint64_t seed) {
  core::StreamApproxConfig config;
  config.topic = "bench";
  config.queries = workload_queries(workload);
  config.budget = streamapprox::estimation::QueryBudget::fraction(
      workload.fraction);
  config.window = workload.window;
  config.workers = workload.workers;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------------ helpers

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace perfbench
