// Shared declarations of the facade benchmark: workload definitions, input
// generation, the benchmark-owned exact reference, the window-output check,
// and the metric plumbing the end-to-end (facade.cpp) and traced
// (traced.cpp) runs report through. README.md in this directory explains the workloads,
// the metrics and which layer each per-layer metric belongs to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/stream_approx.h"
#include "engine/record.h"
#include "engine/window.h"
#include "ingest/broker.h"

namespace perfbench {

using streamapprox::engine::Record;

/// One benchmark workload: the input stream shape plus the facade set-up
/// that consumes it.
struct Workload {
  std::string name;
  std::size_t strata = 64;
  /// Per-stratum rates proportional to 1/sqrt(i+1) (Zipf(0.5)); uniform
  /// rates otherwise.
  bool zipf_rates = true;
  /// Lognormal values; Gaussian N(100(i+1), 10(i+1)) per stratum otherwise.
  bool lognormal_values = false;
  double rate_per_s = 300'000.0;
  double event_seconds = 24.0;
  double fraction = 0.4;
  streamapprox::engine::WindowConfig window{2'000'000, 1'000'000};
  std::size_t workers = 1;
  /// Registers the histogram and the three sketch queries and drains a
  /// subscription from the window callback.
  bool fanout = false;
  /// Open loop: a generator thread appends to a live topic on a fixed
  /// schedule instead of the run consuming a sealed, preloaded topic.
  bool paced = false;
};

/// The workload called `name`, or nullptr.
const Workload* find_workload(const std::string& name);

/// Partitions of every benchmark topic.
inline constexpr std::size_t kPartitions = 8;
/// Facade RNG seed of the first timed pass; pass i uses kFacadeSeed + i, so
/// the accuracy median averages over sampling draws. The input seed is the
/// command-line --seed.
inline constexpr std::uint64_t kFacadeSeed = 1234;
/// Buffered outputs of the subscription the fan-out workload drains.
inline constexpr std::size_t kSubscriptionCapacity = 256;
/// Name of the per-stratum SUM query every workload registers; its output
/// is what accuracy_loss_pct is computed from.
inline const char* const kSumQuery = "sum/stratum";

/// Generates the workload's records, sorted by event time. Deterministic
/// in (workload, seed); uses its own PRNG so library changes cannot move the
/// inputs.
std::vector<Record> generate_records(const Workload& workload,
                                     std::uint64_t seed);

/// Exact per-(slide, stratum) counts and sums computed directly from the
/// generated records, plus the latest event time per slide. Windows are
/// composed from slides here, never through the library.
class Reference {
 public:
  Reference(const std::vector<Record>& records, const Workload& workload);

  /// Windows a complete run must emit: one ending at every slide from the
  /// first full window to the last slide that holds data.
  std::size_t expected_windows() const { return expected_windows_; }
  /// Index of the window ending at `window_end_us`, or -1 when no expected
  /// window ends there.
  std::int64_t window_index(std::int64_t window_end_us) const;
  std::uint64_t window_count(std::size_t index) const;
  /// Exact SUM of stratum `stratum` over window `index` (0 when absent).
  double window_sum(std::size_t index, std::size_t stratum) const;
  std::uint64_t window_stratum_count(std::size_t index,
                                     std::size_t stratum) const;
  /// Latest event time (µs) of any record in window `index`.
  std::int64_t window_last_event_us(std::size_t index) const;
  std::size_t strata() const { return strata_; }
  std::size_t slides() const { return slides_; }

 private:
  std::size_t strata_;
  std::size_t slides_per_window_;
  std::int64_t slide_us_;
  std::int64_t first_slide_ = 0;
  std::size_t slides_ = 0;
  std::size_t expected_windows_ = 0;
  std::vector<std::uint64_t> count_;  ///< [slide * strata + stratum]
  std::vector<double> sum_;
  std::vector<std::int64_t> last_event_us_;  ///< per slide
};

/// Checks window outputs against the reference. A window fails when it is
/// unexpected or duplicated, when its records_seen differs from the exact
/// count, or when a subscription had dropped outputs when it was reported;
/// an expected window never reported fails at end_pass().
class WindowCheck {
 public:
  explicit WindowCheck(const Reference& reference) : reference_(reference) {}
  void begin_pass();
  /// Returns the window's reference index, or -1 when it failed as
  /// unexpected.
  std::int64_t observe(std::int64_t window_end_us, std::uint64_t records_seen,
                       bool subscription_dropped);
  void end_pass();
  std::uint64_t expected() const { return expected_; }
  std::uint64_t failed() const { return failed_; }

 private:
  const Reference& reference_;
  std::vector<std::uint32_t> reported_;
  std::uint64_t expected_ = 0;
  std::uint64_t failed_ = 0;
};

/// The queries the workload registers (identical in every run mode).
streamapprox::core::QuerySet workload_queries(const Workload& workload);
/// The query attached with a subscription on fan-out workloads.
std::unique_ptr<streamapprox::core::QuerySink> subscription_query();
/// The facade configuration of the workload.
streamapprox::core::StreamApproxConfig facade_config(const Workload& workload,
                                                     std::uint64_t seed);

// ---- measurement helpers ---------------------------------------------------

std::int64_t now_ns();
double process_cpu_s();
double thread_cpu_s();
double peak_rss_mb();
double median(std::vector<double> values);
/// Nearest-rank percentile (0 when empty).
double percentile(std::vector<double> values, double p);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark process reports.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run is invalid for a reason other than a failed window
  /// (the paced generator fell behind its schedule).
  bool valid = true;
};

/// The end-to-end metrics through the public facade, tracing off.
Outcome run_end_to_end(const Workload& workload,
                       const std::vector<Record>& records,
                       const Reference& reference, double seconds);

/// The per-layer metrics: facade counts, the traced composition, the
/// stage-attribution ladder and the tracing overhead. Spans of the last
/// traced pass are written to `trace_path`.
Outcome run_traced(const Workload& workload,
                   const std::vector<Record>& records,
                   const Reference& reference, const std::string& trace_path);

// ---- facade passes (facade.cpp), shared with the traced run's counts -------

/// One facade run() and what the benchmark observed of it.
struct FacadePass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double accuracy_loss_pct = 0.0;
  /// records_sampled / records_seen over the pass's windows.
  double sampled_share = 0.0;
  std::vector<double> latency_ms;  ///< paced passes: one per reported window
  std::uint64_t subscription_dropped = 0;
  /// Paced passes only: the generator's worst and 99th-percentile lateness
  /// of a send against its schedule.
  double generator_lag_ms = 0.0;
  double generator_lag_p99_ms = 0.0;
  streamapprox::core::ShardedRunStats stats;
};

/// Topic creation, preload (Producer::send_batch + finish) and facade
/// construction; `seconds` receives the time it took. Returns the broker
/// holding the sealed topic.
std::unique_ptr<streamapprox::ingest::Broker> sealed_setup(
    const Workload& workload, const std::vector<Record>& records,
    double& seconds);

/// One warm run() of a facade seeded with `seed` over the sealed topic.
FacadePass saturation_pass(const Workload& workload,
                           streamapprox::ingest::Broker& broker,
                           std::uint64_t seed, const Reference& reference,
                           WindowCheck& check);

/// One open-loop run: a generator thread appends `records` to a fresh live
/// topic at their event times (paced to wall time) while run() consumes it.
FacadePass paced_pass(const Workload& workload,
                      const std::vector<Record>& records, std::uint64_t seed,
                      const Reference& reference, WindowCheck& check);

/// False when the paced generator fell behind its schedule: more than 1% of
/// its sends were over one slide late. Such a run is invalid.
bool generator_kept_schedule(const Workload& workload, const FacadePass& pass);

}  // namespace perfbench
