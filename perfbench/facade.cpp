// End-to-end runs through the public facade, tracing off: warm run()s over a
// sealed, preloaded topic (closed loop, batch-job form) or open-loop runs fed
// by a paced generator thread. Every reported window is checked against the
// benchmark's own exact reference.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "ingest/broker.h"
#include "perfbench.h"

namespace perfbench {
namespace core = streamapprox::core;
namespace ingest = streamapprox::ingest;

namespace {

constexpr int kWarmupPasses = 2;
constexpr int kMinSaturationPasses = 5;
constexpr int kMinPacedPasses = 2;
/// Generator wake-up period of the paced workload: records due within one
/// tick are appended together.
constexpr std::int64_t kTickNs = 100'000;

/// Observes the facade's window callback: checks each window, accumulates
/// the per-stratum SUM accuracy loss and, on paced runs, times each window
/// from its due time.
class WindowObserver {
 public:
  WindowObserver(const Reference& reference, WindowCheck& check,
                 std::shared_ptr<core::QuerySubscription> subscription)
      : reference_(reference),
        check_(check),
        subscription_(std::move(subscription)) {}

  /// Paced runs: a window is due when its last record was due, and the
  /// schedule starts at `start_ns`.
  void time_from_due(std::int64_t start_ns) {
    start_ns_ = start_ns;
    timed_ = true;
  }

  void operator()(const core::WindowOutput& output) {
    const std::int64_t now = now_ns();
    if (subscription_) {
      drained_.clear();
      subscription_->poll_n(drained_, kSubscriptionCapacity);
    }
    const bool dropped = subscription_ && subscription_->dropped() > 0;
    const std::int64_t index = check_.observe(
        output.estimate.window_end_us, output.records_seen, dropped);
    if (index < 0) return;
    const auto w = static_cast<std::size_t>(index);
    if (timed_) {
      const std::int64_t due =
          start_ns_ + reference_.window_last_event_us(w) * 1000;
      latency_ms_.push_back(static_cast<double>(now - due) * 1e-6);
    }
    sampled_ += output.records_sampled;
    seen_ += output.records_seen;
    for (const auto& query : output.queries) {
      if (query.name != kSumQuery) continue;
      for (const auto& [stratum, result] : query.estimate.groups) {
        if (stratum >= reference_.strata()) continue;
        const double exact = reference_.window_sum(w, stratum);
        if (reference_.window_stratum_count(w, stratum) == 0) continue;
        loss_sum_ += std::abs(result.estimate - exact) / std::abs(exact);
        ++groups_;
      }
      // Strata present in the data but missing from the estimate count as
      // a full miss.
      std::size_t present = 0;
      for (std::size_t k = 0; k < reference_.strata(); ++k) {
        if (reference_.window_stratum_count(w, k) > 0) ++present;
      }
      if (present > query.estimate.groups.size()) {
        const std::size_t missing = present - query.estimate.groups.size();
        loss_sum_ += static_cast<double>(missing);
        groups_ += missing;
      }
    }
  }

  void fill(FacadePass& pass) {
    if (subscription_) {
      drained_.clear();
      while (subscription_->poll_n(drained_, kSubscriptionCapacity) > 0) {
        drained_.clear();
      }
      pass.subscription_dropped = subscription_->dropped();
    }
    pass.latency_ms = std::move(latency_ms_);
    pass.accuracy_loss_pct =
        groups_ > 0 ? 100.0 * loss_sum_ / static_cast<double>(groups_) : 0.0;
    pass.sampled_share =
        seen_ > 0 ? static_cast<double>(sampled_) / static_cast<double>(seen_)
                  : 0.0;
  }

 private:
  const Reference& reference_;
  WindowCheck& check_;
  std::shared_ptr<core::QuerySubscription> subscription_;
  std::vector<core::WindowOutput> drained_;
  std::int64_t start_ns_ = 0;
  bool timed_ = false;
  std::vector<double> latency_ms_;
  double loss_sum_ = 0.0;
  std::uint64_t groups_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t seen_ = 0;
};

std::shared_ptr<core::QuerySubscription> maybe_subscribe(
    const Workload& workload, core::StreamApprox& system) {
  if (!workload.fanout) return nullptr;
  return system.attach_query(subscription_query(), kSubscriptionCapacity);
}

}  // namespace

std::unique_ptr<ingest::Broker> sealed_setup(const Workload& workload,
                                             const std::vector<Record>& records,
                                             double& seconds) {
  const std::int64_t start = now_ns();
  auto broker = std::make_unique<ingest::Broker>();
  broker->create_topic("bench", kPartitions);
  ingest::Producer producer(*broker, "bench");
  producer.send_batch(records);
  producer.finish();
  // Each pass binds its own facade (its seed differs); construction is
  // timed here, where a user would pay it.
  const core::StreamApprox system(*broker,
                                  facade_config(workload, kFacadeSeed));
  seconds = static_cast<double>(now_ns() - start) * 1e-9;
  return broker;
}

FacadePass saturation_pass(const Workload& workload, ingest::Broker& broker,
                           std::uint64_t seed, const Reference& reference,
                           WindowCheck& check) {
  core::StreamApprox system(broker, facade_config(workload, seed));
  WindowObserver observer(reference, check, maybe_subscribe(workload, system));
  check.begin_pass();
  const double cpu0 = process_cpu_s();
  const std::int64_t start = now_ns();
  system.run(std::ref(observer));
  FacadePass pass;
  pass.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  pass.cpu_s = process_cpu_s() - cpu0;
  check.end_pass();
  observer.fill(pass);
  pass.stats = system.last_run_stats();
  return pass;
}

FacadePass paced_pass(const Workload& workload,
                      const std::vector<Record>& records, std::uint64_t seed,
                      const Reference& reference, WindowCheck& check) {
  ingest::Broker broker;
  broker.create_topic("bench", kPartitions);
  core::StreamApprox system(broker, facade_config(workload, seed));
  WindowObserver observer(reference, check, maybe_subscribe(workload, system));
  check.begin_pass();

  // The schedule starts shortly after the generator thread does, so its
  // first records are not late by the thread start-up.
  const std::int64_t t0 = now_ns() + 2'000'000;
  observer.time_from_due(t0);
  double generator_cpu_s = 0.0;
  std::vector<double> lag_ms;
  const double cpu0 = process_cpu_s();
  std::thread generator([&] {
    ingest::Producer producer(broker, "bench");
    std::vector<Record> chunk;
    std::size_t next = 0;
    std::int64_t wake = t0;
    while (next < records.size()) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(wake)));
      const std::int64_t now = now_ns();
      const std::int64_t due_us = (now - t0) / 1000;
      std::size_t end = next;
      while (end < records.size() && records[end].event_time_us <= due_us) {
        ++end;
      }
      if (end > next) {
        lag_ms.push_back(static_cast<double>(
                             now - (t0 + records[next].event_time_us * 1000)) *
                         1e-6);
        chunk.assign(records.begin() + static_cast<std::ptrdiff_t>(next),
                     records.begin() + static_cast<std::ptrdiff_t>(end));
        producer.send_batch(chunk);
        next = end;
      }
      // The schedule never waits for the system: the next wake-up is fixed
      // by the clock and the next record's due time only.
      wake = now + kTickNs;
      if (next < records.size()) {
        wake = std::max(wake, t0 + records[next].event_time_us * 1000);
      }
    }
    producer.finish();
    generator_cpu_s = thread_cpu_s();
  });
  system.run(std::ref(observer));
  const std::int64_t end = now_ns();
  generator.join();
  FacadePass pass;
  pass.cpu_s = process_cpu_s() - cpu0 - generator_cpu_s;
  pass.wall_s = static_cast<double>(end - t0) * 1e-9;
  pass.generator_lag_ms = percentile(lag_ms, 100.0);
  pass.generator_lag_p99_ms = percentile(lag_ms, 99.0);
  check.end_pass();
  observer.fill(pass);
  pass.stats = system.last_run_stats();
  return pass;
}

bool generator_kept_schedule(const Workload& workload, const FacadePass& pass) {
  return pass.generator_lag_p99_ms <=
         static_cast<double>(workload.window.slide_us) * 1e-3;
}

Outcome run_end_to_end(const Workload& workload,
                       const std::vector<Record>& records,
                       const Reference& reference, double seconds) {
  WindowCheck check(reference);

  // Every pass runs on a topic set up just before it, so set-up is sampled
  // over the same stretch of time as the passes. The paced workload times
  // the same preload, whose sealed topic serves its warm-up passes only.
  std::unique_ptr<ingest::Broker> broker;
  const auto setup = [&] {
    broker.reset();
    double s = 0.0;
    broker = sealed_setup(workload, records, s);
    return s;
  };
  // The footprint of a batch job: set-up plus one run(). Later passes only
  // add the allocator's history of earlier ones, which differs from run to
  // run with the threads' timing.
  double rss_mb = 0.0;
  for (int r = 0; r < kWarmupPasses; ++r) {
    setup();
    saturation_pass(workload, *broker, kFacadeSeed, reference, check);
    if (r == 0) rss_mb = peak_rss_mb();
  }

  std::vector<FacadePass> passes;
  std::vector<double> setup_s;
  const int min_passes =
      workload.paced ? kMinPacedPasses : kMinSaturationPasses;
  const std::int64_t start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  while (elapsed_s() < seconds || static_cast<int>(passes.size()) < min_passes) {
    setup_s.push_back(setup());
    const std::uint64_t seed = kFacadeSeed + passes.size();
    if (workload.paced) {
      broker.reset();
      passes.push_back(paced_pass(workload, records, seed, reference, check));
    } else {
      passes.push_back(
          saturation_pass(workload, *broker, seed, reference, check));
    }
  }

  Outcome outcome;
  const double mrec = static_cast<double>(records.size()) * 1e-6;
  std::vector<double> throughput, cpu, accuracy, sampled, p50, p95;
  double max_lag_ms = 0.0, max_lag_p99_ms = 0.0;
  std::uint64_t dropped = 0;
  for (const auto& pass : passes) {
    throughput.push_back(static_cast<double>(records.size()) / pass.wall_s);
    cpu.push_back(pass.cpu_s / mrec);
    accuracy.push_back(pass.accuracy_loss_pct);
    sampled.push_back(pass.sampled_share);
    p50.push_back(percentile(pass.latency_ms, 50.0));
    p95.push_back(percentile(pass.latency_ms, 95.0));
    max_lag_ms = std::max(max_lag_ms, pass.generator_lag_ms);
    max_lag_p99_ms = std::max(max_lag_p99_ms, pass.generator_lag_p99_ms);
    outcome.valid = outcome.valid && generator_kept_schedule(workload, pass);
    dropped += pass.subscription_dropped;
  }

  outcome.attempted = check.expected();
  outcome.failed = check.failed();
  outcome.metrics = {
      {"throughput_rps", median(throughput), "1/s"},
      {"accuracy_loss_pct", median(accuracy), "%"},
      {"cpu_s_per_mrec", median(cpu), "s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  std::printf("timed passes: %zu (+%d warm-up), each after its own set-up\n",
              passes.size(), kWarmupPasses);
  std::printf("  pass  throughput_rps  setup_s\n");
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::printf("  %4zu  %14.4g  %7.4f\n", i, throughput[i], setup_s[i]);
  }
  std::printf("sampled share of records: median %.4f (min %.4f, max %.4f; "
              "budget fraction %.2f)\n",
              median(sampled), *std::min_element(sampled.begin(), sampled.end()),
              *std::max_element(sampled.begin(), sampled.end()),
              workload.fraction);
  std::printf("failed windows: %llu of %llu expected "
              "(failed_window_share %.6f), subscription drops: %llu\n",
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted),
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 0.0,
              static_cast<unsigned long long>(dropped));
  if (workload.paced) {
    std::printf("window latency from due time: p50 %.3f ms, p95 %.3f ms "
                "(median over passes of %zu windows each)\n",
                median(p50), median(p95), reference.expected_windows());
    std::printf("generator: %.0f rec/s fixed, lag max %.3f ms, p99 %.3f ms "
                "(valid while p99 <= one slide)\n",
                workload.rate_per_s, max_lag_ms, max_lag_p99_ms);
  }
  return outcome;
}

}  // namespace perfbench
