// The traced run: per-layer attribution from outside the library. The
// benchmark composes the facade's stages itself out of each layer's public
// calls (Consumer::poll, Exchange::run/pop_n/recycle, OasrsSampler,
// SlideSketches, PipelineDriver, QuerySink, QuerySubscription) and records
// one span per batch or per slide around each call — never per record, and
// nothing inside src/. Counts that exist only inside the facade (steals,
// routed runs, probes, watermark lag) come from last_run_stats() of
// untraced facade runs. The same composition, cut after each stage, forms
// the stage-attribution ladder.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <thread>

#include "core/pipeline_driver.h"
#include "core/watermark.h"
#include "engine/record_batch.h"
#include "ingest/exchange.h"
#include "perfbench.h"

namespace perfbench {
namespace core = streamapprox::core;
namespace engine = streamapprox::engine;
namespace ingest = streamapprox::ingest;
namespace sampling = streamapprox::sampling;
namespace sketch = streamapprox::sketch;

namespace {

/// Records per Consumer::poll on the sequential front end (the facade's
/// default poll_batch) and per exchange batch (its exchange_batch_size).
constexpr std::size_t kPollBatch = 4096;
constexpr std::size_t kExchangeBatch = 1024;
/// Batches taken from one channel per drain call.
constexpr std::size_t kDrainBatches = 64;
constexpr int kRepeats = 5;

// -------------------------------------------------------------------- spans

/// In-memory spans of the benchmark thread: name, start, end, parent and the
/// slide index (-1 for per-batch spans). Written out at the end.
class Tracer {
 public:
  bool enabled = false;

  int begin(const char* name, std::int64_t slide) {
    if (!enabled) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(),
                      slide});
    open_.push_back(id);
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Adds every span's self time (its duration minus the time its child
  /// spans cover) to `self_ns` under the span's name.
  void accumulate(std::map<std::string, double>& self_ns) const {
    std::vector<std::int64_t> children(spans_.size(), 0);
    for (const auto& span : spans_) {
      if (span.parent >= 0) {
        children[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self_ns[spans_[i].name] += static_cast<double>(
          spans_[i].end_ns - spans_[i].start_ns - children[i]);
    }
  }

  void clear() {
    spans_.clear();
    open_.clear();
  }

  void write(const std::string& path) const {
    std::error_code ignored;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ignored);
    std::ofstream out(path);
    out << "id\tname\tstart_ns\tend_ns\tparent\tslide\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
          << '\t' << s.parent << '\t' << s.slide << '\n';
    }
    if (!out) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t slide;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::int64_t slide = -1)
      : tracer_(tracer), id_(tracer.begin(name, slide)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Times a registered query from outside: forwards every QuerySink call to
/// the wrapped sink inside a span named after the sink's kind.
class TimedSink final : public core::QuerySink {
 public:
  TimedSink(std::unique_ptr<core::QuerySink> inner, const char* span,
            Tracer& tracer)
      : QuerySink(inner->name()),
        inner_(std::move(inner)),
        span_(span),
        tracer_(tracer) {}

  void bind(const engine::WindowConfig& window, double default_z) override {
    QuerySink::bind(window, default_z);
    inner_->bind(window, default_z);
  }
  void on_slide(const std::vector<streamapprox::estimation::StratumSummary>&
                    cells,
                const sampling::StratifiedSample<Record>* sample,
                const sketch::SlideSketches* sketches) override {
    SpanScope span(tracer_, span_);
    inner_->on_slide(cells, sample, sketches);
  }
  core::QueryOutput evaluate(const engine::WindowResult& window) override {
    SpanScope span(tracer_, span_);
    return inner_->evaluate(window);
  }
  std::optional<double> accuracy_target(
      std::optional<double> fallback) const override {
    return inner_->accuracy_target(fallback);
  }
  std::unique_ptr<core::QuerySink> clone() const override {
    return std::make_unique<TimedSink>(inner_->clone(), span_, tracer_);
  }
  sketch::SketchSpec* mutable_sketch_spec() override {
    return inner_->mutable_sketch_spec();
  }

 private:
  std::unique_ptr<core::QuerySink> inner_;
  const char* span_;
  Tracer& tracer_;
};

const char* query_span(const core::QuerySink& sink) {
  if (const auto* aggregate = dynamic_cast<const core::AggregateSink*>(&sink)) {
    return aggregate->spec().per_stratum ? "query.per_stratum"
                                         : "query.aggregate";
  }
  if (dynamic_cast<const core::HistogramSink*>(&sink) != nullptr) {
    return "query.histogram";
  }
  return "query.sketch";
}

std::unique_ptr<core::QuerySink> timed(std::unique_ptr<core::QuerySink> sink,
                                       Tracer& tracer) {
  const char* span = query_span(*sink);
  return std::make_unique<TimedSink>(std::move(sink), span, tracer);
}

// -------------------------------------------------------------- composition

/// The ladder: each stage adds one layer's work to the one before.
enum class Stage {
  kPoll,
  kExchange,
  kSample,
  kSketch,
  kClose,
  kQueries,
  kSubscriptions
};
constexpr const char* kStageNames[] = {"poll",  "exchange", "sample",
                                       "sketch", "close",   "queries",
                                       "subscriptions"};

struct PassStats {
  double wall_s = 0.0;
  std::uint64_t polls = 0;
  std::uint64_t drain_rounds = 0;
  std::uint64_t idle_rounds = 0;
  double exchange_cpu_s = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t subscription_dropped = 0;
};

/// What every composition pass shares: the sealed topic and the workload.
struct Composition {
  const Workload& workload;
  ingest::Broker& broker;
  /// Fixed per-slide sample budget (fraction x mean records per slide), so
  /// that every ladder stage samples exactly as much.
  std::size_t slide_budget;
};

core::PipelineDriverConfig driver_config(const Workload& workload,
                                         Tracer& tracer, bool evaluate) {
  core::PipelineDriverConfig config;
  for (auto& sink : workload_queries(workload).clone_sinks()) {
    config.queries.add(timed(std::move(sink), tracer));
  }
  config.budget =
      streamapprox::estimation::QueryBudget::fraction(workload.fraction);
  config.window = workload.window;
  config.seed = kFacadeSeed;
  config.evaluate = evaluate;
  return config;
}

/// The facade's sequential front end (StreamApprox::run_sequential): one
/// consumer polls every partition, and per-partition high-water clocks give
/// the low-watermark. `on_batch` receives each poll's records, `on_view`
/// each watermark evaluation; returns after the sealed topic is drained.
template <typename OnBatch, typename OnView>
void poll_sequential(ingest::Broker& broker, Tracer& tracer, PassStats& stats,
                     OnBatch&& on_batch, OnView&& on_view) {
  ingest::Consumer consumer(broker, "bench");
  auto& topic = broker.topic("bench");
  std::vector<std::int64_t> clocks(topic.partition_count(), core::kNoClock);
  std::vector<Record> records;
  records.reserve(kPollBatch);
  for (;;) {
    {
      SpanScope span(tracer, "broker.poll");
      consumer.poll(records, kPollBatch, /*timeout_ms=*/50);
    }
    ++stats.polls;
    for (const auto& record : records) {
      auto& clock = clocks[topic.partition_for_key(record.stratum)];
      clock = std::max(clock, record.event_time_us);
    }
    on_batch(records);
    for (std::size_t slot = 0; slot < consumer.assignment().size(); ++slot) {
      if (consumer.partition_exhausted(slot)) {
        clocks[consumer.assignment()[slot]] = core::kPartitionDrained;
      }
    }
    on_view(core::evaluate_watermark(clocks, false));
    if (records.empty() && consumer.exhausted()) break;
  }
}

/// The facade's sharded data plane rebuilt from public calls, cut after
/// `top`: an exchange thread whose channels this thread drains, per-channel
/// per-slide samplers and sketches, and a watermark-gated slide close that
/// merges them into a PipelineDriver.
class Pipeline {
 public:
  Pipeline(const Composition& composition, Stage top, Tracer& tracer,
           WindowCheck& check, PassStats& stats)
      : c_(composition),
        top_(top),
        tracer_(tracer),
        check_(check),
        stats_(stats),
        channels_(composition.workload.workers),
        slide_us_(composition.workload.window.slide_us),
        open_(channels_) {
    const bool evaluate = top >= Stage::kQueries;
    core::PipelineDriver::WindowFn raw;
    if (!evaluate) {
      raw = [this](engine::WindowResult window) {
        std::uint64_t seen = 0;
        for (const auto& cell : window.cells) seen += cell.seen;
        check_.observe(window.window_end_us, seen, false);
        ++stats_.windows;
      };
    }
    driver_ = std::make_unique<core::PipelineDriver>(
        driver_config(c_.workload, tracer, evaluate),
        [this](const core::WindowOutput& output) { on_output(output); },
        std::move(raw));
    if (top >= Stage::kSubscriptions && c_.workload.fanout) {
      subscription_ = driver_->attach_query(
          timed(subscription_query(), tracer), kSubscriptionCapacity);
    }
    // A raw-window driver registers no queries, so below the query stage
    // the sketch plan comes from a throwaway driver that does.
    plan_ = evaluate ? driver_->sketch_plan()
                     : core::PipelineDriver(
                           driver_config(c_.workload, tracer, true), nullptr)
                           .sketch_plan();
    with_sketches_ = top >= Stage::kSketch && !plan_->specs.empty();
  }

  /// Exchange::run on its own thread; this thread drains every channel,
  /// tracking each channel's forwarded watermark.
  void drive_exchange() {
    ingest::ExchangeConfig config;
    config.workers = channels_;
    config.batch_size = kExchangeBatch;
    ingest::Exchange exchange(c_.broker, "bench", config);
    double exchange_cpu_s = 0.0;
    std::thread router([&] {
      const double cpu0 = thread_cpu_s();
      exchange.run();
      exchange_cpu_s = thread_cpu_s() - cpu0;
    });
    std::vector<std::int64_t> clocks(channels_, engine::kNoWatermark);
    std::vector<ingest::Exchange::BatchPtr> inbox;
    for (;;) {
      bool any = false;
      for (std::size_t ch = 0; ch < channels_; ++ch) {
        inbox.clear();
        {
          SpanScope span(tracer_, "exchange.drain");
          exchange.pop_n(ch, inbox, kDrainBatches);
        }
        for (auto& batch : inbox) {
          any = true;
          if (top_ >= Stage::kSample && !batch->heartbeat && !batch->empty()) {
            deliver(ch, batch->records.data(), batch->size(),
                    batch->stratum_runs.data(), batch->stratum_runs.size(),
                    batch->route_strata, batch->total_strata);
          }
          clocks[ch] = batch->watermark_us;
          exchange.recycle(std::move(batch));
        }
      }
      ++stats_.drain_rounds;
      const std::int64_t low = *std::min_element(clocks.begin(), clocks.end());
      if (top_ >= Stage::kSample && low != engine::kNoWatermark) {
        close_ripe(low == engine::kWatermarkFlush, low);
      }
      if (!any) {
        ++stats_.idle_rounds;
        bool drained = true;
        for (std::size_t ch = 0; ch < channels_; ++ch) {
          drained = drained && exchange.drained(ch);
        }
        if (drained) break;
        std::this_thread::yield();
      }
    }
    router.join();
    stats_.exchange_cpu_s = exchange_cpu_s;
    finish();
  }

 private:
  struct ChannelSlide {
    core::PipelineDriver::Sampler sampler;
    sketch::SlideSketches sketches;
    ChannelSlide(const sampling::OasrsConfig& config,
                 const sketch::SketchPlan& plan)
        : sampler(config, engine::RecordStratum{}), sketches(plan) {}
  };

  std::size_t budget_share(std::size_t my, std::size_t total) const {
    const std::size_t share = total > 0 ? c_.slide_budget * my / total
                                        : c_.slide_budget / channels_;
    return std::max<std::size_t>(1, share);
  }

  ChannelSlide& open_slide(std::size_t ch, std::int64_t slide, std::size_t my,
                           std::size_t total) {
    auto it = open_[ch].find(slide);
    if (it == open_[ch].end()) {
      auto config = driver_->slide_sampler_config(slide, ch, channels_, my,
                                                  total);
      config.total_budget = budget_share(my, total);
      it = open_[ch].try_emplace(slide, config, *plan_).first;
    }
    return it->second;
  }

  /// One batch into channel `ch`'s per-slide state: sketches absorb the
  /// full stream, samplers take one bulk offer per exchange stratum run.
  void deliver(std::size_t ch, const Record* records, std::size_t count,
               const engine::StratumRun* runs, std::size_t run_count,
               std::size_t my, std::size_t total) {
    if (with_sketches_) {
      SpanScope span(tracer_, "sketch.absorb");
      engine::for_each_slide_run(
          records, count, slide_us_,
          [&](std::int64_t slide, const Record* run, std::size_t n) {
            if (slide < closed_through_) return;
            open_slide(ch, slide, my, total).sketches.absorb(run, n);
          });
    }
    SpanScope span(tracer_, "sampling.offer");
    std::size_t ri = 0;
    engine::for_each_slide_run(
        records, count, slide_us_,
        [&](std::int64_t slide, const Record* run, std::size_t n) {
          if (slide < closed_through_) return;
          auto& sampler = open_slide(ch, slide, my, total).sampler;
          const auto begin = static_cast<std::size_t>(run - records);
          const std::size_t end = begin + n;
          while (ri < run_count && runs[ri].offset + runs[ri].length <= begin) {
            ++ri;
          }
          std::size_t pos = begin;
          while (pos < end) {
            const std::size_t run_end = runs[ri].offset + runs[ri].length;
            const std::size_t take = std::min(run_end, end) - pos;
            sampler.offer_run(runs[ri].stratum, records + pos, take);
            pos += take;
            if (run_end <= pos) ++ri;
          }
        });
  }

  /// Closes open slides in order while the watermark has passed their end
  /// (every open slide when `flush`).
  void close_ripe(bool flush, std::int64_t watermark) {
    for (;;) {
      std::int64_t next = std::numeric_limits<std::int64_t>::max();
      for (const auto& slides : open_) {
        if (!slides.empty()) next = std::min(next, slides.begin()->first);
      }
      if (next == std::numeric_limits<std::int64_t>::max()) return;
      if (!flush && (next + 1) * slide_us_ > watermark) return;
      close(next);
    }
  }

  void close(std::int64_t slide) {
    closed_through_ = slide + 1;
    std::vector<std::map<std::int64_t, ChannelSlide>::node_type> parts;
    for (auto& slides : open_) parts.push_back(slides.extract(slide));
    if (top_ < Stage::kClose) return;
    SpanScope slide_span(tracer_, "driver.slide", slide);
    auto config = driver_->slide_sampler_config(slide);
    config.total_budget = c_.slide_budget;
    core::PipelineDriver::Sampler merged(config, engine::RecordStratum{});
    {
      SpanScope span(tracer_, "sampling.merge", slide);
      for (auto& part : parts) {
        if (part) merged.merge(part.mapped().sampler);
      }
    }
    sketch::SlideSketches sketches;
    if (with_sketches_) {
      SpanScope span(tracer_, "sketch.merge", slide);
      for (auto& part : parts) {
        if (part) sketches.merge(part.mapped().sketches);
      }
    }
    sampling::StratifiedSample<Record> sample;
    {
      SpanScope span(tracer_, "sampling.take", slide);
      sample = merged.take();
    }
    SpanScope span(tracer_, "driver.close", slide);
    driver_->close_slide_sample(slide, std::move(sample), std::move(sketches));
  }

  void finish() {
    if (top_ >= Stage::kSample) close_ripe(true, 0);
    driver_->finish();
    if (subscription_) stats_.subscription_dropped = subscription_->dropped();
  }

  void on_output(const core::WindowOutput& output) {
    bool dropped = false;
    if (subscription_) {
      SpanScope span(tracer_, "subscription.drain");
      drained_.clear();
      subscription_->poll_n(drained_, kSubscriptionCapacity);
      dropped = subscription_->dropped() > 0;
    }
    check_.observe(output.estimate.window_end_us, output.records_seen,
                   dropped);
    ++stats_.windows;
  }

  const Composition& c_;
  const Stage top_;
  Tracer& tracer_;
  WindowCheck& check_;
  PassStats& stats_;
  const std::size_t channels_;
  const std::int64_t slide_us_;
  std::unique_ptr<core::PipelineDriver> driver_;
  std::shared_ptr<core::QuerySubscription> subscription_;
  std::vector<core::WindowOutput> drained_;
  std::shared_ptr<const sketch::SketchPlan> plan_;
  bool with_sketches_ = false;
  std::vector<std::map<std::int64_t, ChannelSlide>> open_;
  std::int64_t closed_through_ = std::numeric_limits<std::int64_t>::min();
};

/// The sequential workload's composition: the facade's sequential loop —
/// poll, PipelineDriver::offer_batch, then advance/finish, which close slides
/// and fan windows out to the (timed) queries inside the driver. Without
/// `evaluate` the driver emits raw windows and runs no queries.
PassStats run_driver_sequential(const Composition& c, Tracer& tracer,
                                WindowCheck& check, bool evaluate) {
  PassStats stats;
  check.begin_pass();
  const std::int64_t start = now_ns();
  core::PipelineDriver::WindowFn raw;
  if (!evaluate) {
    raw = [&](engine::WindowResult window) {
      std::uint64_t seen = 0;
      for (const auto& cell : window.cells) seen += cell.seen;
      check.observe(window.window_end_us, seen, false);
      ++stats.windows;
    };
  }
  auto config = driver_config(c.workload, tracer, evaluate);
  // A raw-window driver never re-derives its budget from the fraction, so
  // it is given the budget the full driver settles on.
  if (!evaluate) config.initial_budget = c.slide_budget;
  core::PipelineDriver driver(
      std::move(config),
      [&](const core::WindowOutput& output) {
        check.observe(output.estimate.window_end_us, output.records_seen,
                      false);
        ++stats.windows;
      },
      std::move(raw));
  poll_sequential(
      c.broker, tracer, stats,
      [&](const std::vector<Record>& records) {
        SpanScope span(tracer, "driver.offer");
        driver.offer_batch(records);
      },
      [&](const core::WatermarkView& view) {
        if (view.can_close()) {
          SpanScope span(tracer, "driver.advance");
          driver.advance(view.watermark);
        } else if (view.flush_all()) {
          SpanScope span(tracer, "driver.advance");
          driver.finish();
        }
      });
  {
    SpanScope span(tracer, "driver.advance");
    driver.finish();
  }
  stats.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  check.end_pass();
  return stats;
}

/// One ladder pass cut after `top`. Beyond the poll stage the sequential
/// workload runs the facade's own sequential loop (run_driver_sequential):
/// a raw-window driver for the sample stage, which samples in offer_batch
/// and closes slides in advance, and the full driver for the query stage.
/// Window checks apply from the close stage on (sequential: from sample).
PassStats run_stage(const Composition& c, Stage top, Tracer& tracer,
                    WindowCheck& check) {
  const bool sharded = c.workload.workers > 1;
  if (!sharded && top != Stage::kPoll) {
    return run_driver_sequential(c, tracer, check, top >= Stage::kQueries);
  }
  PassStats stats;
  const std::int64_t start = now_ns();
  if (top == Stage::kPoll) {
    // The poll call each front end makes: the facade's sequential poll, or
    // the exchange's batch-out poll.
    ingest::Consumer consumer(c.broker, "bench");
    engine::RecordBatch batch;
    std::vector<Record> records;
    records.reserve(kPollBatch);
    for (;;) {
      std::size_t n = 0;
      {
        SpanScope span(tracer, "broker.poll");
        n = sharded ? consumer.poll(batch, kExchangeBatch, 50)
                    : consumer.poll(records, kPollBatch, 50);
      }
      ++stats.polls;
      if (n == 0 && consumer.exhausted()) break;
    }
  } else {
    const bool checked = top >= Stage::kClose;
    if (checked) check.begin_pass();
    Pipeline(c, top, tracer, check, stats).drive_exchange();
    if (checked) check.end_pass();
  }
  stats.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return stats;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Outcome run_traced(const Workload& workload,
                   const std::vector<Record>& records,
                   const Reference& reference,
                   const std::string& trace_path) {
  WindowCheck check(reference);
  double setup_s = 0.0;
  const auto broker = sealed_setup(workload, records, setup_s);

  // ---- Facade counts (untraced runs; last_run_stats of a warm pass).
  saturation_pass(workload, *broker, kFacadeSeed, reference, check);
  const FacadePass facade =
      workload.paced
          ? paced_pass(workload, records, kFacadeSeed, reference, check)
          : saturation_pass(workload, *broker, kFacadeSeed, reference, check);
  const auto& st = facade.stats;

  // ---- Compositions over the same sealed topic.
  const double slide_records =
      static_cast<double>(records.size()) /
      static_cast<double>(std::max<std::size_t>(1, reference.slides()));
  const Composition composition{
      workload, *broker,
      std::max<std::size_t>(
          1, static_cast<std::size_t>(workload.fraction * slide_records))};
  const bool sharded = workload.workers > 1;
  const Stage top = workload.fanout ? Stage::kSubscriptions : Stage::kQueries;
  // The sequential driver closes slides inside advance, so its sample stage
  // includes the close.
  std::vector<Stage> ladder = {Stage::kPoll};
  if (sharded) ladder.push_back(Stage::kExchange);
  ladder.push_back(Stage::kSample);
  if (workload.fanout) ladder.push_back(Stage::kSketch);
  if (sharded) ladder.push_back(Stage::kClose);
  ladder.push_back(Stage::kQueries);
  if (workload.fanout) ladder.push_back(Stage::kSubscriptions);

  Tracer tracer;
  const auto traced_pass = [&]() {
    return run_stage(composition, top, tracer, check);
  };
  traced_pass();  // warm-up

  std::map<Stage, std::vector<double>> stage_wall;
  std::map<Stage, PassStats> stage_stats;
  std::vector<double> spans_off, spans_on;
  std::map<std::string, double> self_ns;
  PassStats traced_total;
  for (int r = 0; r < kRepeats; ++r) {
    for (const Stage stage : ladder) {
      const PassStats pass = run_stage(composition, stage, tracer, check);
      stage_wall[stage].push_back(pass.wall_s);
      stage_stats[stage] = pass;
    }
    spans_off.push_back(traced_pass().wall_s);
    tracer.enabled = true;
    tracer.clear();
    const PassStats pass = traced_pass();
    tracer.enabled = false;
    spans_on.push_back(pass.wall_s);
    tracer.accumulate(self_ns);
    traced_total.windows += pass.windows;
    traced_total.drain_rounds += pass.drain_rounds;
    traced_total.idle_rounds += pass.idle_rounds;
    traced_total.exchange_cpu_s += pass.exchange_cpu_s;
    traced_total.subscription_dropped += pass.subscription_dropped;
  }
  tracer.write(trace_path);

  // ---- Per-layer metrics.
  const double recs = static_cast<double>(records.size()) * kRepeats;
  const double slides = static_cast<double>(reference.slides()) * kRepeats;
  const double windows = static_cast<double>(traced_total.windows);
  const auto self = [&](const char* name) {
    const auto it = self_ns.find(name);
    return it == self_ns.end() ? 0.0 : it->second;
  };
  const auto per_rec_ns = [&](const char* name) { return self(name) / recs; };
  const auto per_slide_us = [&](const char* name) {
    return self(name) / slides * 1e-3;
  };
  const auto per_window_us = [&](const char* name) {
    return ratio(self(name), windows) * 1e-3;
  };

  const PassStats& poll = stage_stats[Stage::kPoll];
  const double poll_ns = median(stage_wall[Stage::kPoll]) * 1e9 /
                         static_cast<double>(records.size());
  std::vector<double> lag_ms;
  for (const std::int64_t us : st.watermark_lag_us) {
    lag_ms.push_back(static_cast<double>(us) * 1e-3);
  }
  double imbalance = 0.0;
  if (!st.per_worker_records.empty()) {
    double sum = 0.0, max = 0.0;
    for (const auto n : st.per_worker_records) {
      sum += static_cast<double>(n);
      max = std::max(max, static_cast<double>(n));
    }
    imbalance = ratio(max, sum / static_cast<double>(st.per_worker_records.size()));
  }

  Outcome outcome;
  auto& m = outcome.metrics;
  m.push_back({"broker.poll_ns_per_rec", poll_ns, "ns"});
  m.push_back({"broker.recs_per_poll",
               ratio(static_cast<double>(records.size()),
                     static_cast<double>(poll.polls)),
               "count"});
  m.push_back({"exchange.route_ns_per_rec",
               traced_total.exchange_cpu_s * 1e9 / recs, "ns"});
  m.push_back({"exchange.recs_per_run",
               ratio(static_cast<double>(st.exchange_records_routed),
                     static_cast<double>(st.exchange_runs_walked)),
               "count"});
  m.push_back({"exchange.probes_per_run",
               ratio(static_cast<double>(st.exchange_table_probes),
                     static_cast<double>(st.exchange_runs_walked)),
               "count"});
  m.push_back({"exchange.reserves_per_round",
               ratio(static_cast<double>(st.exchange_scatter_reserves),
                     static_cast<double>(st.exchange_rounds)),
               "count"});
  m.push_back({"exchange.drain_idle_share",
               ratio(static_cast<double>(traced_total.idle_rounds),
                     static_cast<double>(traced_total.drain_rounds)),
               "share"});
  m.push_back({"exchange.heartbeats",
               static_cast<double>(st.heartbeats_absorbed), "count"});
  m.push_back({"scheduler.steal_share",
               ratio(static_cast<double>(st.steals),
                     static_cast<double>(st.batches_absorbed)),
               "share"});
  m.push_back({"scheduler.injector_share",
               ratio(static_cast<double>(st.injector_pops),
                     static_cast<double>(st.batches_absorbed)),
               "share"});
  m.push_back({"scheduler.imbalance", imbalance, "ratio"});
  m.push_back({"scheduler.watermark_lag_p50_ms", percentile(lag_ms, 50.0),
               "ms"});
  m.push_back({"scheduler.watermark_lag_p95_ms", percentile(lag_ms, 95.0),
               "ms"});
  m.push_back({"sampling.absorb_ns_per_rec", per_rec_ns("sampling.offer"),
               "ns"});
  m.push_back({"sampling.accept_ratio",
               ratio(static_cast<double>(st.sampler_accepts),
                     static_cast<double>(st.sampler_accepts +
                                         st.sampler_skipped)),
               "share"});
  m.push_back({"sampling.sampled_share", facade.sampled_share, "share"});
  m.push_back({"sampling.take_us_per_slide", per_slide_us("sampling.take"),
               "us"});
  m.push_back({"sampling.merge_us_per_slide", per_slide_us("sampling.merge"),
               "us"});
  m.push_back({"sketch.absorb_ns_per_rec", per_rec_ns("sketch.absorb"), "ns"});
  m.push_back({"sketch.merge_us_per_slide", per_slide_us("sketch.merge"),
               "us"});
  m.push_back({"driver.offer_ns_per_rec", per_rec_ns("driver.offer"), "ns"});
  m.push_back({"driver.close_us_per_slide",
               per_slide_us(sharded ? "driver.close" : "driver.advance"),
               "us"});
  m.push_back({"query.aggregate_us_per_window",
               per_window_us("query.aggregate"), "us"});
  m.push_back({"query.per_stratum_us_per_window",
               per_window_us("query.per_stratum"), "us"});
  m.push_back({"query.histogram_us_per_window",
               per_window_us("query.histogram"), "us"});
  m.push_back({"query.sketch_us_per_window", per_window_us("query.sketch"),
               "us"});
  m.push_back({"subscription.drain_us_per_window",
               per_window_us("subscription.drain"), "us"});
  m.push_back({"subscription.dropped",
               static_cast<double>(facade.subscription_dropped +
                                   traced_total.subscription_dropped),
               "count"});
  const double off = median(spans_off);
  m.push_back({"trace.overhead_pct",
               ratio(median(spans_on) - off, off) * 100.0, "%"});

  // Ladder: marginal ns/record of each stage over the stage before it, as
  // the median over rounds of the difference between back-to-back passes
  // (which cancels drift in machine speed between rounds); a stage the
  // workload does not have adds nothing.
  std::printf("stage-attribution ladder (median of %d rounds, %zu records):\n",
              kRepeats, records.size());
  const double ns_per_rec = 1e9 / static_cast<double>(records.size());
  std::map<Stage, double> marginal;
  const std::vector<double>* previous = nullptr;
  for (const Stage stage : ladder) {
    const auto& walls = stage_wall[stage];
    std::vector<double> deltas;
    for (std::size_t r = 0; r < walls.size(); ++r) {
      deltas.push_back((walls[r] - (previous ? (*previous)[r] : 0.0)) *
                       ns_per_rec);
    }
    marginal[stage] = median(deltas);
    std::printf("  +%-13s %9.2f ns/rec cumulative %9.2f\n",
                kStageNames[static_cast<int>(stage)], marginal[stage],
                median(walls) * ns_per_rec);
    previous = &walls;
  }
  for (int s = 0; s <= static_cast<int>(Stage::kSubscriptions); ++s) {
    m.push_back({std::string("ladder.") + kStageNames[s] + "_ns_per_rec",
                 marginal[static_cast<Stage>(s)], "ns"});
  }

  std::printf("traced composition: %s, %d passes spans off %.4f s, on %.4f s\n",
              sharded ? "exchange + bench-side samplers" : "sequential driver",
              kRepeats, off, median(spans_on));
  std::printf("failed windows: %llu of %llu expected "
              "(failed_window_share %.6f)\n",
              static_cast<unsigned long long>(check.failed()),
              static_cast<unsigned long long>(check.expected()),
              ratio(static_cast<double>(check.failed()),
                    static_cast<double>(check.expected())));
  outcome.attempted = check.expected();
  outcome.failed = check.failed();
  outcome.valid = !workload.paced || generator_kept_schedule(workload, facade);
  return outcome;
}

}  // namespace perfbench
