#ifndef MLPROV_BENCH_REPORT_COMMON_H_
#define MLPROV_BENCH_REPORT_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/failpoints.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/graphlet_analysis.h"
#include "obs/flight_recorder.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "simulator/corpus_generator.h"

namespace mlprov::bench {

/// Shared setup for the per-figure report harnesses: parses the standard
/// flags (--pipelines=, --seed=, --horizon_days=), generates the corpus,
/// and reports wall-clock timings. Every report binary prints "paper"
/// reference values next to the values measured on the simulated corpus;
/// absolute agreement is not expected (the substrate is a simulator), the
/// reproduced quantity is the *shape* (see EXPERIMENTS.md).
///
/// Observability flags handled here for every report binary:
///   --trace_out=FILE   enable obs tracing and write a Chrome trace-event
///                      JSON file (open in chrome://tracing or Perfetto)
///   --report_dir=DIR   where BENCH_<name>.json lands (default ".")
///   --no_report        skip writing the machine-readable report
///   --threads=N        parallelism for corpus generation and analysis
///                      (default: hardware concurrency; 1 = sequential)
///   --measure_speedup  also generate the corpus once at --threads=1 and
///                      record wall-clock speedup in the report
///
/// Failure-semantics flags (see DESIGN.md "Failure semantics"):
///   --fault_plan=SPEC  arm deterministic fault injection, e.g.
///                      "exec.trainer:transient:0.05,exec.pusher:persistent:0.01"
///   --max_retries=N    orchestrator retry budget per operator invocation
///
/// Execution-memoization flags (see DESIGN.md "Execution memoization"):
///   --cache_policy=P   off (default) | lru | unbounded
///   --cache_capacity=N per-pipeline LRU entry bound (only under lru)
///
/// Dies with exit code 2 on a present-but-malformed integer flag; the
/// bench binaries prefer a loud early exit over a silently ignored typo.
inline int64_t IntFlagOrDie(const common::Flags& flags,
                            const std::string& name, int64_t def) {
  const common::StatusOr<int64_t> value = flags.GetIntStrict(name, def);
  if (!value.ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
    std::exit(2);
  }
  return *value;
}

/// Every flag the bench mains understand, parsed and validated in one
/// place (integers via Flags::GetIntStrict, enums via their parsers).
/// ReportContext consumes this; binaries read their extras (e.g. --trees)
/// from here instead of re-parsing ctx.flags ad hoc.
struct Options {
  sim::CorpusConfig config;
  /// Resolved global thread count (--threads=, default: hardware).
  int threads = 1;
  bool measure_speedup = false;
  std::string trace_out;
  std::string report_dir = ".";
  bool write_report = true;
  /// Forest size for the classifier/tradeoff benches (--trees=).
  int trees = 50;
  /// Streaming-ingestion flags (bench_stream_ingest):
  ///   --stream_seal_grace_hours=H  watermark grace before sealing
  ///   --stream_policy=V            input | input_pre | input_pre_trainer
  ///   --stream_naive_pipelines=N   cap for the naive re-segmentation
  ///                                baseline (it is quadratic)
  double stream_seal_grace_hours = 48.0;
  std::string stream_policy = "input";
  int stream_naive_pipelines = 12;
  /// Observability-plane flags (every report binary):
  ///   --metrics_timeline=FILE  arm the PeriodicSampler and write the
  ///                            JSON metrics time-series there
  ///   --metrics_interval=N     records between timeline samples
  ///   --flight_recorder=DIR    where flight_<session>.json post-mortems
  ///                            land (also installs the crash handler)
  std::string metrics_timeline;
  int64_t metrics_interval = 4096;
  std::string flight_recorder;
  /// Durability flags (bench_stream_ingest, bench_recovery — see
  /// DESIGN.md "Durability & recovery"):
  ///   --wal_dir=DIR             arm the durable-ingest phase; each
  ///                             pipeline journals into DIR/p<id>/
  ///   --wal_sync=P              none | interval | every
  ///   --checkpoint_interval=N   records between checkpoints (0 = never)
  ///   --max_session_restarts=N  supervisor restart budget
  ///   --crash_after_records=N   SIGKILL the process after N durable
  ///                             ingests (crash-recovery smoke; 0 = off)
  std::string wal_dir;
  std::string wal_sync = "interval";
  int64_t checkpoint_interval = 256;
  int max_session_restarts = 3;
  int64_t crash_after_records = 0;
  /// Sharded-service flag (bench_stream_ingest — see DESIGN.md
  /// "Sharded provenance service"):
  ///   --shards=N                arm the sharded phase at N shards and
  ///                             sweep thread counts (0 = off)
  int shards = 0;

  static Options Parse(const common::Flags& flags,
                       int default_pipelines = 600) {
    Options options;
    options.config.num_pipelines = static_cast<int>(
        IntFlagOrDie(flags, "pipelines", default_pipelines));
    options.config.seed =
        static_cast<uint64_t>(IntFlagOrDie(flags, "seed", 42));
    options.config.horizon_days = flags.GetDouble("horizon_days", 130.0);
    if (const std::string plan_text = flags.GetString("fault_plan", "");
        !plan_text.empty()) {
      common::StatusOr<common::FaultPlan> plan =
          common::FaultPlan::Parse(plan_text);
      if (!plan.ok()) {
        std::fprintf(stderr, "error: --fault_plan: %s\n",
                     plan.status().ToString().c_str());
        std::exit(2);
      }
      options.config.fault_plan = std::move(*plan);
    }
    options.config.max_retries = static_cast<int>(IntFlagOrDie(
        flags, "max_retries", options.config.max_retries));
    {
      const common::StatusOr<sim::CachePolicy> policy =
          sim::ParseCachePolicy(flags.GetString("cache_policy", "off"));
      if (!policy.ok()) {
        std::fprintf(stderr, "error: --cache_policy: %s\n",
                     policy.status().ToString().c_str());
        std::exit(2);
      }
      options.config.cache_policy = *policy;
    }
    options.config.cache_capacity = static_cast<int>(IntFlagOrDie(
        flags, "cache_capacity", options.config.cache_capacity));
    options.trace_out = flags.GetString("trace_out", "");
    options.report_dir = flags.GetString("report_dir", ".");
    options.write_report = !flags.GetBool("no_report", false);
    const common::StatusOr<int> threads = common::ThreadsFromFlags(flags);
    if (!threads.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   threads.status().ToString().c_str());
      std::exit(2);
    }
    options.threads = *threads;
    options.measure_speedup = flags.GetBool("measure_speedup", false);
    options.trees = static_cast<int>(IntFlagOrDie(flags, "trees", 50));
    options.stream_seal_grace_hours =
        flags.GetDouble("stream_seal_grace_hours", 48.0);
    options.stream_policy = flags.GetString("stream_policy", "input");
    options.stream_naive_pipelines = static_cast<int>(
        IntFlagOrDie(flags, "stream_naive_pipelines", 12));
    options.metrics_timeline = flags.GetString("metrics_timeline", "");
    options.metrics_interval =
        IntFlagOrDie(flags, "metrics_interval", 4096);
    options.flight_recorder = flags.GetString("flight_recorder", "");
    options.wal_dir = flags.GetString("wal_dir", "");
    options.wal_sync = flags.GetString("wal_sync", "interval");
    options.checkpoint_interval =
        IntFlagOrDie(flags, "checkpoint_interval", 256);
    options.max_session_restarts = static_cast<int>(
        IntFlagOrDie(flags, "max_session_restarts", 3));
    options.crash_after_records =
        IntFlagOrDie(flags, "crash_after_records", 0);
    options.shards = static_cast<int>(IntFlagOrDie(flags, "shards", 0));
    return options;
  }
};

/// The destructor writes `BENCH_<name>.json` containing the corpus shape,
/// wall times, whatever key values the binary recorded via
/// `ctx.report.Set(...)`, and a snapshot of the obs metrics registry.
struct ReportContext {
  common::Flags flags;
  Options options;
  /// Alias of options.config (legacy name most binaries use).
  sim::CorpusConfig config;
  sim::Corpus corpus;
  double generation_seconds = 0.0;
  obs::BenchReport report;

  ReportContext(int argc, char** argv, const char* title,
                int default_pipelines = 600)
      : flags(argc, argv),
        options(Options::Parse(flags, default_pipelines)),
        config(options.config),
        report(obs::BenchReport::NameFromArgv0(argc > 0 ? argv[0] : "")) {
    report.SetCommandLine(argc, argv);
    trace_out_ = options.trace_out;
    report_dir_ = options.report_dir;
    write_report_ = options.write_report;
    common::SetGlobalThreads(options.threads);
    const int threads = options.threads;
    const bool measure_speedup = options.measure_speedup;
    if (!trace_out_.empty()) {
      obs::TraceRecorder::Global().Enable();
    }
    metrics_timeline_ = options.metrics_timeline;
    if (!metrics_timeline_.empty()) {
      obs::PeriodicSampler::Options sampler;
      sampler.interval_records = static_cast<uint64_t>(
          options.metrics_interval > 0 ? options.metrics_interval : 1);
      sampler.flush_path = metrics_timeline_;
      obs::PeriodicSampler::Global().Enable(sampler);
    }
    if (!options.flight_recorder.empty()) {
      obs::SetFlightRecorderDir(options.flight_recorder);
      obs::FlightRecorder::InstallCrashHandler();
    }
    std::printf("=== %s ===\n", title);
    std::printf(
        "corpus: %d pipelines, seed %llu, horizon %.0f days, "
        "%d thread(s)\n",
        config.num_pipelines,
        static_cast<unsigned long long>(config.seed), config.horizon_days,
        threads);
    if (!config.fault_plan.empty()) {
      std::printf("fault plan: %s (max %d retries)\n",
                  config.fault_plan.ToString().c_str(),
                  config.max_retries);
    }
    if (config.cache_policy != sim::CachePolicy::kOff) {
      std::printf("execution cache: %s (capacity %d)\n",
                  sim::ToString(config.cache_policy),
                  config.cache_capacity);
    }
    double sequential_seconds = 0.0;
    if (measure_speedup && threads > 1) {
      // The derived per-pipeline RNG streams make the corpus identical at
      // any thread count, so a throwaway single-thread run is a valid
      // baseline for the same corpus.
      common::SetGlobalThreads(1);
      const obs::Stopwatch seq;
      const sim::Corpus baseline = sim::GenerateCorpus(config);
      sequential_seconds = seq.Seconds();
      (void)baseline;
      common::SetGlobalThreads(threads);
    }
    const auto start = std::chrono::steady_clock::now();
    corpus = sim::GenerateCorpus(config);
    generation_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    std::printf(
        "generated %zu executions, %zu artifacts, %zu trainer runs "
        "in %.1fs\n\n",
        corpus.TotalExecutions(), corpus.TotalArtifacts(),
        corpus.TotalTrainerRuns(), generation_seconds);
    report.SetCorpus(config.num_pipelines, config.seed, config.horizon_days,
                     corpus.TotalExecutions(), corpus.TotalArtifacts(),
                     corpus.TotalTrainerRuns(), generation_seconds);
    double speedup = 0.0;
    if (sequential_seconds > 0.0 && generation_seconds > 0.0) {
      speedup = sequential_seconds / generation_seconds;
      std::printf("corpus generation speedup at %d threads: %.2fx\n\n",
                  threads, speedup);
      report.Set("corpus_gen.sequential_seconds", sequential_seconds);
    }
    report.SetParallelism(threads, speedup);
  }

  ~ReportContext() {
    for (const std::string& name : flags.Unknown()) {
      std::fprintf(stderr, "warning: unrecognized flag --%s (ignored)\n",
                   name.c_str());
    }
    report.set_wall_seconds(wall_.Seconds());
    // Failure-semantics tallies for the whole run (all zero when no
    // fault plan was armed and every trace was clean).
    auto& registry = obs::Registry::Global();
    report.SetFailureStats(
        registry.GetCounter("exec.retries")->Value(),
        registry.GetCounter("trace.quarantined")->Value(),
        registry.GetGauge("waste.failed_hours")->Value());
    // Memoization tallies (zero under --cache_policy=off); flushed into
    // the registry once per simulated pipeline.
    report.SetCacheStats(sim::ToString(config.cache_policy),
                         registry.GetCounter("cache.hits")->Value(),
                         registry.GetCounter("cache.misses")->Value(),
                         registry.GetCounter("cache.evictions")->Value(),
                         registry.GetGauge("cache.saved_hours")->Value());
    auto& sampler = obs::PeriodicSampler::Global();
    if (sampler.enabled()) {
      // One final sample so the timeline always covers the whole run
      // (and is non-empty even when fewer than --metrics_interval
      // records streamed — or none, in MLPROV_OBS_NOOP builds).
      sampler.SampleNow("final");
      report.SetTimeline(sampler.ToJson());
      if (!metrics_timeline_.empty()) {
        const auto status = sampler.WriteTo(metrics_timeline_);
        if (status.ok()) {
          std::printf("wrote %s (%zu timeline samples)\n",
                      metrics_timeline_.c_str(), sampler.NumSamples());
        } else {
          std::fprintf(stderr, "warning: %s\n",
                       status.ToString().c_str());
        }
      }
    }
    if (write_report_) {
      const auto status = report.WriteTo(report_dir_);
      if (status.ok()) {
        std::printf("wrote %s/%s\n", report_dir_.c_str(),
                    report.FileName().c_str());
      } else {
        std::fprintf(stderr, "warning: %s\n",
                     status.ToString().c_str());
      }
    }
    if (!trace_out_.empty()) {
      const auto status =
          obs::TraceRecorder::Global().WriteTo(trace_out_);
      if (status.ok()) {
        std::printf("wrote %s (%zu trace events)\n", trace_out_.c_str(),
                    obs::TraceRecorder::Global().NumEvents());
      } else {
        std::fprintf(stderr, "warning: %s\n",
                     status.ToString().c_str());
      }
    }
  }

  ReportContext(const ReportContext&) = delete;
  ReportContext& operator=(const ReportContext&) = delete;

 private:
  obs::Stopwatch wall_;
  std::string trace_out_;
  std::string metrics_timeline_;
  std::string report_dir_;
  bool write_report_ = true;
};

/// Renders a distribution row: mean / median / p90 / p99 / max.
inline std::vector<std::string> DistRow(const std::string& name,
                                        const std::vector<double>& values) {
  using common::Quantile;
  using T = common::TextTable;
  return {name,
          T::Num(common::Mean(values), 2),
          T::Num(common::Quantile(values, 0.5), 2),
          T::Num(Quantile(values, 0.9), 2),
          T::Num(Quantile(values, 0.99), 2),
          T::Num(Quantile(values, 1.0), 2)};
}

}  // namespace mlprov::bench

#endif  // MLPROV_BENCH_REPORT_COMMON_H_
