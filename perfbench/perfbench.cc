// The repository benchmark. One seeded corpus, three workloads
// that load different layers of the north-star path (corpus records ->
// sealed graphlets + scored decisions), correctness gates against
// independent references on every pass, and a traced mode that splits
// the cost by layer. Every layer is driven through its public API only;
// spans are recorded here, around those calls, never inside src/.
//
//   perfbench --workload=replay|fleet|durable_lineage --seed=N
//             --seconds=S --trace=0|1 [--pipelines=120] [--corrupt_reference=1]
//             [--work_dir=DIR] [--spans_out=FILE]
//
// The last stdout line is "RESULT <json>": the gate counts, every
// metric with its unit, and the host/input fingerprint. perfbench/run.py
// builds this binary and turns that line into its final JSON line.
// METRICS.md beside this file defines every metric.
#include <sys/statfs.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>  // malloc_trim
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "core/provenance_index.h"
#include "core/segmentation.h"
#include "metadata/binary_serialization.h"
#include "metadata/trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "simulator/corpus_generator.h"
#include "stream/checkpoint.h"
#include "stream/fingerprint.h"
#include "stream/online_scorer.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/shard_router.h"
#include "stream/supervisor.h"
#include "stream/wal.h"

namespace mlprov::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using metadata::ArtifactId;
using metadata::ExecutionId;

// The repository's flag defaults for the durable path and the bench
// classifier size, so the benchmark measures what users run.
constexpr uint64_t kCheckpointInterval = 256;
// The corpus: the generator defaults at 120 pipelines. Fixed, because
// corpus shape (a few huge pipelines or none) moves every metric by far
// more than any bound; --seed only orders the feed.
constexpr uint64_t kCorpusSeed = 42;
constexpr size_t kDurablePipelines = 60;
// Set-ups per untraced run, each followed by an equal share of its
// passes; setup_s is their median. A traced run sets up once.
constexpr int kSetupReps = 3;
constexpr uint64_t kQueryEvery = 128;
constexpr int kScorerTrees = 50;
constexpr metadata::Timestamp kQueryWindowSeconds = 24 * 3600;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double Median(std::vector<double> v) {
  return v.empty() ? 0.0 : common::Quantile(std::move(v), 0.5);
}

struct Options {
  std::string workload;
  /// Orders the feed: every pass takes the corpus's pipelines in a fresh
  /// permutation drawn from this seed.
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  int pipelines = 120;
  bool corrupt_reference = false;
  std::string work_dir = ".bench_build/work";
  std::string spans_out;  // traced runs write their spans here
};

// ---------------------------------------------------------------------------
// Metrics and gates.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Pass/fail accounting for every output checked against a reference.
/// Checks run outside the timed sections.
struct Gates {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  }
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written when the run ends.

/// One span. Calls made once per record (decode, ingest) would need
/// millions of spans, so each of those folds into one aggregate span per
/// (pipeline, layer): `count` calls, `busy_ns` their summed duration,
/// [start_ns, end_ns] from the first call's start to the last call's end.
/// For ordinary spans count == 1 and busy_ns == end_ns - start_ns.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t pipeline = -1;
  uint64_t count = 0;
  int64_t busy_ns = 0;
  int64_t child_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int64_t Now() const { return NsBetween(origin_, Clock::now()); }

  /// Opens a span under the innermost open one.
  int32_t Begin(const char* name, int64_t pipeline) {
    const int64_t now = Now();
    spans_.push_back({name, now, now, Top(), pipeline, 1, 0, 0});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void End(int32_t id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    span.busy_ns = span.end_ns - span.start_ns;
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_ns += span.busy_ns;
    }
    stack_.pop_back();
  }

  /// Records an already finished call as a span under the innermost
  /// open one.
  void Closed(const char* name, int64_t pipeline, int64_t start,
              int64_t end) {
    spans_.push_back({name, start, end, Top(), pipeline, 1, end - start, 0});
    if (spans_.back().parent >= 0) {
      spans_[static_cast<size_t>(spans_.back().parent)].child_ns +=
          end - start;
    }
  }

  /// Creates an aggregate span under the innermost open one.
  int32_t Aggregate(const char* name, int64_t pipeline) {
    spans_.push_back({name, -1, 0, Top(), pipeline, 0, 0, 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /// Folds one call [start, end] into aggregate span `id`.
  void Add(int32_t id, int64_t start, int64_t end) {
    Span& span = spans_[static_cast<size_t>(id)];
    if (span.count == 0) span.start_ns = start;
    span.end_ns = end;
    ++span.count;
    span.busy_ns += end - start;
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_ns += end - start;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int32_t Top() const { return stack_.empty() ? -1 : stack_.back(); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// Times one call into a library layer: a real span when tracing, else
/// nothing at all.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int64_t pipeline)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, pipeline) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Set-up: generation + MLPB serialization + scorer training.

struct Setup {
  sim::Corpus corpus;
  std::vector<std::string> blobs;
  /// Position of each pipeline in generation order; pipelines and blobs
  /// are reordered before every pass (see Reshuffle).
  std::vector<size_t> generated_index;
  std::optional<core::WasteDataset> dataset;
  std::optional<stream::OnlineScorer> scorer;  // when trained
  double generate_s = 0.0;
  double serialize_s = 0.0;
  double train_s = 0.0;
};

/// Set-up is what a workload needs before its first timed record: the
/// corpus and its MLPB blobs, plus the trained scorer where the workload
/// scores (`train`).
bool RunSetup(const Options& options, Tracer* tracer, bool train,
              Setup& setup) {
  const auto t0 = Clock::now();
  Scope root(tracer, "setup", -1);
  {
    Scope span(tracer, "simulator.generate", -1);
    sim::CorpusConfig config;
    config.num_pipelines = options.pipelines;
    config.seed = kCorpusSeed;
    config.horizon_days = 130.0;
    setup.corpus = sim::GenerateCorpus(config);
  }
  setup.generate_s = Since(t0);
  const auto t1 = Clock::now();
  {
    Scope span(tracer, "metadata.serialize", -1);
    setup.blobs.resize(setup.corpus.pipelines.size());
    for (size_t i = 0; i < setup.blobs.size(); ++i) {
      setup.blobs[i] =
          metadata::SerializeStoreBinary(setup.corpus.pipelines[i].store);
    }
  }
  setup.serialize_s = Since(t1);
  const auto t2 = Clock::now();
  if (train) {
    Scope span(tracer, "scorer.train", -1);
    core::SegmentedCorpus segmented;
    {
      Scope segment(tracer, "core.segment_corpus", -1);
      segmented = core::SegmentCorpus(setup.corpus);
    }
    std::optional<common::StatusOr<core::WasteDataset>> built;
    {
      Scope featurize(tracer, "core.build_dataset", -1);
      built.emplace(core::BuildWasteDataset(setup.corpus, segmented));
    }
    auto& dataset = *built;
    if (!dataset.ok()) {
      std::fprintf(stderr, "error: dataset: %s\n",
                   dataset.status().ToString().c_str());
      return false;
    }
    stream::OnlineScorerOptions scorer_options;
    scorer_options.mitigation.forest.num_trees = kScorerTrees;
    auto scorer = stream::OnlineScorer::Train(*dataset, scorer_options);
    if (!scorer.ok()) {
      std::fprintf(stderr, "error: scorer: %s\n",
                   scorer.status().ToString().c_str());
      return false;
    }
    setup.dataset.emplace(std::move(*dataset));
    setup.scorer.emplace(std::move(*scorer));
    setup.train_s = Since(t2);
  }
  setup.generated_index.resize(setup.corpus.pipelines.size());
  for (size_t i = 0; i < setup.generated_index.size(); ++i) {
    setup.generated_index[i] = i;
  }
  return true;
}

/// Draws the next feed order. Each pass feeds the pipelines in a fresh
/// permutation from the run's --seed, so a run's medians cover many
/// orders: the fleet's schedule depends on where the big pipelines fall.
/// Sessions are independent per pipeline, so every reference holds for
/// every order.
void Reshuffle(common::Rng& rng, Setup& setup) {
  std::vector<sim::PipelineTrace>& pipelines = setup.corpus.pipelines;
  for (size_t i = pipelines.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.NextUint64(i));
    std::swap(pipelines[i - 1], pipelines[j]);
    std::swap(setup.blobs[i - 1], setup.blobs[j]);
    std::swap(setup.generated_index[i - 1], setup.generated_index[j]);
  }
}

// ---------------------------------------------------------------------------
// References, computed once and outside every timed section.

/// Order-sensitive FNV fold of per-pipeline (graphlets fingerprint,
/// quarantined graphlets) pairs: the corpus-level identity of a
/// segmentation.
class CorpusFingerprint {
 public:
  void Add(uint64_t graphlets, size_t quarantined) {
    hash_ = (hash_ ^ graphlets) * 1099511628211ull;
    hash_ = (hash_ ^ static_cast<uint64_t>(quarantined)) * 1099511628211ull;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t FingerprintSegmented(const core::SegmentedCorpus& segmented) {
  CorpusFingerprint fold;
  for (const core::SegmentedPipeline& sp : segmented.pipelines) {
    fold.Add(stream::FingerprintGraphlets(sp.graphlets),
             sp.quarantined_graphlets);
  }
  return fold.value();
}

/// Every reference is indexed by generation order (BuildReferences runs
/// before the first Reshuffle).
struct References {
  /// Per pipeline: batch core::SegmentTrace over the generated store.
  std::vector<uint64_t> graphlets;
  /// Per pipeline: decisions of a session fed by the materializing
  /// decoder (DeserializeStoreBinary + ReplayStore) with the same scorer.
  std::vector<uint64_t> decisions;
  stream::WasteAccounting waste;
  /// Per pipeline: core::SegmentCorpus's graphlets and quarantine count.
  std::vector<uint64_t> segmented_graphlets;
  std::vector<size_t> segmented_quarantined;
  /// XORed into the expected merged fingerprint (--corrupt_reference).
  uint64_t segmented_corruption = 0;

  /// core::SegmentCorpus's corpus-level fingerprint for the current
  /// feed order (SegmentCorpus segments each pipeline on its own).
  uint64_t SegmentedFingerprint(const std::vector<size_t>& order) const {
    CorpusFingerprint fold;
    for (size_t gen : order) {
      fold.Add(segmented_graphlets[gen], segmented_quarantined[gen]);
    }
    return fold.value() ^ segmented_corruption;
  }
};

References BuildReferences(const Options& options, const Setup& setup,
                           bool with_decisions) {
  References ref;
  const core::SegmentedCorpus segmented = core::SegmentCorpus(setup.corpus);
  const size_t n = setup.corpus.pipelines.size();
  ref.graphlets = common::ParallelMap<uint64_t>(n, [&](size_t i) {
    return stream::FingerprintGraphlets(
        core::SegmentTrace(setup.corpus.pipelines[i].store));
  }, 1);
  if (with_decisions) {
    std::vector<stream::WasteAccounting> waste(n);
    ref.decisions = common::ParallelMap<uint64_t>(n, [&](size_t i) {
      auto store = metadata::DeserializeStoreBinary(setup.blobs[i]);
      if (!store.ok()) return uint64_t{0};
      stream::SessionOptions session_options;
      session_options.scorer = &*setup.scorer;
      stream::ProvenanceSession session(session_options);
      if (!stream::ReplayStore(*store, session).ok()) return uint64_t{0};
      auto result = session.Finish();
      if (!result.ok()) return uint64_t{0};
      waste[i] = result->waste;
      return stream::FingerprintDecisions(result->decisions);
    }, 1);
    for (const stream::WasteAccounting& w : waste) {
      ref.waste.decisions += w.decisions;
      ref.waste.aborts += w.aborts;
      ref.waste.avoided_hours += w.avoided_hours;
    }
  }
  for (const core::SegmentedPipeline& sp : segmented.pipelines) {
    ref.segmented_graphlets.push_back(
        stream::FingerprintGraphlets(sp.graphlets));
    ref.segmented_quarantined.push_back(sp.quarantined_graphlets);
  }
  if (options.corrupt_reference) {
    // Proves the gates can fail: one reference of each kind is wrong.
    ref.graphlets[0] ^= 1;
    if (!ref.decisions.empty()) ref.decisions[0] ^= 1;
    ref.segmented_corruption = 1;
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Per-workload accumulators. A pass is one sweep over the workload's
// pipelines; every metric is reported over whole passes only.

struct Timings {
  std::vector<double> pass_rates;  // records/s of each pass
  /// Per pipeline (generation order), its latency in every pass. The
  /// fleet job returns every pipeline at once; it keeps one entry.
  std::vector<std::vector<double>> pipeline_ms;
  std::vector<double> query_us;
  std::vector<double> recovery_ms;
  uint64_t records = 0;
  double timed_s = 0.0;
  size_t passes = 0;

  void AddPipeline(size_t pipeline, double ms) {
    if (pipeline_ms.size() <= pipeline) pipeline_ms.resize(pipeline + 1);
    pipeline_ms[pipeline].push_back(ms);
  }

  /// Each pipeline's median latency over the passes.
  std::vector<double> PipelineMedians() const {
    std::vector<double> out;
    for (const std::vector<double>& times : pipeline_ms) {
      if (!times.empty()) out.push_back(Median(times));
    }
    return out;
  }

  /// Each pipeline's fastest latency over the passes.
  std::vector<double> PipelineBests() const {
    std::vector<double> out;
    for (const std::vector<double>& times : pipeline_ms) {
      if (!times.empty()) {
        out.push_back(*std::min_element(times.begin(), times.end()));
      }
    }
    return out;
  }

  /// One pass's records over the sum of the pipelines' fastest times.
  double BestRate() const {
    double best_s = 0.0;
    for (double ms : PipelineBests()) best_s += ms / 1e3;
    return passes > 0 && best_s > 0.0
               ? static_cast<double>(records) / passes / best_s
               : 0.0;
  }

  void AddPass(uint64_t pass_records, double pass_s) {
    ++passes;
    records += pass_records;
    timed_s += pass_s;
    if (pass_s > 0.0) pass_rates.push_back(pass_records / pass_s);
  }
};

/// Layer counters gathered from traced passes only.
struct LayerStats {
  // stream.session
  std::array<double, 4> ingest_ns_sum = {};
  std::array<uint64_t, 4> ingest_calls = {};
  std::vector<float> ingest_ns;
  double finish_ms_sum = 0.0;
  uint64_t finishes = 0;
  // stream.segmenter
  uint64_t cells = 0;
  uint64_t reseals = 0;
  uint64_t extractions = 0;
  double seal_call_ns_sum = 0.0;
  uint64_t seal_calls = 0;
  // core.index queries
  std::array<double, 4> query_ns_sum = {};
  std::array<uint64_t, 4> queries = {};
  // stream.checkpoint / recovery
  double checkpoint_ms_sum = 0.0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_bytes_samples = 0;
  double durable_ingest_s = 0.0;
  uint64_t replayed_records = 0;
  uint64_t refed_records = 0;  // lost to the crash, fed again
  uint64_t recoveries = 0;
  // stream.shard_router
  double router_ingest_s = 0.0;
  double merge_ms = 0.0;
  uint64_t stalls = 0;
  uint64_t queue_peak = 0;
  double shard_skew = 0.0;
  double utilization = 0.0;
  uint64_t router_passes = 0;
  // passes timed with tracing on, per workload
  Timings traced;
};

/// The run's shared state.
struct Bench {
  Options options;
  Setup setup;
  References ref;
  Gates gates;
  size_t nproc = 1;
  std::string durable_root;
};

// ---------------------------------------------------------------------------
// Workload: replay.

/// One pass: every pipeline's MLPB blob walked by BinaryStoreCursor into
/// a scored ProvenanceSession, then Finish(). One thread.
void ReplayPass(Bench& b, const stream::OnlineScorer* scorer, Timings& t,
                Tracer* tracer, LayerStats* layers) {
  const bool gate_decisions = scorer != nullptr;
  uint64_t pass_records = 0;
  double pass_s = 0.0;
  for (size_t i = 0; i < b.setup.blobs.size(); ++i) {
    const int64_t pid = b.setup.corpus.pipelines[i].config.pipeline_id;
    stream::SessionOptions session_options;
    session_options.scorer = scorer;
    stream::ProvenanceSession session(session_options);
    common::Status status;
    bool decoded = false;
    uint64_t records = 0;
    std::optional<common::StatusOr<stream::SessionResult>> result;
    const auto t0 = Clock::now();
    if (tracer == nullptr) {
      auto cursor = metadata::BinaryStoreCursor::Open(b.setup.blobs[i]);
      metadata::RecordRef record;
      while (cursor.ok() && status.ok() && cursor->Next(&record)) {
        status = session.Ingest(record);
        ++records;
      }
      decoded = cursor.ok() && cursor->status().ok();
      result.emplace(session.Finish());
    } else {
      Scope root(tracer, "replay.pipeline", pid);
      const int32_t decode = tracer->Aggregate("metadata.decode", pid);
      const int32_t ingest = tracer->Aggregate("session.ingest", pid);
      int64_t a = tracer->Now();
      auto cursor = metadata::BinaryStoreCursor::Open(b.setup.blobs[i]);
      int64_t z = tracer->Now();
      tracer->Add(decode, a, z);
      metadata::RecordRef record;
      const stream::StreamingSegmenter::Stats& seg =
          session.segmenter().stats();
      while (cursor.ok() && status.ok()) {
        a = tracer->Now();
        const bool more = cursor->Next(&record);
        z = tracer->Now();
        tracer->Add(decode, a, z);
        if (!more) break;
        const size_t sealed_before = seg.sealed;
        a = z;
        status = session.Ingest(record);
        z = tracer->Now();
        tracer->Add(ingest, a, z);
        const double ns = static_cast<double>(z - a);
        const auto k = static_cast<size_t>(record.kind);
        layers->ingest_ns_sum[k] += ns;
        ++layers->ingest_calls[k];
        layers->ingest_ns.push_back(static_cast<float>(ns));
        if (seg.sealed != sealed_before) {
          layers->seal_call_ns_sum += ns;
          ++layers->seal_calls;
        }
        ++records;
      }
      decoded = cursor.ok() && cursor->status().ok();
      const auto f0 = Clock::now();
      {
        Scope span(tracer, "session.finish", pid);
        result.emplace(session.Finish());
      }
      layers->finish_ms_sum += Since(f0) * 1e3;
      ++layers->finishes;
      const stream::StreamingSegmenter::Stats& stats =
          session.segmenter().stats();
      layers->cells += stats.cells;
      layers->reseals += stats.reseals;
      layers->extractions += stats.extractions;
    }
    const double seconds = Since(t0);
    const size_t gen = b.setup.generated_index[i];
    t.AddPipeline(gen, seconds * 1e3);
    pass_s += seconds;
    pass_records += records;

    const bool ok = decoded && status.ok() && result->ok();
    b.gates.Check(ok && stream::FingerprintGraphlets((*result)->graphlets) ==
                            b.ref.graphlets[gen],
                  "replay graphlets of pipeline " + std::to_string(pid));
    if (gate_decisions) {
      b.gates.Check(
          ok && stream::FingerprintDecisions((*result)->decisions) ==
                    b.ref.decisions[gen],
          "replay decisions of pipeline " + std::to_string(pid));
    }
  }
  t.AddPass(pass_records, pass_s);
}

// ---------------------------------------------------------------------------
// Workload: fleet.

/// One pass: the whole corpus through ShardedProvenanceService at
/// nproc - 1 shards (router + shards = nproc threads), then the merge.
void FleetPass(Bench& b, size_t shards, Timings& t, Tracer* tracer,
               LayerStats* layers) {
  stream::ShardRouterOptions router_options;
  router_options.shards = shards;
  stream::ShardedProvenanceService service(router_options);
  const auto t0 = Clock::now();
  std::optional<common::StatusOr<stream::ShardedResult>> result;
  core::SegmentedCorpus merged;
  double ingest_s = 0.0;
  {
    Scope root(tracer, "fleet.corpus", -1);
    {
      Scope span(tracer, "router.ingest_corpus", -1);
      result.emplace(service.IngestCorpus(b.setup.corpus));
    }
    ingest_s = Since(t0);
    if (result->ok()) {
      Scope span(tracer, "router.merge", -1);
      merged = (*result)->ToSegmentedCorpus();
    }
  }
  const double seconds = Since(t0);
  const double utilization =
      obs::Registry::Global().GetGauge("parallel.pool.utilization")->Value();
  uint64_t records = 0;
  if (result->ok()) records = (*result)->records;
  t.AddPipeline(0, seconds * 1e3);
  t.AddPass(records, seconds);

  if (!result->ok()) {
    b.gates.Check(false, "fleet ingest: " + result->status().ToString());
    return;
  }
  const stream::ShardedResult& r = **result;
  const std::vector<size_t>& order = b.setup.generated_index;
  for (const stream::ShardPipelineResult& p : r.pipelines) {
    const bool ok =
        p.status.ok() && p.slot < order.size() &&
        stream::FingerprintGraphlets(p.result.graphlets) ==
            b.ref.segmented_graphlets[order[p.slot]] &&
        p.quarantined_graphlets == b.ref.segmented_quarantined[order[p.slot]];
    b.gates.Check(ok, "fleet slot " + std::to_string(p.slot));
  }
  b.gates.Check(
      FingerprintSegmented(merged) == b.ref.SegmentedFingerprint(order),
      "fleet merged segmentation");
  if (layers != nullptr) {
    std::vector<double> per_shard(std::max<size_t>(1, shards), 0.0);
    for (const stream::ShardPipelineResult& p : r.pipelines) {
      if (p.shard < per_shard.size()) per_shard[p.shard] += p.records;
    }
    double sum = 0.0, max = 0.0;
    for (double v : per_shard) {
      sum += v;
      max = std::max(max, v);
    }
    layers->router_ingest_s += ingest_s;
    layers->merge_ms += (seconds - ingest_s) * 1e3;
    layers->stalls += r.backpressure_stalls;
    layers->queue_peak =
        std::max<uint64_t>(layers->queue_peak, r.queue_depth_peak);
    layers->shard_skew += sum > 0.0 ? max / (sum / per_shard.size()) : 0.0;
    layers->utilization += utilization;
    ++layers->router_passes;
  }
}

// ---------------------------------------------------------------------------
// Workload: durable_lineage.

/// Newest nodes of the ingested prefix, the analyst's query targets.
struct Newest {
  ExecutionId trainer = metadata::kInvalidId;
  ArtifactId model = metadata::kInvalidId;
  ArtifactId span = metadata::kInvalidId;

  void Observe(const sim::ProvenanceRecord& record) {
    if (record.kind == sim::ProvenanceRecord::Kind::kExecution &&
        record.execution.type == metadata::ExecutionType::kTrainer) {
      trainer = record.execution.id;
    } else if (record.kind == sim::ProvenanceRecord::Kind::kArtifact) {
      if (record.artifact.type == metadata::ArtifactType::kModel) {
        model = record.artifact.id;
      } else if (record.artifact.type == metadata::ArtifactType::kExamples) {
        span = record.artifact.id;
      }
    }
  }
};

enum QueryKind { kAncestors = 0, kLineage, kSpanGraphlets, kTimeWindow };
constexpr const char* kQueryNames[4] = {"ancestors", "lineage",
                                        "span_graphlets", "time_window"};
constexpr const char* kQuerySpanNames[4] = {
    "query.ancestors", "query.lineage", "query.span_graphlets",
    "query.time_window"};

/// Lineage oracle: producers plus the union of their TraceView closures.
core::LineageResult LineageOracle(const metadata::MetadataStore& store,
                                  ArtifactId artifact) {
  metadata::TraceView view(&store);
  core::LineageResult out;
  out.producers = store.ProducersOf(artifact);
  std::vector<char> exec_in(store.num_executions() + 1, 0);
  std::vector<char> artifact_in(store.num_artifacts() + 1, 0);
  artifact_in[static_cast<size_t>(artifact)] = 1;
  for (ExecutionId p : out.producers) {
    exec_in[static_cast<size_t>(p)] = 1;
    for (ExecutionId u : view.AncestorExecutions(p)) {
      exec_in[static_cast<size_t>(u)] = 1;
    }
    for (ArtifactId a : view.AncestorArtifacts(p)) {
      artifact_in[static_cast<size_t>(a)] = 1;
    }
  }
  for (size_t id = 1; id < exec_in.size(); ++id) {
    if (exec_in[id]) out.executions.push_back(static_cast<ExecutionId>(id));
  }
  for (size_t id = 1; id < artifact_in.size(); ++id) {
    if (artifact_in[id]) out.artifacts.push_back(static_cast<ArtifactId>(id));
  }
  return out;
}

/// Graphlet-membership oracle: a linear scan of every cell's graphlet as
/// last extracted (what the segmenter's membership index answers from).
std::vector<ExecutionId> SpanGraphletsOracle(
    const stream::StreamingSegmenter& segmenter, ArtifactId span) {
  std::vector<ExecutionId> out;
  for (size_t c = 0; c < segmenter.num_cells(); ++c) {
    const std::vector<ArtifactId>& members =
        segmenter.CellGraphlet(c).artifacts;
    if (std::find(members.begin(), members.end(), span) != members.end()) {
      out.push_back(segmenter.CellTrainer(c));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<ExecutionId> TimeWindowOracle(const metadata::MetadataStore& store,
                                          metadata::Timestamp from,
                                          metadata::Timestamp to) {
  std::vector<ExecutionId> out;
  for (const metadata::Execution& e : store.executions()) {
    if (e.start_time < to && e.end_time >= from) out.push_back(e.id);
  }
  return out;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// Runs the analyst's four queries against the live session and checks
/// each against its recompute over the same store, at the same moment.
/// Returns the seconds spent computing references (not timed).
/// `corrupt` (--corrupt_reference) spoils the next ancestors reference
/// and is then cleared.
double AnalystQueries(Bench& b, stream::DurableSession& durable,
                      const Newest& newest, int64_t pid, Timings& t,
                      Tracer* tracer, LayerStats* layers, bool& corrupt) {
  const stream::ProvenanceSession& session = durable.session();
  const metadata::MetadataStore& store = session.store();
  const core::TraceQuery query = session.Query();
  double reference_s = 0.0;
  auto timed = [&](QueryKind kind, auto&& call) {
    const auto t0 = Clock::now();
    {
      Scope span(tracer, kQuerySpanNames[kind], pid);
      call();
    }
    const double us = Since(t0) * 1e6;
    t.query_us.push_back(us);
    if (layers != nullptr) {
      layers->query_ns_sum[kind] += us * 1e3;
      ++layers->queries[kind];
    }
  };
  const std::string where = " (pipeline " + std::to_string(pid) +
                            ", record " +
                            std::to_string(durable.records()) + ")";
  if (newest.trainer != metadata::kInvalidId) {
    std::optional<common::StatusOr<std::vector<ExecutionId>>> got;
    timed(kAncestors, [&] { got.emplace(query.AncestorsOf(newest.trainer)); });
    const auto r0 = Clock::now();
    Scope ref_span(tracer, "gate.reference", pid);
    std::vector<ExecutionId> want =
        metadata::TraceView(&store).AncestorExecutions(newest.trainer);
    if (corrupt) want.push_back(0);
    corrupt = false;
    b.gates.Check(got->ok() && **got == want, "AncestorsOf" + where);
    reference_s += Since(r0);
  }
  if (newest.model != metadata::kInvalidId) {
    std::optional<common::StatusOr<core::LineageResult>> got;
    timed(kLineage, [&] { got.emplace(query.LineageOf(newest.model)); });
    const auto r0 = Clock::now();
    Scope ref_span(tracer, "gate.reference", pid);
    const core::LineageResult want = LineageOracle(store, newest.model);
    b.gates.Check(got->ok() && (*got)->producers == want.producers &&
                      (*got)->executions == want.executions &&
                      (*got)->artifacts == want.artifacts,
                  "LineageOf" + where);
    reference_s += Since(r0);
  }
  if (newest.span != metadata::kInvalidId) {
    std::optional<common::StatusOr<std::vector<ExecutionId>>> got;
    timed(kSpanGraphlets,
          [&] { got.emplace(query.GraphletsTouchingSpan(newest.span)); });
    const auto r0 = Clock::now();
    Scope ref_span(tracer, "gate.reference", pid);
    b.gates.Check(got->ok() && **got == SpanGraphletsOracle(
                                            session.segmenter(), newest.span),
                  "GraphletsTouchingSpan" + where);
    reference_s += Since(r0);
  }
  {
    const metadata::Timestamp to = session.segmenter().watermark() + 1;
    const metadata::Timestamp from = to - kQueryWindowSeconds;
    std::optional<common::StatusOr<std::vector<ExecutionId>>> got;
    timed(kTimeWindow,
          [&] { got.emplace(query.TimeWindowSlice({from, to})); });
    const auto r0 = Clock::now();
    Scope ref_span(tracer, "gate.reference", pid);
    b.gates.Check(got->ok() && **got == TimeWindowOracle(store, from, to),
                  "TimeWindowSlice" + where);
    reference_s += Since(r0);
  }
  return reference_s;
}

/// The durable workload's pipelines: the first kDurablePipelines in
/// generation order (fed in the seeded order).
bool IsDurablePipeline(const Bench& b, size_t i) {
  return b.setup.generated_index[i] < kDurablePipelines;
}

/// One pass over the durable workload's pipelines: each runs
/// through a DurableSession (WAL sync interval, checkpoint every 256
/// records), with the analyst querying every 128 records and a crash +
/// recovery at the pipeline's midpoint record. One thread.
void DurablePass(Bench& b, Timings& t, Tracer* tracer, LayerStats* layers) {
  uint64_t pass_records = 0;
  double pass_s = 0.0;
  bool corrupt = b.options.corrupt_reference;
  // --corrupt_reference: the first recovery that must load a checkpoint
  // finds its directory wiped, as if Open had thrown every checkpoint
  // away; the recovery gate has to catch it.
  bool lose_checkpoints = b.options.corrupt_reference;
  for (size_t i = 0; i < b.setup.corpus.pipelines.size(); ++i) {
    if (!IsDurablePipeline(b, i)) continue;
    const sim::PipelineTrace& trace = b.setup.corpus.pipelines[i];
    const int64_t pid = trace.config.pipeline_id;
    stream::TraceRecordSource source(trace);
    const std::string dir = b.durable_root + "/p" + std::to_string(pid);
    std::error_code ec;
    fs::remove_all(dir, ec);
    stream::DurableOptions durable_options;
    durable_options.wal.dir = dir;
    durable_options.wal.sync = stream::WalSyncPolicy::kInterval;
    durable_options.checkpoint_interval = kCheckpointInterval;

    double reference_s = 0.0;
    const uint64_t total = source.size();
    const uint64_t crash_at = total / 2;
    // The WAL is synced before each checkpoint, so a correct recovery
    // comes back at or after the last checkpoint before the crash.
    const uint64_t last_checkpoint =
        crash_at / kCheckpointInterval * kCheckpointInterval;
    Newest newest;
    std::optional<common::StatusOr<stream::SessionResult>> result;
    const auto t0 = Clock::now();
    {
      Scope root(tracer, "durable.pipeline", pid);
      std::optional<common::StatusOr<stream::DurableSession>> opened;
      {
        Scope span(tracer, "durable.open", pid);
        opened.emplace(stream::DurableSession::Open(durable_options));
      }
      bool ok = opened->ok();
      const int32_t ingest_span =
          tracer != nullptr ? tracer->Aggregate("durable.ingest", pid) : -1;
      bool crashed = false;
      uint64_t r = 0;
      while (ok && r < total) {
        if (r == crash_at && !crashed) {
          crashed = true;
          {
            Scope span(tracer, "durable.crash", pid);
            ok = (*opened)->SimulateCrash().ok();
          }
          if (lose_checkpoints && last_checkpoint > 0) {
            lose_checkpoints = false;
            fs::remove_all(dir, ec);
          }
          const auto c0 = Clock::now();
          {
            Scope span(tracer, "durable.recovery", pid);
            opened.emplace(stream::DurableSession::Open(durable_options));
          }
          t.recovery_ms.push_back(Since(c0) * 1e3);
          ok = ok && opened->ok() &&
               (*opened)->records() >= last_checkpoint &&
               (*opened)->records() <= crash_at;
          b.gates.Check(ok, "recovery of pipeline " + std::to_string(pid));
          if (!ok) break;
          const auto r0 = Clock::now();
          Scope ref_span(tracer, "gate.reference", pid);
          r = (*opened)->records();
          newest = Newest();
          for (uint64_t k = 0; k < r; ++k) newest.Observe(*source.Get(k));
          reference_s += Since(r0);
          if (layers != nullptr) {
            layers->replayed_records +=
                (*opened)->recovery().replayed_records;
            layers->refed_records += crash_at - r;
            ++layers->recoveries;
          }
          continue;
        }
        const sim::ProvenanceRecord& record = *source.Get(r);
        if (tracer == nullptr) {
          ok = (*opened)->Ingest(record).ok();
        } else {
          const int64_t a = tracer->Now();
          ok = (*opened)->Ingest(record).ok();
          const int64_t z = tracer->Now();
          layers->durable_ingest_s += (z - a) * 1e-9;
          if ((*opened)->records() % kCheckpointInterval == 0) {
            tracer->Closed("checkpoint", pid, a, z);
            layers->checkpoint_ms_sum += (z - a) * 1e-6;
            if (++layers->checkpoints % 8 == 1) {
              auto listed = stream::ListCheckpoints(dir);
              if (listed.ok() && !listed->empty()) {
                layers->checkpoint_bytes +=
                    fs::file_size(listed->back().path, ec);
                ++layers->checkpoint_bytes_samples;
              }
            }
          } else {
            tracer->Add(ingest_span, a, z);
          }
        }
        const uint64_t applied = (*opened)->records();
        newest.Observe(record);
        ++r;
        if (ok && applied % kQueryEvery == 0) {
          reference_s += AnalystQueries(b, **opened, newest, pid, t, tracer,
                                        layers, corrupt);
        }
      }
      {
        Scope span(tracer, "durable.finish", pid);
        if (ok) result.emplace((*opened)->Finish());
      }
      if (!ok && !result.has_value()) {
        result.emplace(common::Status::Internal("durable ingest failed"));
      }
    }
    const double seconds = Since(t0) - reference_s;
    t.AddPipeline(b.setup.generated_index[i], seconds * 1e3);
    pass_s += seconds;
    pass_records += total;
    b.gates.Check(result->ok() &&
                      stream::FingerprintGraphlets((*result)->graphlets) ==
                          b.ref.graphlets[b.setup.generated_index[i]],
                  "durable graphlets of pipeline " + std::to_string(pid));
    fs::remove_all(dir, ec);
  }
  t.AddPass(pass_records, pass_s);
}

// ---------------------------------------------------------------------------
// Layer probes for the traced run: each isolates one layer's cost
// through its public API on the same corpus.

/// Decode-only cursor walk over every blob: ns per record (median of 3).
double DecodeProbe(const Setup& setup) {
  std::vector<double> ns_per_record;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t records = 0;
    const auto t0 = Clock::now();
    for (const std::string& blob : setup.blobs) {
      auto cursor = metadata::BinaryStoreCursor::Open(blob);
      metadata::RecordRef record;
      while (cursor.ok() && cursor->Next(&record)) ++records;
    }
    const double s = Since(t0);
    if (records > 0) ns_per_record.push_back(s * 1e9 / records);
  }
  return Median(ns_per_record);
}

struct IndexProbe {
  double catchup_ns_per_record = 0.0;
  double label_bytes_per_exec = 0.0;
};

/// A fresh ProvenanceIndex::CatchUp over each finished store.
IndexProbe CatchUpProbe(const Setup& setup) {
  IndexProbe probe;
  double seconds = 0.0;
  uint64_t records = 0, executions = 0, label_bytes = 0;
  for (const sim::PipelineTrace& trace : setup.corpus.pipelines) {
    const metadata::MetadataStore& store = trace.store;
    core::ProvenanceIndex index(&store);
    const auto t0 = Clock::now();
    index.CatchUp();
    seconds += Since(t0);
    records += store.num_contexts() + store.num_executions() +
               store.num_artifacts() + store.num_events();
    executions += store.num_executions();
    label_bytes += index.label_bytes();
  }
  if (records > 0) probe.catchup_ns_per_record = seconds * 1e9 / records;
  if (executions > 0) {
    probe.label_bytes_per_exec =
        static_cast<double>(label_bytes) / executions;
  }
  return probe;
}

/// OnlineScorer::Score under the policy variant over the training rows.
double ScoreProbe(const Setup& setup) {
  const ml::Dataset& data = setup.dataset->data;
  std::vector<double> row(data.NumFeatures());
  double seconds = 0.0, sink = 0.0;
  for (size_t r = 0; r < data.NumRows(); ++r) {
    for (size_t c = 0; c < row.size(); ++c) row[c] = data.Feature(r, c);
    const auto t0 = Clock::now();
    sink += setup.scorer->Score(setup.scorer->policy_variant(), row);
    seconds += Since(t0);
  }
  if (sink < 0.0) std::fprintf(stderr, "unexpected negative score\n");
  return data.NumRows() > 0 ? seconds * 1e6 / data.NumRows() : 0.0;
}

struct WalProbe {
  double append_ns = 0.0;
  double sync_ms = 0.0;
  uint64_t syncs = 0;
  double bytes_per_record = 0.0;
};

/// WalWriter alone (sync interval, the repository default) over the
/// durable workload's feed, capped at kWalProbeRecords records.
constexpr uint64_t kWalProbeRecords = 1u << 16;

WalProbe RunWalProbe(const Bench& b) {
  WalProbe probe;
  const std::string dir = b.durable_root + "/wal_probe";
  std::error_code ec;
  fs::remove_all(dir, ec);
  stream::WalOptions wal_options;
  wal_options.dir = dir;
  wal_options.sync = stream::WalSyncPolicy::kInterval;
  auto writer = stream::WalWriter::Open(wal_options);
  if (!writer.ok()) return probe;
  double append_s = 0.0, sync_s = 0.0;
  uint64_t appends = 0, records = 0;
  for (size_t i = 0; i < b.setup.corpus.pipelines.size() &&
                     records < kWalProbeRecords;
       ++i) {
    if (!IsDurablePipeline(b, i)) continue;
    stream::TraceRecordSource source(b.setup.corpus.pipelines[i]);
    for (uint64_t r = 0; r < source.size() && records < kWalProbeRecords;
         ++r) {
      const sim::ProvenanceRecord& record = *source.Get(r);
      const uint64_t synced_before = writer->synced_bytes();
      const auto t0 = Clock::now();
      const bool ok = writer->Append(record).ok();
      const double s = Since(t0);
      if (!ok) return probe;
      ++records;
      if (writer->synced_bytes() != synced_before) {
        sync_s += s;
        ++probe.syncs;
      } else {
        append_s += s;
        ++appends;
      }
    }
  }
  (void)writer->Close();
  if (appends > 0) probe.append_ns = append_s * 1e9 / appends;
  if (probe.syncs > 0) probe.sync_ms = sync_s * 1e3 / probe.syncs;
  if (records > 0) {
    probe.bytes_per_record =
        static_cast<double>(DirectoryBytes(dir)) / records;
  }
  fs::remove_all(dir, ec);
  return probe;
}

// ---------------------------------------------------------------------------
// Host and input fingerprint.

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t begin = model.find_first_not_of(' ');
    return begin == std::string::npos ? "unknown" : model.substr(begin);
  }
#endif
  return "unknown";
}

std::string FilesystemType(const std::string& dir) {
  struct statfs info;
  if (::statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return hex;
    }
  }
}

/// Starts a new peak-RSS window: returns freed heap to the system, then
/// resets the kernel's high-water mark to the current RSS, so that
/// PeakRssMb() sees only what runs after this call. False where the
/// kernel does not allow the reset.
bool ResetPeakRss() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
  std::FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  if (clear == nullptr) return false;
  const bool written = std::fputs("5", clear) >= 0;
  return std::fclose(clear) == 0 && written;
}

/// The process's RSS high-water mark (VmHWM) in MB, or -1 if unreadable.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib < 0.0 ? -1.0 : kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Reporting.

void AddEndToEnd(const Options& options, const Timings& t,
                 const std::vector<double>& setup_s, const Gates& gates,
                 MetricSet& m) {
  m.Set("setup_s", Median(setup_s), "s");
  // replay and durable_lineage run one pipeline at a time on one thread,
  // so a pipeline's time differs between passes only by interference
  // from the host (its shared caches and memory slow every pass by up to
  // a third, for seconds at a time), and interference only adds time:
  // each pipeline's fastest pass is what its code costs. A fleet pass
  // also depends on how the feed order lands the big pipelines on the
  // shards, which is the code's own behaviour: it is reported as the
  // median over passes (of feed orders).
  const bool fleet = options.workload == "fleet";
  m.Set("records_per_s", fleet ? Median(t.pass_rates) : t.BestRate(),
        "records/s");
  const std::vector<double> pipeline_ms =
      fleet ? t.PipelineMedians() : t.PipelineBests();
  m.Set("pipeline_ms_p50", common::Quantile(pipeline_ms, 0.5), "ms");
  m.Set("pipeline_ms_p90", common::Quantile(pipeline_ms, 0.9), "ms");
  if (options.workload == "durable_lineage") {
    m.Set("query_us_p50", common::Quantile(t.query_us, 0.5), "us");
    m.Set("query_us_p99", common::Quantile(t.query_us, 0.99), "us");
    m.Set("recovery_ms_p50", common::Quantile(t.recovery_ms, 0.5), "ms");
    m.Set("recovery_ms_p90", common::Quantile(t.recovery_ms, 0.9), "ms");
  }
  m.Set("fail_ratio",
        gates.attempted > 0
            ? static_cast<double>(gates.failed) / gates.attempted
            : 0.0,
        "failed/attempted");
}

/// Per-layer self time of one workload's traced passes, reconciled with
/// the same workload's untraced pass time.
void PrintSelfTimeTable(const std::string& workload, const Tracer& tracer,
                        const Timings& traced, const Timings& untraced) {
  struct Row {
    double self_ns = 0.0;
    uint64_t calls = 0;
  };
  std::map<std::string, Row> rows;
  double reference_ns = 0.0;
  for (const Span& span : tracer.spans()) {
    const double self = static_cast<double>(span.busy_ns - span.child_ns);
    if (std::strcmp(span.name, "gate.reference") == 0) {
      reference_ns += self;
      continue;
    }
    Row& row = rows[span.name];
    row.self_ns += self;
    row.calls += span.count;
  }
  const double passes = std::max<size_t>(1, traced.passes);
  const double traced_ms = traced.timed_s * 1e3 / passes;
  const double untraced_ms =
      untraced.passes > 0 ? untraced.timed_s * 1e3 / untraced.passes : 0.0;
  std::printf("\nlayer self time, %s: %zu traced + %zu untraced passes "
              "(per pass)\n",
              workload.c_str(), traced.passes, untraced.passes);
  std::printf("  %-24s %14s %14s %8s\n", "span", "calls", "self ms",
              "share");
  double sum_ms = 0.0;
  for (const auto& [name, row] : rows) {
    const double ms = row.self_ns / 1e6 / passes;
    sum_ms += ms;
    std::printf("  %-24s %14.0f %14.3f %7.1f%%\n", name.c_str(),
                row.calls / passes, ms,
                traced_ms > 0 ? 100.0 * ms / traced_ms : 0.0);
  }
  std::printf("  %-24s %14s %14.3f\n", "sum of self times", "", sum_ms);
  std::printf("  %-24s %14s %14.3f\n", "traced pass time", "", traced_ms);
  std::printf("  %-24s %14s %14.3f\n", "untraced pass time", "",
              untraced_ms);
  std::printf("  residual: untraced - sum of self times = %.3f ms (%.1f%% "
              "of untraced); gate references excluded (%.3f ms/pass)\n",
              untraced_ms - sum_ms,
              untraced_ms > 0 ? 100.0 * (untraced_ms - sum_ms) / untraced_ms
                              : 0.0,
              reference_ns / 1e6 / passes);
}

void WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, const Tracer*>>&
                    tracers) {
  if (path.empty()) return;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  // One span object per line, so the file never exists as one tree in
  // memory.
  std::fputs("{\"spans\":[", out);
  const char* separator = "\n";
  for (const auto& [plane, tracer] : tracers) {
    for (size_t i = 0; i < tracer->spans().size(); ++i) {
      const Span& s = tracer->spans()[i];
      obs::Json span = obs::Json::Object();
      span.Set("plane", plane)
          .Set("id", static_cast<uint64_t>(i))
          .Set("name", s.name)
          .Set("start_ns", s.start_ns)
          .Set("end_ns", s.end_ns)
          .Set("parent", s.parent)
          .Set("pipeline", s.pipeline)
          .Set("count", s.count)
          .Set("busy_ns", s.busy_ns);
      std::fputs(separator, out);
      std::fputs(span.Dump().c_str(), out);
      separator = ",\n";
    }
  }
  std::fputs("\n]}\n", out);
  std::fclose(out);
}

// ---------------------------------------------------------------------------
// The run.

bool ParseOptions(const common::Flags& flags, Options& o) {
  o.workload = flags.GetString("workload", "");
  o.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  o.seconds = flags.GetDouble("seconds", 10.0);
  o.trace = flags.GetInt("trace", 0) != 0;
  o.pipelines = static_cast<int>(flags.GetInt("pipelines", 120));
  o.corrupt_reference = flags.GetInt("corrupt_reference", 0) != 0;
  o.work_dir = flags.GetString("work_dir", o.work_dir);
  o.spans_out = flags.GetString("spans_out", "");
  if (o.workload != "replay" && o.workload != "fleet" &&
      o.workload != "durable_lineage") {
    std::fprintf(stderr,
                 "error: --workload must be replay | fleet | "
                 "durable_lineage\n");
    return false;
  }
  if (o.pipelines < 1 || o.seconds <= 0.0) {
    std::fprintf(stderr, "error: --pipelines and --seconds must be "
                         "positive\n");
    return false;
  }
  return true;
}

struct CorpusShape {
  uint64_t records = 0;
  uint64_t mlpb_bytes = 0;
};

CorpusShape ShapeOf(const Setup& setup) {
  CorpusShape shape;
  for (const sim::PipelineTrace& trace : setup.corpus.pipelines) {
    const metadata::MetadataStore& store = trace.store;
    shape.records += store.num_contexts() + store.num_executions() +
                     store.num_artifacts() + store.num_events();
  }
  for (const std::string& blob : setup.blobs) shape.mlpb_bytes += blob.size();
  return shape;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Everything a traced run measures besides the end-to-end metrics.
struct TracedRun {
  LayerStats layers;
  /// One traced pass of each plane other than the workload.
  std::map<std::string, Timings> sweep;
  double scored_s = 0.0;
  double unscored_s = 0.0;
  double one_shard_s = 0.0;
};

void AddLayerMetrics(Bench& b, const TracedRun& run, const Timings& untraced,
                     MetricSet& m) {
  const Setup& setup = b.setup;
  const LayerStats& layers = run.layers;
  const std::string& workload = b.options.workload;
  auto traced_passes = [&](const std::string& plane) {
    const Timings& t =
        workload == plane ? layers.traced : run.sweep.at(plane);
    return static_cast<double>(std::max<size_t>(1, t.passes));
  };
  const double replay_passes = traced_passes("replay");
  const double durable_passes = traced_passes("durable_lineage");
  const double fleet_passes = std::max<uint64_t>(1, layers.router_passes);
  const CorpusShape shape = ShapeOf(setup);

  m.Set("simulator.generate_s", setup.generate_s, "s");
  m.Set("simulator.records", static_cast<double>(shape.records), "records");
  m.Set("simulator.executions",
        static_cast<double>(setup.corpus.TotalExecutions()), "count");
  m.Set("metadata.serialize_s", setup.serialize_s, "s");
  m.Set("metadata.decode_ns_per_record", DecodeProbe(setup), "ns/record");
  m.Set("metadata.blob_bytes_per_record",
        Ratio(static_cast<double>(shape.mlpb_bytes), shape.records),
        "B/record");

  const char* kinds[4] = {"context", "execution", "artifact", "event"};
  for (size_t k = 0; k < 4; ++k) {
    m.Set(std::string("session.ingest_ns.") + kinds[k],
          Ratio(layers.ingest_ns_sum[k], layers.ingest_calls[k]), "ns");
  }
  m.Set("session.ingest_ns_p99",
        common::Quantile(std::vector<double>(layers.ingest_ns.begin(),
                                             layers.ingest_ns.end()),
                         0.99),
        "ns");
  m.Set("session.finish_ms", Ratio(layers.finish_ms_sum, layers.finishes),
        "ms");

  m.Set("segmenter.cells", layers.cells / replay_passes, "count");
  m.Set("segmenter.reseals", layers.reseals / replay_passes, "count");
  m.Set("segmenter.extractions_per_cell",
        Ratio(static_cast<double>(layers.extractions), layers.cells),
        "ratio");
  m.Set("segmenter.seal_call_ns",
        Ratio(layers.seal_call_ns_sum, layers.seal_calls), "ns");

  const IndexProbe index = CatchUpProbe(setup);
  m.Set("index.label_bytes_per_exec", index.label_bytes_per_exec, "B/exec");
  m.Set("index.catchup_ns_per_record", index.catchup_ns_per_record,
        "ns/record");
  for (size_t q = 0; q < 4; ++q) {
    m.Set(std::string("index.query_ns.") + kQueryNames[q],
          Ratio(layers.query_ns_sum[q], layers.queries[q]), "ns");
  }

  m.Set("scorer.train_s", setup.train_s, "s");
  m.Set("scorer.score_us", ScoreProbe(setup), "us");
  m.Set("scorer.share", Ratio(run.scored_s - run.unscored_s, run.scored_s),
        "ratio");
  m.Set("scorer.decisions", static_cast<double>(b.ref.waste.decisions),
        "count");
  m.Set("scorer.aborts", static_cast<double>(b.ref.waste.aborts), "count");
  m.Set("scorer.avoided_hours", b.ref.waste.avoided_hours, "h");

  const WalProbe wal = RunWalProbe(b);
  m.Set("wal.append_ns", wal.append_ns, "ns");
  m.Set("wal.sync_ms", wal.sync_ms, "ms");
  m.Set("wal.syncs", static_cast<double>(wal.syncs), "count");
  m.Set("wal.bytes_per_record", wal.bytes_per_record, "B/record");

  m.Set("checkpoint.ms", Ratio(layers.checkpoint_ms_sum, layers.checkpoints),
        "ms");
  m.Set("checkpoint.count", layers.checkpoints / durable_passes, "count");
  m.Set("checkpoint.bytes",
        Ratio(static_cast<double>(layers.checkpoint_bytes),
              layers.checkpoint_bytes_samples),
        "B");
  m.Set("checkpoint.share",
        Ratio(layers.checkpoint_ms_sum / 1e3, layers.durable_ingest_s),
        "ratio");
  m.Set("recovery.replayed_records",
        Ratio(static_cast<double>(layers.replayed_records),
              layers.recoveries),
        "records");
  m.Set("recovery.refed_records",
        Ratio(static_cast<double>(layers.refed_records), layers.recoveries),
        "records");

  m.Set("router.ingest_s", layers.router_ingest_s / fleet_passes, "s");
  m.Set("router.merge_ms", layers.merge_ms / fleet_passes, "ms");
  m.Set("router.stalls", layers.stalls / fleet_passes, "count");
  m.Set("router.queue_peak", static_cast<double>(layers.queue_peak),
        "count");
  m.Set("router.shard_skew", layers.shard_skew / fleet_passes, "ratio");
  m.Set("router.one_shard_s", run.one_shard_s, "s");
  m.Set("parallel.utilization", layers.utilization / fleet_passes, "ratio");

  m.Set("trace.overhead",
        1.0 - Ratio(Median(layers.traced.pass_rates),
                    Median(untraced.pass_rates)),
        "ratio");
}

/// The "RESULT" line: gate counts, every metric, and the host and input
/// fingerprint.
std::string ResultJson(const Bench& b, const Timings& untraced,
                       const MetricSet& metrics, const std::string& wal_fs) {
  const Options& o = b.options;
  const CorpusShape shape = ShapeOf(b.setup);
  obs::Json values = obs::Json::Object();
  for (const Metric& m : metrics.all()) {
    values.Set(m.name, obs::Json::Object()
                           .Set("value", m.value)
                           .Set("unit", m.unit));
  }
#ifdef MLPROV_OBS_NOOP
  const bool obs_noop = true;
#else
  const bool obs_noop = false;
#endif
#ifdef MLPROV_FAILPOINTS_NOOP
  const bool failpoints_noop = true;
#else
  const bool failpoints_noop = false;
#endif
  obs::Json fingerprint = obs::Json::Object();
  fingerprint.Set("nproc", static_cast<uint64_t>(b.nproc))
      .Set("cpu", CpuModel())
      .Set("build_type", PERFBENCH_BUILD_TYPE)
      .Set("obs_noop", obs_noop)
      .Set("failpoints_noop", failpoints_noop)
      .Set("wal_fs", wal_fs)
      .Set("seed", o.seed)
      .Set("corpus_seed", kCorpusSeed)
      .Set("pipelines", static_cast<uint64_t>(b.setup.corpus.pipelines.size()))
      .Set("records", shape.records)
      .Set("executions",
           static_cast<uint64_t>(b.setup.corpus.TotalExecutions()))
      .Set("trainers", static_cast<uint64_t>(b.setup.corpus.TotalTrainerRuns()))
      .Set("mlpb_bytes", shape.mlpb_bytes)
      .Set("passes", static_cast<uint64_t>(untraced.passes))
      .Set("seconds", o.seconds);
  obs::Json result = obs::Json::Object();
  result.Set("workload", o.workload)
      .Set("trace", o.trace ? 1 : 0)
      .Set("attempted", b.gates.attempted)
      .Set("failed", b.gates.failed)
      .Set("metrics", std::move(values))
      .Set("fingerprint", std::move(fingerprint));
  return result.Dump();
}

int Run(int argc, char** argv) {
  const auto process_start = Clock::now();
  Bench b;
  Options& o = b.options;
  if (!ParseOptions(common::Flags(argc, argv), o)) return 2;
  b.nproc = std::max(1u, std::thread::hardware_concurrency());
  common::SetGlobalThreads(static_cast<int>(b.nproc));
  b.durable_root = o.work_dir + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(b.durable_root, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n",
                 b.durable_root.c_str());
    return 2;
  }

  // ---- Set-up, repeated. An untraced run measures after every
  // repetition, a third of --seconds each, so that its passes are spread
  // over the whole run rather than one stretch of it: the host's shared
  // cache is busier for tens of seconds at a time, and a pipeline's
  // fastest pass needs a quiet moment. Traced runs set up once and sweep
  // every plane, the scored replay included. ----
  const bool need_scorer = o.trace || o.workload == "replay";
  Tracer setup_tracer(process_start);
  std::vector<double> setup_s;
  auto set_up = [&]() {
    b.setup = Setup();
    const auto t0 = Clock::now();
    if (!RunSetup(o, o.trace ? &setup_tracer : nullptr, need_scorer,
                  b.setup)) {
      return false;
    }
    // The first repetition also pays process start-up.
    setup_s.push_back(setup_s.empty() ? Since(process_start) : Since(t0));
    return true;
  };
  // peak_rss_mb covers the passes only: set-up and the parallel reference
  // computations are not the workload. The mark is reset before each
  // stretch of passes and read after it.
  double peak_rss_mb = 0.0;
  auto reset_peak = [&]() {
    if (ResetPeakRss()) return true;
    std::fprintf(stderr, "error: cannot reset the peak RSS through "
                         "/proc/self/clear_refs\n");
    return false;
  };
  auto read_peak = [&]() {
    const double mb = PeakRssMb();
    if (mb <= 0.0) {
      std::fprintf(stderr,
                   "error: cannot read VmHWM from /proc/self/status\n");
      return false;
    }
    peak_rss_mb = std::max(peak_rss_mb, mb);
    return true;
  };

  if (!set_up()) return 1;
  const CorpusShape shape = ShapeOf(b.setup);
  std::printf("corpus: corpus seed %" PRIu64 ", feed seed %" PRIu64
              ", %zu pipelines, %" PRIu64 " records, %zu executions, %zu "
              "trainers, %" PRIu64 " MLPB bytes\n",
              kCorpusSeed, o.seed, b.setup.corpus.pipelines.size(),
              shape.records, b.setup.corpus.TotalExecutions(),
              b.setup.corpus.TotalTrainerRuns(), shape.mlpb_bytes);
  std::fflush(stdout);
  // References are indexed by generation order, which every set-up
  // repeats exactly (the corpus seed and the scorer's training are fixed).
  b.ref = BuildReferences(o, b.setup, need_scorer);

  const size_t shards = std::max<size_t>(1, b.nproc - 1);
  common::Rng order_rng(o.seed);
  Tracer replay_tracer(process_start), fleet_tracer(process_start),
      durable_tracer(process_start);
  auto tracer_of = [&](const std::string& plane) {
    return plane == "replay"  ? &replay_tracer
           : plane == "fleet" ? &fleet_tracer
                              : &durable_tracer;
  };
  auto pass = [&](const std::string& plane, Timings& t, bool traced,
                  LayerStats* layers) {
    Reshuffle(order_rng, b.setup);
    Tracer* tracer = traced ? tracer_of(plane) : nullptr;
    if (plane == "replay") {
      ReplayPass(b, &*b.setup.scorer, t, tracer, layers);
    } else if (plane == "fleet") {
      FleetPass(b, shards, t, tracer, layers);
    } else {
      DurablePass(b, t, tracer, layers);
    }
  };
  // Passes never end early: a stretch stops after the pass in which its
  // time ran out, with a floor so that percentiles have samples.
  const size_t min_passes = o.workload == "fleet" ? 5 : 1;

  Timings untraced;
  TracedRun traced;
  if (!o.trace) {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (rep > 0 && !set_up()) return 1;
      if (!reset_peak()) return 1;
      const auto window_start = Clock::now();
      const size_t passes_by_now =
          (min_passes * (rep + 1) + kSetupReps - 1) / kSetupReps;
      while (untraced.passes < passes_by_now ||
             Since(window_start) < o.seconds / kSetupReps) {
        pass(o.workload, untraced, false, nullptr);
      }
      if (!read_peak()) return 1;
    }
  } else {
    if (!reset_peak()) return 1;
    // One traced pass of every other plane, so that every layer metric
    // exists in every traced run.
    for (const char* plane : {"replay", "fleet", "durable_lineage"}) {
      if (o.workload != plane) {
        pass(plane, traced.sweep[plane], true, &traced.layers);
      }
    }
    // The workload itself: untraced and traced passes alternate, so the
    // tracing overhead is measured under the same conditions.
    const auto loop_start = Clock::now();
    while (traced.layers.traced.passes < min_passes ||
           Since(loop_start) < o.seconds) {
      pass(o.workload, untraced, false, nullptr);
      pass(o.workload, traced.layers.traced, true, &traced.layers);
    }
    // Scorer share: one unscored replay against one scored, untraced.
    Timings scored, unscored, one_shard;
    ReplayPass(b, &*b.setup.scorer, scored, nullptr, nullptr);
    ReplayPass(b, nullptr, unscored, nullptr, nullptr);
    traced.scored_s = scored.timed_s;
    traced.unscored_s = unscored.timed_s;
    // The single-threaded baseline of the fleet job.
    FleetPass(b, 1, one_shard, nullptr, nullptr);
    traced.one_shard_s = one_shard.timed_s;
  }
  std::printf("setup: generate %.3fs, serialize %.3fs, train %.3fs "
              "(median total of %zu: %.3fs)\n",
              b.setup.generate_s, b.setup.serialize_s, b.setup.train_s,
              setup_s.size(), Median(setup_s));

  MetricSet metrics;
  AddEndToEnd(o, untraced, setup_s, b.gates, metrics);
  if (o.trace) {
    AddLayerMetrics(b, traced, untraced, metrics);
    PrintSelfTimeTable(o.workload, *tracer_of(o.workload),
                       traced.layers.traced, untraced);
    WriteSpans(o.spans_out, {{"setup", &setup_tracer},
                             {"replay", &replay_tracer},
                             {"fleet", &fleet_tracer},
                             {"durable_lineage", &durable_tracer}});
  }
  // A traced run's peak covers every pass and probe.
  if (o.trace && !read_peak()) return 1;
  metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
  const std::string wal_fs = FilesystemType(b.durable_root);
  fs::remove_all(b.durable_root, ec);

  std::printf("\nworkload %s, seed %" PRIu64 ", %zu passes, %" PRIu64
              " records timed in %.3fs; gates: %" PRIu64
              " attempted, %" PRIu64 " failed\n",
              o.workload.c_str(), o.seed, untraced.passes, untraced.records,
              untraced.timed_s, b.gates.attempted, b.gates.failed);
  std::printf("pass rates (records/s):");
  for (double rate : untraced.pass_rates) std::printf(" %.0f", rate);
  std::printf("\nsamples: %zu pipelines x %zu passes, %zu queries, %zu "
              "recoveries\n",
              untraced.PipelineMedians().size(), untraced.passes,
              untraced.query_us.size(), untraced.recovery_ms.size());
  for (const Metric& m : metrics.all()) {
    std::printf("metric %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("RESULT %s\n", ResultJson(b, untraced, metrics, wal_fs).c_str());
  return b.gates.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mlprov::perfbench

int main(int argc, char** argv) { return mlprov::perfbench::Run(argc, argv); }
