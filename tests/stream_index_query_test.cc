/// Session-level property tests for the lazy provenance index: the
/// TraceQuery surface (which catches the index up on every Query())
/// must be byte-identical to TraceView recompute at EVERY ingest prefix
/// of a simulated feed — on plain, fault-injected, and cached corpora,
/// at any thread count, under sharded ingestion, after crash recovery
/// (DurableSession::Open), and after reseals — and the graphlet-
/// membership queries must match batch segmentation.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoints.h"
#include "common/parallel.h"
#include "core/graphlet_analysis.h"
#include "core/provenance_index.h"
#include "core/segmentation.h"
#include "metadata/trace.h"
#include "simulator/corpus_generator.h"
#include "stream/fingerprint.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/shard_router.h"
#include "stream/supervisor.h"

namespace mlprov::stream {
namespace {

namespace fs = std::filesystem;
using metadata::ArtifactId;
using metadata::ExecutionId;
using metadata::TraceView;

sim::CorpusConfig SmallConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 3;
  config.seed = 4242;
  config.horizon_days = 40.0;
  return config;
}

sim::CorpusConfig FaultyConfig() {
  sim::CorpusConfig config = SmallConfig();
  config.seed = 4243;
  auto plan = common::FaultPlan::Parse(
      "exec.trainer:transient:0.2,exec.pusher:persistent:0.1,"
      "exec.transform:transient:0.05");
  EXPECT_TRUE(plan.ok());
  config.fault_plan = *plan;
  config.max_retries = 2;
  return config;
}

sim::CorpusConfig CachedConfig() {
  sim::CorpusConfig config = SmallConfig();
  config.seed = 4244;
  config.cache_policy = sim::CachePolicy::kLru;
  config.cache_capacity = 64;
  return config;
}

class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : saved_(common::GlobalThreads()) {
    common::SetGlobalThreads(threads);
  }
  ~ScopedThreads() { common::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

/// Full sweep: every execution's indexed closures against the TraceView
/// recompute over the session's replicated store.
void ExpectQueriesMatchTraceView(const ProvenanceSession& session) {
  const metadata::MetadataStore& store = session.store();
  core::TraceQuery query = session.Query();
  ASSERT_TRUE(session.index().InSync());
  TraceView view(&store);
  const auto n = static_cast<ExecutionId>(store.num_executions());
  for (ExecutionId exec = 1; exec <= n; ++exec) {
    auto anc = query.AncestorsOf(exec);
    ASSERT_TRUE(anc.ok()) << anc.status();
    EXPECT_EQ(*anc, view.AncestorExecutions(exec)) << "exec " << exec;
    auto desc = query.DescendantsOf(exec);
    ASSERT_TRUE(desc.ok()) << desc.status();
    EXPECT_EQ(*desc, view.DescendantExecutions(exec)) << "exec " << exec;
    auto arts = query.AncestorArtifactsOf(exec);
    ASSERT_TRUE(arts.ok()) << arts.status();
    EXPECT_EQ(*arts, view.AncestorArtifacts(exec)) << "exec " << exec;
  }
}

/// Every artifact's LineageOf against its TraceView composition: the
/// producers, plus the union of their ancestor closures.
void ExpectLineageMatchesTraceView(const ProvenanceSession& session) {
  const metadata::MetadataStore& store = session.store();
  core::TraceQuery query = session.Query();
  TraceView view(&store);
  const auto num_artifacts = static_cast<ArtifactId>(store.num_artifacts());
  for (ArtifactId a = 1; a <= num_artifacts; ++a) {
    auto lineage = query.LineageOf(a);
    ASSERT_TRUE(lineage.ok()) << lineage.status();
    std::vector<ExecutionId> want_execs = store.ProducersOf(a);
    std::vector<ArtifactId> want_artifacts = {a};
    for (ExecutionId p : store.ProducersOf(a)) {
      for (ExecutionId u : view.AncestorExecutions(p)) {
        want_execs.push_back(u);
      }
      for (ArtifactId in : view.AncestorArtifacts(p)) {
        want_artifacts.push_back(in);
      }
    }
    for (auto* ids : {&want_execs, &want_artifacts}) {
      std::sort(ids->begin(), ids->end());
      ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    }
    EXPECT_EQ(lineage->producers, store.ProducersOf(a)) << "artifact " << a;
    EXPECT_EQ(lineage->executions, want_execs) << "artifact " << a;
    EXPECT_EQ(lineage->artifacts, want_artifacts) << "artifact " << a;
  }
}

/// One rotating spot check, cheap enough to run after every record.
void SpotCheckPrefix(const ProvenanceSession& session, uint64_t step) {
  const metadata::MetadataStore& store = session.store();
  const size_t n = store.num_executions();
  if (n == 0) return;
  core::TraceQuery query = session.Query();
  ASSERT_TRUE(session.index().InSync());
  TraceView view(&store);
  const auto exec = static_cast<ExecutionId>(step % n + 1);
  auto anc = query.AncestorsOf(exec);
  ASSERT_TRUE(anc.ok()) << anc.status();
  EXPECT_EQ(*anc, view.AncestorExecutions(exec))
      << "prefix " << step << " exec " << exec;
  auto desc = query.DescendantsOf(exec);
  ASSERT_TRUE(desc.ok()) << desc.status();
  EXPECT_EQ(*desc, view.DescendantExecutions(exec))
      << "prefix " << step << " exec " << exec;
}

TEST(StreamIndexQueryTest, EveryIngestPrefixMatchesTraceViewRecompute) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    ProvenanceSession session;
    TraceRecordSource source(trace);
    const sim::ProvenanceRecord* record = nullptr;
    for (uint64_t i = 0; (record = source.Get(i)) != nullptr; ++i) {
      ASSERT_TRUE(session.Ingest(*record).ok());
      // Each Query() catches the index up by one record: spot-check a
      // rotating execution at every prefix, and sweep periodically.
      SpotCheckPrefix(session, i);
      if (i % 64 == 0) ExpectQueriesMatchTraceView(session);
    }
    ExpectQueriesMatchTraceView(session);
    auto result = session.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
  }
}

/// Replays whole traces (fault-injected and cache-hit corpora included)
/// and checks the full sweep plus the graphlet-membership queries
/// against batch segmentation.
void ExpectCorpusQueriesMatch(const sim::Corpus& corpus) {
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    ProvenanceSession session;
    ASSERT_TRUE(ReplayTrace(trace, session).ok());
    ExpectQueriesMatchTraceView(session);
    ExpectLineageMatchesTraceView(session);
    auto result = session.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FingerprintGraphlets(result->graphlets),
              FingerprintGraphlets(core::SegmentTrace(trace.store)));

    // GraphletsTouchingSpan == batch membership, artifact by artifact.
    core::TraceQuery query = session.Query();
    const auto num_artifacts =
        static_cast<ArtifactId>(session.store().num_artifacts());
    for (ArtifactId a = 1; a <= num_artifacts; ++a) {
      std::vector<ExecutionId> want;
      for (const core::Graphlet& g : result->graphlets) {
        for (ArtifactId member : g.artifacts) {
          if (member == a) {
            want.push_back(g.trainer);
            break;
          }
        }
      }
      std::sort(want.begin(), want.end());
      auto got = query.GraphletsTouchingSpan(a);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, want) << "artifact " << a;
    }
  }
}

TEST(StreamIndexQueryTest, FaultInjectedCorpusMatches) {
  ExpectCorpusQueriesMatch(sim::GenerateCorpus(FaultyConfig()));
}

TEST(StreamIndexQueryTest, CachedCorpusMatches) {
  ExpectCorpusQueriesMatch(sim::GenerateCorpus(CachedConfig()));
}

TEST(StreamIndexQueryTest, QueryResultsIdenticalAcrossThreadCounts) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  auto fingerprints = [&](int threads) {
    ScopedThreads scoped(threads);
    std::vector<uint64_t> out(corpus.pipelines.size());
    common::ParallelFor(corpus.pipelines.size(), [&](size_t i) {
      ProvenanceSession session;
      (void)ReplayTrace(corpus.pipelines[i], session);
      core::TraceQuery query = session.Query();
      uint64_t hash = 14695981039346656037ull;
      auto fold = [&hash](const std::vector<ExecutionId>& ids) {
        for (ExecutionId id : ids) {
          hash ^= static_cast<uint64_t>(id);
          hash *= 1099511628211ull;
        }
        hash ^= ids.size() + 1;
        hash *= 1099511628211ull;
      };
      const auto n =
          static_cast<ExecutionId>(session.store().num_executions());
      for (ExecutionId exec = 1; exec <= n; ++exec) {
        auto anc = query.AncestorsOf(exec);
        auto desc = query.DescendantsOf(exec);
        if (anc.ok()) fold(*anc);
        if (desc.ok()) fold(*desc);
      }
      out[i] = hash;
    });
    return out;
  };
  const std::vector<uint64_t> t1 = fingerprints(1);
  EXPECT_EQ(t1, fingerprints(4));
  EXPECT_EQ(t1, fingerprints(8));
}

TEST(StreamIndexQueryTest, ShardedIngestionKeepsIndexedResultsIdentical) {
  // The sharded service's per-pipeline sessions never query, so their
  // indexes stay empty; the merged output must stay byte-identical to
  // the batch fingerprint at every shard and thread count.
  for (const sim::CorpusConfig& config : {SmallConfig(), FaultyConfig()}) {
    const sim::Corpus corpus = sim::GenerateCorpus(config);
    const core::SegmentedCorpus batch = core::SegmentCorpus(corpus);
    for (int threads : {1, 4}) {
      ScopedThreads scoped(threads);
      for (size_t shards : {1u, 4u, 8u}) {
        ShardRouterOptions options;
        options.shards = shards;
        ShardedProvenanceService service(options);
        auto result = service.IngestCorpus(corpus);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_TRUE(result->FirstError().ok()) << result->FirstError();
        const core::SegmentedCorpus merged = result->ToSegmentedCorpus();
        ASSERT_EQ(merged.pipelines.size(), batch.pipelines.size());
        for (size_t i = 0; i < batch.pipelines.size(); ++i) {
          EXPECT_EQ(FingerprintGraphlets(merged.pipelines[i].graphlets),
                    FingerprintGraphlets(batch.pipelines[i].graphlets))
              << "pipeline " << i << " shards " << shards << " threads "
              << threads;
        }
      }
    }
  }
}

TEST(StreamIndexQueryTest, RecoveredSessionRebuildsTheIndex) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const std::string dir =
      (fs::temp_directory_path() / "mlprov_index_recovery").string();
  uint64_t replayed = 0;
  for (size_t t = 0; t < corpus.pipelines.size(); ++t) {
    fs::remove_all(dir);
    TraceRecordSource source(corpus.pipelines[t]);
    const uint64_t n = source.size();

    // Uninterrupted reference.
    uint64_t expected = 0;
    {
      ProvenanceSession session;
      const sim::ProvenanceRecord* record = nullptr;
      for (uint64_t i = 0; (record = source.Get(i)) != nullptr; ++i) {
        ASSERT_TRUE(session.Ingest(*record).ok());
      }
      auto result = session.Finish();
      ASSERT_TRUE(result.ok()) << result.status();
      expected = FingerprintSessionResult(*result);
    }

    DurableOptions options;
    options.wal.dir = dir;
    options.wal.sync = WalSyncPolicy::kInterval;
    options.wal.sync_interval_records = 8;
    options.checkpoint_interval = 16;

    auto first = DurableSession::Open(options);
    ASSERT_TRUE(first.ok()) << first.status();
    while (first->records() < n / 2) {
      const sim::ProvenanceRecord* record = source.Get(first->records());
      ASSERT_NE(record, nullptr);
      ASSERT_TRUE(first->Ingest(*record).ok());
    }
    ASSERT_TRUE(first->SimulateCrash(first->unsynced_wal_bytes() / 2).ok());

    auto second = DurableSession::Open(options);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_TRUE(second->recovery().used_checkpoint) << "trace " << t;
    replayed += second->recovery().replayed_records;
    // The index is not persisted and nothing calls CatchUp: the first
    // Query() builds it over the checkpoint plus the replayed WAL tail.
    EXPECT_EQ(second->session().index().label_bytes(), 0u);
    ExpectQueriesMatchTraceView(second->session());
    ExpectLineageMatchesTraceView(second->session());

    const sim::ProvenanceRecord* record = nullptr;
    while ((record = source.Get(second->records())) != nullptr) {
      ASSERT_TRUE(second->Ingest(*record).ok());
    }
    ExpectQueriesMatchTraceView(second->session());
    auto result = second->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FingerprintSessionResult(*result), expected) << "trace " << t;
    fs::remove_all(dir);
  }
  EXPECT_GT(replayed, 0u) << "no recovery replayed a WAL tail";
}

TEST(StreamIndexQueryTest, ResealsKeepIndexedExtractionIdentical) {
  // A tight seal grace forces cells to seal early and reopen on late
  // post-trainer events; resealed cells re-extract, and the session must
  // still finish byte-identical to batch segmentation and answer
  // queries like TraceView.
  const sim::Corpus corpus = sim::GenerateCorpus(FaultyConfig());
  size_t total_reseals = 0;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    SessionOptions options;
    options.segmenter.seal_grace_hours = 12.0;
    ProvenanceSession session(options);
    ASSERT_TRUE(ReplayTrace(trace, session).ok());
    total_reseals += session.stats().segmenter.reseals;
    ExpectQueriesMatchTraceView(session);
    auto result = session.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FingerprintGraphlets(result->graphlets),
              FingerprintGraphlets(core::SegmentTrace(trace.store)));
    ExpectQueriesMatchTraceView(session);
  }
  EXPECT_GT(total_reseals, 0u) << "grace too lax to exercise reseals";
}

TEST(StreamIndexQueryTest, NeverQueriedSessionBuildsIndexOnFirstQuery) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const sim::PipelineTrace& trace = corpus.pipelines[0];
  ProvenanceSession session;
  ASSERT_TRUE(ReplayTrace(trace, session).ok());
  // Ingest never feeds the index: a full replay leaves it empty.
  EXPECT_EQ(session.index().label_bytes(), 0u);
  EXPECT_FALSE(session.index().InSync());
  ExpectQueriesMatchTraceView(session);
  EXPECT_GT(session.index().label_bytes(), 0u);
  auto result = session.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(FingerprintGraphlets(result->graphlets),
            FingerprintGraphlets(core::SegmentTrace(trace.store)));
}

}  // namespace
}  // namespace mlprov::stream
