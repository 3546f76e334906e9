#include "stream/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "core/waste_mitigation.h"
#include "metadata/binary_serialization.h"
#include "simulator/corpus_generator.h"
#include "stream/fingerprint.h"
#include "stream/online_scorer.h"
#include "stream/session.h"
#include "stream/streaming_segmenter.h"
#include "stream/supervisor.h"
#include "stream/wal.h"

namespace mlprov::stream {
namespace {

namespace fs = std::filesystem;
using common::StatusCode;

sim::CorpusConfig SmallConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 4;
  config.seed = 4242;
  config.horizon_days = 45.0;
  return config;
}

class StreamCheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new sim::Corpus(sim::GenerateCorpus(SmallConfig()));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("mlprov_ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static sim::Corpus* corpus_;
  std::string dir_;
};

sim::Corpus* StreamCheckpointTest::corpus_ = nullptr;

/// Runs `trace` uninterrupted and returns the result fingerprint.
uint64_t UninterruptedFingerprint(const sim::PipelineTrace& trace,
                                  const SessionOptions& options = {}) {
  ProvenanceSession session(options);
  TraceRecordSource source(trace);
  const sim::ProvenanceRecord* record = nullptr;
  for (uint64_t i = 0; (record = source.Get(i)) != nullptr; ++i) {
    EXPECT_TRUE(session.Ingest(*record).ok());
  }
  auto result = session.Finish();
  EXPECT_TRUE(result.ok()) << result.status();
  return FingerprintSessionResult(*result);
}

TEST_F(StreamCheckpointTest, SnapshotAtEveryQuarterRestoresByteIdentical) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ASSERT_GT(source.size(), 8u);
  const uint64_t expected = UninterruptedFingerprint(trace);

  for (int quarter = 1; quarter <= 3; ++quarter) {
    const uint64_t split = source.size() * quarter / 4;
    ProvenanceSession first;
    for (uint64_t i = 0; i < split; ++i) {
      ASSERT_TRUE(first.Ingest(*source.Get(i)).ok());
    }
    std::string payload;
    first.EncodeState(payload);

    ProvenanceSession second;
    auto restored = second.RestoreState(payload);
    ASSERT_TRUE(restored.ok()) << restored.message();
    EXPECT_TRUE(second.recovered());
    EXPECT_TRUE(second.Health().recovered);
    for (uint64_t i = split; i < source.size(); ++i) {
      ASSERT_TRUE(second.Ingest(*source.Get(i)).ok());
    }
    auto result = second.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FingerprintSessionResult(*result), expected)
        << "split at quarter " << quarter;
  }
}

TEST_F(StreamCheckpointTest, ScoringSessionsSnapshotTheScorerPosition) {
  auto segmented = core::SegmentCorpus(*corpus_);
  auto dataset = core::BuildWasteDataset(*corpus_, segmented);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  auto scorer = OnlineScorer::Train(*dataset);
  ASSERT_TRUE(scorer.ok()) << scorer.status();

  SessionOptions options;
  options.scorer = &*scorer;
  const sim::PipelineTrace& trace = corpus_->pipelines[1];
  TraceRecordSource source(trace);
  const uint64_t expected = UninterruptedFingerprint(trace, options);

  const uint64_t split = source.size() / 2;
  ProvenanceSession first(options);
  for (uint64_t i = 0; i < split; ++i) {
    ASSERT_TRUE(first.Ingest(*source.Get(i)).ok());
  }
  std::string payload;
  first.EncodeState(payload);

  // Recovery must attach the same scorer; a bare session is rejected.
  ProvenanceSession bare;
  EXPECT_EQ(bare.RestoreState(payload).code(),
            StatusCode::kFailedPrecondition);

  ProvenanceSession second(options);
  ASSERT_TRUE(second.RestoreState(payload).ok());
  for (uint64_t i = split; i < source.size(); ++i) {
    ASSERT_TRUE(second.Ingest(*source.Get(i)).ok());
  }
  auto result = second.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(FingerprintSessionResult(*result), expected);
  EXPECT_FALSE(result->decisions.empty());
}

TEST_F(StreamCheckpointTest, RestoreRequiresAFreshSession) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ProvenanceSession session;
  ASSERT_TRUE(session.Ingest(*source.Get(0)).ok());
  std::string payload;
  session.EncodeState(payload);

  ProvenanceSession used;
  ASSERT_TRUE(used.Ingest(*source.Get(0)).ok());
  EXPECT_EQ(used.RestoreState(payload).code(),
            StatusCode::kFailedPrecondition);
}

/// A one-cell segmenter payload hand-encoded in EncodeState's layout,
/// so a test can plant any value in any id field. The defaults describe
/// a sealed, extracted cell over the two-execution store below.
struct SegmenterPayload {
  uint8_t flags = 2 | 4;  // sealed, extracted once
  int64_t trainer = 2;
  std::vector<int64_t> executions = {1, 2};
  std::vector<int64_t> artifacts = {1, 2};
  std::vector<uint64_t> newly_sealed = {0};

  std::string Encode() const {
    using metadata::binwire::AppendSvarint;
    using metadata::binwire::AppendVarint;
    std::string out;
    AppendSvarint(out, 100);                           // watermark
    for (int i = 0; i < 5; ++i) AppendVarint(out, 1);  // stats
    AppendVarint(out, newly_sealed.size());
    for (uint64_t cell : newly_sealed) AppendVarint(out, cell);
    AppendVarint(out, 1);  // cells
    AppendSvarint(out, trainer);
    AppendSvarint(out, 20);                 // trainer end
    out.push_back(static_cast<char>(flags));
    AppendSvarint(out, trainer);            // graphlet: anchor
    for (const std::vector<int64_t>* ids : {&executions, &artifacts}) {
      AppendVarint(out, ids->size());
      for (int64_t id : *ids) AppendSvarint(out, id);
    }
    AppendVarint(out, 0);                   // input spans
    AppendSvarint(out, 2);                  // model
    out.push_back(2);                       // trainer succeeded
    for (int i = 0; i < 4; ++i) AppendSvarint(out, 10);  // times
    for (int i = 0; i < 3; ++i) walwire::AppendDouble(out, 1.0);  // costs
    AppendSvarint(out, 1);                  // code version
    out.push_back(0);                       // model type
    AppendSvarint(out, 0);                  // architecture
    return out;
  }
};

TEST_F(StreamCheckpointTest, HostileIdsInACrcValidPayloadAreRejected) {
  // A payload that passes its CRC is still untrusted: ids become
  // membership-vector indexes, and newly-sealed entries index the
  // session's per-cell arrays. Every out-of-range value must come back
  // as a Status, never as a huge allocation or a wild write.
  metadata::MetadataStore store;
  metadata::Execution gen;
  gen.type = metadata::ExecutionType::kExampleGen;
  store.PutExecution(gen);
  metadata::Execution trainer;
  trainer.type = metadata::ExecutionType::kTrainer;
  store.PutExecution(trainer);
  metadata::Artifact span;
  span.type = metadata::ArtifactType::kExamples;
  store.PutArtifact(span);
  metadata::Artifact model;
  model.type = metadata::ArtifactType::kModel;
  store.PutArtifact(model);

  {
    StreamingSegmenter segmenter(&store);
    const common::Status ok = segmenter.RestoreState(SegmenterPayload{}.Encode());
    ASSERT_TRUE(ok.ok()) << ok;
    EXPECT_EQ(segmenter.num_cells(), 1u);
  }
  constexpr int64_t kHuge = int64_t{1} << 40;
  std::vector<std::pair<std::string, SegmenterPayload>> cases;
  for (int64_t bad : {kHuge, int64_t{-1}}) {
    const std::string value = std::to_string(bad);
    SegmenterPayload p;
    p.trainer = bad;
    cases.emplace_back("cell trainer " + value, p);
    p = {};
    p.executions = {1, bad};
    cases.emplace_back("graphlet execution " + value, p);
    p = {};
    p.artifacts = {bad};
    cases.emplace_back("graphlet artifact " + value, p);
  }
  SegmenterPayload past_end;
  past_end.newly_sealed = {1};
  cases.emplace_back("newly-sealed cell past the end", past_end);

  for (const auto& [name, payload] : cases) {
    StreamingSegmenter segmenter(&store);
    const common::Status status = segmenter.RestoreState(payload.Encode());
    EXPECT_FALSE(status.ok()) << name;
    EXPECT_EQ(segmenter.num_cells(), 0u) << name;
  }
}

/// A one-cell scoring session payload hand-encoded in
/// ProvenanceSession::EncodeState's layout around `store` and an
/// unsealed, clean segmenter cell, so a test can plant any scoring row.
struct ScoringSessionPayload {
  uint8_t scoring_flags = 1;  // early-scored, not yet settled
  std::vector<double> row;

  std::string Encode(const metadata::MetadataStore& store) const {
    using metadata::binwire::AppendSvarint;
    using metadata::binwire::AppendVarint;
    std::string out;
    const std::string store_blob = metadata::SerializeStoreBinary(store);
    AppendVarint(out, store_blob.size());
    out += store_blob;
    AppendVarint(out, 0);                              // span stats
    AppendSvarint(out, 1);                             // context
    AppendVarint(out, 0);                              // trace id
    for (int i = 0; i < 5; ++i) AppendVarint(out, 1);  // counters
    SegmenterPayload cell;
    cell.flags = 4;  // clean, unsealed, extracted once
    cell.newly_sealed = {};
    const std::string segmenter = cell.Encode();
    AppendVarint(out, segmenter.size());
    out += segmenter;
    out.push_back(1);  // scorer attached
    AppendVarint(out, 0);  // featurizer history
    for (int baseline = 0; baseline < 2; ++baseline) {
      AppendVarint(out, 0);
      for (int i = 0; i < 4; ++i) walwire::AppendDouble(out, 0.0);
    }
    AppendVarint(out, 1);  // featurizer rows
    AppendVarint(out, 1);  // cell scorings
    out.push_back(static_cast<char>(scoring_flags));
    AppendVarint(out, row.size());
    for (double value : row) walwire::AppendDouble(out, value);
    AppendVarint(out, 1);                 // decisions
    AppendSvarint(out, 2);                // trainer
    out.push_back(0);                     // variant
    walwire::AppendDouble(out, 0.5);      // score
    walwire::AppendDouble(out, 0.5);      // threshold
    for (int i = 0; i < 3; ++i) walwire::AppendDouble(out, 0.5);
    out.push_back(16 | 32);               // input variants scored
    walwire::AppendDouble(out, 0.0);      // avoided hours
    for (int i = 0; i < 3; ++i) AppendVarint(out, 0);  // waste counts
    walwire::AppendDouble(out, 0.0);
    return out;
  }
};

TEST_F(StreamCheckpointTest, ScoringRowOfTheWrongLengthIsRejected) {
  // An early-scored, unsettled cell's row is rewritten in place when the
  // trainer's shape completes and read by every later Score, so a
  // CRC-valid payload must carry exactly the featurizer's column count
  // there, and no row on any other cell.
  auto segmented = core::SegmentCorpus(*corpus_);
  auto dataset = core::BuildWasteDataset(*corpus_, segmented);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  auto scorer = OnlineScorer::Train(*dataset);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  SessionOptions options;
  options.scorer = &*scorer;
  const size_t columns =
      core::GraphletFeaturizer::BuildSchema(scorer->feature_options())
          .names.size();

  // gen -> span -> trainer -> model, already ingested.
  metadata::MetadataStore store;
  metadata::Context context;
  context.name = "pipeline_0";
  store.PutContext(context);
  for (metadata::ExecutionType type : {metadata::ExecutionType::kExampleGen,
                                       metadata::ExecutionType::kTrainer}) {
    metadata::Execution e;
    e.type = type;
    e.start_time = 10;
    e.end_time = 20;
    store.PutExecution(e);
  }
  for (metadata::ArtifactType type : {metadata::ArtifactType::kExamples,
                                      metadata::ArtifactType::kModel}) {
    metadata::Artifact a;
    a.type = type;
    a.create_time = 10;
    store.PutArtifact(a);
  }
  using metadata::EventKind;
  for (const metadata::Event& event :
       {metadata::Event{1, 1, EventKind::kOutput, 10},
        metadata::Event{2, 1, EventKind::kInput, 10},
        metadata::Event{2, 2, EventKind::kOutput, 20}}) {
    ASSERT_TRUE(store.PutEvent(event).ok());
  }
  // An evaluator reading the model: the trigger that completes the
  // trainer's shape and rewrites the restored row.
  auto consume_model = [](ProvenanceSession& session) {
    sim::ProvenanceRecord exec;
    exec.kind = sim::ProvenanceRecord::Kind::kExecution;
    exec.execution.id = 3;
    exec.execution.type = metadata::ExecutionType::kEvaluator;
    exec.execution.start_time = 30;
    exec.execution.end_time = 40;
    sim::ProvenanceRecord event;
    event.kind = sim::ProvenanceRecord::Kind::kEvent;
    event.event = {3, 2, EventKind::kInput, 30};
    return session.Ingest(exec).ok() && session.Ingest(event).ok();
  };

  {
    ScoringSessionPayload control;
    control.row.assign(columns, 0.0);
    ProvenanceSession session(options);
    const common::Status ok = session.RestoreState(control.Encode(store));
    ASSERT_TRUE(ok.ok()) << ok;
    EXPECT_TRUE(consume_model(session));
    auto result = session.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->decisions.size(), 1u);
    EXPECT_TRUE(result->decisions[0].variant_scored[2]);
  }
  std::vector<std::pair<std::string, ScoringSessionPayload>> cases;
  ScoringSessionPayload p;
  p.row.assign(columns - 1, 0.0);
  cases.emplace_back("short row", p);
  p.row.assign(columns + 1, 0.0);
  cases.emplace_back("overlong row", p);
  p.row.clear();
  cases.emplace_back("empty row on an early-scored unsettled cell", p);
  p.scoring_flags = 0;  // not yet scored: no row
  p.row.assign(columns, 0.0);
  cases.emplace_back("row on an unscored cell", p);
  p.scoring_flags = 1 | 2 | 4;  // settled: row cleared
  cases.emplace_back("row on a settled cell", p);

  for (const auto& [name, payload] : cases) {
    ProvenanceSession session(options);
    const common::Status status = session.RestoreState(payload.Encode(store));
    EXPECT_FALSE(status.ok()) << name;
    // Had the restore been accepted, this trigger would write and read
    // the row past its end.
    if (status.ok()) consume_model(session);
  }
}

TEST_F(StreamCheckpointTest, FilesRoundTripWithCrcProtection) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  const uint64_t split = source.size() / 2;
  ProvenanceSession session;
  for (uint64_t i = 0; i < split; ++i) {
    ASSERT_TRUE(session.Ingest(*source.Get(i)).ok());
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, split, session).ok());

  auto listed = ListCheckpoints(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ(listed->front().records, split);

  auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->records, split);
  EXPECT_EQ(loaded->path, listed->front().path);
  EXPECT_TRUE(loaded->rejected.empty());

  std::string direct;
  session.EncodeState(direct);
  EXPECT_EQ(loaded->payload, direct);
}

TEST_F(StreamCheckpointTest, DamagedNewestFallsBackToOlder) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ProvenanceSession session;
  uint64_t fed = 0;
  for (; fed < source.size() / 3; ++fed) {
    ASSERT_TRUE(session.Ingest(*source.Get(fed)).ok());
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, fed, session).ok());
  const uint64_t older = fed;
  for (; fed < source.size() / 2; ++fed) {
    ASSERT_TRUE(session.Ingest(*source.Get(fed)).ok());
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, fed, session).ok());

  // Flip a byte in the newest file: CRC must reject it.
  auto listed = ListCheckpoints(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  const std::string newest = listed->back().path;
  {
    std::ifstream in(newest, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->records, older);
  ASSERT_EQ(loaded->rejected.size(), 1u);
  EXPECT_EQ(loaded->rejected.front(), newest);

  // The fallback payload still restores.
  ProvenanceSession recovered;
  EXPECT_TRUE(recovered.RestoreState(loaded->payload).ok());
}

TEST_F(StreamCheckpointTest, PruneKeepsTheNewestAndReportsTheOldestKept) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ProvenanceSession session;
  std::vector<uint64_t> written;
  uint64_t fed = 0;
  for (int i = 0; i < 5; ++i) {
    const uint64_t target = source.size() * (i + 1) / 6;
    for (; fed < target; ++fed) {
      ASSERT_TRUE(session.Ingest(*source.Get(fed)).ok());
    }
    ASSERT_TRUE(WriteCheckpoint(dir_, fed, session).ok());
    written.push_back(fed);
  }

  auto oldest_kept = PruneCheckpoints(dir_, 2);
  ASSERT_TRUE(oldest_kept.ok());
  EXPECT_EQ(*oldest_kept, written[3]);
  auto listed = ListCheckpoints(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ(listed->front().records, written[3]);
  EXPECT_EQ(listed->back().records, written[4]);

  auto all = PruneCheckpoints(dir_, 1);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, written[4]);
}

TEST_F(StreamCheckpointTest, EmptyDirectoryIsAFreshStart) {
  auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->found);
  auto missing = LoadNewestCheckpoint(dir_ + "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->found);
  auto pruned = PruneCheckpoints(dir_, 3);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(*pruned, 0u);
}

}  // namespace
}  // namespace mlprov::stream
