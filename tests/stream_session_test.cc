#include "stream/session.h"

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/segmentation.h"
#include "metadata/types.h"
#include "simulator/provenance_sink.h"
#include "stream/fingerprint.h"

namespace mlprov::stream {
namespace {

using common::StatusCode;
using metadata::ArtifactId;
using metadata::ArtifactType;
using metadata::EventKind;
using metadata::ExecutionId;
using metadata::ExecutionType;
using metadata::Timestamp;
using sim::ProvenanceRecord;

ProvenanceRecord ContextRecord(metadata::ContextId id,
                               const std::string& name) {
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kContext;
  record.context.id = id;
  record.context.name = name;
  return record;
}

ProvenanceRecord ExecRecord(ExecutionId id, ExecutionType type,
                            Timestamp start, Timestamp end,
                            double cost = 1.0, bool succeeded = true) {
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kExecution;
  record.execution.id = id;
  record.execution.type = type;
  record.execution.start_time = start;
  record.execution.end_time = end;
  record.execution.compute_cost = cost;
  record.execution.succeeded = succeeded;
  return record;
}

ProvenanceRecord ArtifactRecord(ArtifactId id, ArtifactType type,
                                Timestamp created) {
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kArtifact;
  record.artifact.id = id;
  record.artifact.type = type;
  record.artifact.create_time = created;
  return record;
}

ProvenanceRecord EventRecord(ExecutionId exec, ArtifactId artifact,
                             EventKind kind, Timestamp time) {
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kEvent;
  record.event = {exec, artifact, kind, time};
  return record;
}

constexpr Timestamp kHour = metadata::kSecondsPerHour;

/// Feeds a minimal two-graphlet pipeline: gen -> span -> trainer1 -> m1,
/// then a second trainer over the same span much later.
class SessionFeed : public ::testing::Test {
 protected:
  void FeedPrefix(ProvenanceSession& session) {
    ASSERT_TRUE(session.Ingest(ContextRecord(1, "pipeline_0")).ok());
    ASSERT_TRUE(session
                    .Ingest(ExecRecord(1, ExecutionType::kExampleGen, 0,
                                       1 * kHour))
                    .ok());
    ASSERT_TRUE(
        session
            .Ingest(ArtifactRecord(1, ArtifactType::kExamples, 1 * kHour))
            .ok());
    ASSERT_TRUE(
        session.Ingest(EventRecord(1, 1, EventKind::kOutput, 1 * kHour))
            .ok());
    ASSERT_TRUE(session
                    .Ingest(ExecRecord(2, ExecutionType::kTrainer, 2 * kHour,
                                       3 * kHour, 10.0))
                    .ok());
    ASSERT_TRUE(
        session.Ingest(EventRecord(2, 1, EventKind::kInput, 2 * kHour))
            .ok());
    ASSERT_TRUE(
        session
            .Ingest(ArtifactRecord(2, ArtifactType::kModel, 3 * kHour))
            .ok());
    ASSERT_TRUE(
        session.Ingest(EventRecord(2, 2, EventKind::kOutput, 3 * kHour))
            .ok());
  }
};

TEST_F(SessionFeed, SegmentsHandBuiltFeed) {
  ProvenanceSession session;
  FeedPrefix(session);
  auto result = session.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->graphlets.size(), 1u);
  const core::Graphlet& g = result->graphlets[0];
  EXPECT_EQ(g.trainer, 2);
  EXPECT_EQ(g.executions, (std::vector<ExecutionId>{1, 2}));
  EXPECT_EQ(g.artifacts, (std::vector<ArtifactId>{1, 2}));
  EXPECT_EQ(g.input_spans, (std::vector<ArtifactId>{1}));
  EXPECT_EQ(g.model, 2);
  EXPECT_TRUE(session.finished());

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.records, 8u);
  EXPECT_EQ(stats.contexts, 1u);
  EXPECT_EQ(stats.executions, 2u);
  EXPECT_EQ(stats.artifacts, 2u);
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.segmenter.cells, 1u);
}

TEST_F(SessionFeed, WatermarkSealsAndLateEventsReseal) {
  SessionOptions options;
  options.segmenter.seal_grace_hours = 48.0;
  ProvenanceSession session(options);
  FeedPrefix(session);
  EXPECT_EQ(session.segmenter().TakeSealed().size(), 0u);

  // A second trainer far past the grace window seals the first cell.
  ASSERT_TRUE(session
                  .Ingest(ExecRecord(3, ExecutionType::kTrainer, 100 * kHour,
                                     101 * kHour, 10.0))
                  .ok());
  ASSERT_TRUE(
      session.Ingest(EventRecord(3, 1, EventKind::kInput, 100 * kHour))
          .ok());
  std::vector<size_t> sealed = session.segmenter().TakeSealed();
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(session.segmenter().CellTrainer(sealed[0]), 2);
  EXPECT_TRUE(session.segmenter().CellSealed(sealed[0]));
  EXPECT_EQ(session.stats().segmenter.reseals, 0u);

  // A very late evaluator consuming the sealed graphlet's model reopens
  // the cell (descendant growth), counted as a reseal.
  ASSERT_TRUE(session
                  .Ingest(ExecRecord(4, ExecutionType::kEvaluator,
                                     102 * kHour, 103 * kHour))
                  .ok());
  ASSERT_TRUE(
      session.Ingest(EventRecord(4, 2, EventKind::kInput, 102 * kHour))
          .ok());
  EXPECT_EQ(session.stats().segmenter.reseals, 1u);

  auto result = session.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->graphlets.size(), 2u);
  // The resealed graphlet picked up the late evaluator.
  EXPECT_EQ(result->graphlets[0].executions,
            (std::vector<ExecutionId>{1, 2, 4}));
}

/// Seals the prefix's cell (trainer 2) with a second trainer far past the
/// grace window and returns the sealed cell's index.
size_t SealFirstCell(ProvenanceSession& session) {
  EXPECT_TRUE(session
                  .Ingest(ExecRecord(3, ExecutionType::kTrainer, 100 * kHour,
                                     101 * kHour, 10.0))
                  .ok());
  EXPECT_TRUE(
      session.Ingest(EventRecord(3, 1, EventKind::kInput, 100 * kHour))
          .ok());
  const size_t cell = session.segmenter().CellOf(2);
  EXPECT_TRUE(session.segmenter().CellSealed(cell));
  EXPECT_EQ(session.stats().segmenter.reseals, 0u);
  return cell;
}

/// Feeds a late execution 4 of `type` that consumes `artifact`.
void ConsumeLate(ProvenanceSession& session, ExecutionType type,
                 ArtifactId artifact) {
  EXPECT_TRUE(
      session.Ingest(ExecRecord(4, type, 102 * kHour, 103 * kHour)).ok());
  EXPECT_TRUE(
      session.Ingest(EventRecord(4, artifact, EventKind::kInput, 102 * kHour))
          .ok());
}

TEST_F(SessionFeed, LateStopTypeConsumerOfASealedSpanDoesNotReseal) {
  // Transform is a descendant stop type and not an analysis type, so no
  // rule can add it to the sealed graphlet through the span it reads.
  ProvenanceSession session;
  FeedPrefix(session);
  const size_t cell = SealFirstCell(session);
  const uint64_t sealed =
      FingerprintGraphlet(session.segmenter().CellGraphlet(cell));
  ConsumeLate(session, ExecutionType::kTransform, 1);
  EXPECT_EQ(session.stats().segmenter.reseals, 0u);
  EXPECT_TRUE(session.segmenter().CellSealed(cell));
  EXPECT_EQ(FingerprintGraphlet(session.segmenter().CellGraphlet(cell)),
            sealed);

  auto result = session.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->graphlets.size(), 2u);
  EXPECT_EQ(result->graphlets[0].executions,
            (std::vector<ExecutionId>{1, 2}));
  EXPECT_EQ(FingerprintGraphlets(result->graphlets),
            FingerprintGraphlets(core::SegmentTrace(session.store())));
}

TEST_F(SessionFeed, LateAnalysisOfASealedSpanResealsAndJoins) {
  // Rule (b) admits StatisticsGen over a member span whatever the stop
  // types are, so the same late input must reopen the cell.
  ProvenanceSession session;
  FeedPrefix(session);
  const size_t cell = SealFirstCell(session);
  ConsumeLate(session, ExecutionType::kStatisticsGen, 1);
  EXPECT_EQ(session.stats().segmenter.reseals, 1u);
  EXPECT_FALSE(session.segmenter().CellSealed(cell));

  auto result = session.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->graphlets.size(), 2u);
  EXPECT_EQ(result->graphlets[0].executions,
            (std::vector<ExecutionId>{1, 2, 4}));
  EXPECT_EQ(FingerprintGraphlets(result->graphlets),
            FingerprintGraphlets(core::SegmentTrace(session.store())));
}

TEST_F(SessionFeed, NonStopTransformOfASealedModelResealsAndJoins) {
  // With Transform dropped from the stop types, rule (c) admits a
  // Transform reading the trainer's model as a descendant.
  SessionOptions options;
  options.segmenter.segmentation.descendant_stop = {ExecutionType::kTrainer};
  ProvenanceSession session(options);
  FeedPrefix(session);
  const size_t cell = SealFirstCell(session);
  ConsumeLate(session, ExecutionType::kTransform, 2);
  EXPECT_EQ(session.stats().segmenter.reseals, 1u);
  EXPECT_FALSE(session.segmenter().CellSealed(cell));

  auto result = session.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->graphlets.size(), 2u);
  EXPECT_EQ(result->graphlets[0].executions,
            (std::vector<ExecutionId>{1, 2, 4}));
  EXPECT_EQ(FingerprintGraphlets(result->graphlets),
            FingerprintGraphlets(core::SegmentTrace(
                session.store(), options.segmenter.segmentation)));
}

TEST(StreamSessionTest, OutOfOrderExecutionIdIsInvalidArgument) {
  ProvenanceSession session;
  ProvenanceRecord record =
      ExecRecord(5, ExecutionType::kExampleGen, 0, 10);
  common::Status status = session.Ingest(record);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, OutOfOrderArtifactIdIsInvalidArgument) {
  ProvenanceSession session;
  common::Status status =
      session.Ingest(ArtifactRecord(2, ArtifactType::kExamples, 0));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, EventBeforeEndpointsIsInvalidArgument) {
  ProvenanceSession session;
  common::Status status =
      session.Ingest(EventRecord(1, 1, EventKind::kOutput, 0));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, ErrorsAreStickyAndPoisonFinish) {
  ProvenanceSession session;
  ASSERT_FALSE(
      session.Ingest(ArtifactRecord(7, ArtifactType::kExamples, 0)).ok());
  // A record that would otherwise be valid is rejected with the original
  // error.
  common::Status status = session.Ingest(
      ExecRecord(1, ExecutionType::kExampleGen, 0, 10));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(session.Finish().ok());
}

TEST(StreamSessionTest, IngestAfterFinishIsFailedPrecondition) {
  ProvenanceSession session;
  ASSERT_TRUE(session.Finish().ok());
  common::Status status = session.Ingest(
      ExecRecord(1, ExecutionType::kExampleGen, 0, 10));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(session.Finish().ok());  // double Finish also rejected
}

}  // namespace
}  // namespace mlprov::stream
