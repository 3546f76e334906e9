#include "stream/shard_router.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/parallel.h"
#include "core/segmentation.h"
#include "metadata/binary_serialization.h"
#include "metadata/trace_validator.h"
#include "obs/metrics.h"
#include "simulator/provenance_sink.h"
#include "stream/supervisor.h"

namespace mlprov::stream {

namespace {

/// Hard cap on --shards: far above any useful partition count while
/// catching typo'd flag values.
constexpr size_t kMaxShards = 256;

SessionOptions MakeSessionOptions(const ShardRouterOptions& options,
                                  size_t shard, int64_t pipeline_id) {
  SessionOptions session = options.session;
  if (!session.name.empty()) {
    session.name += ".s" + std::to_string(shard) + ".p" +
                    std::to_string(pipeline_id);
  }
  return session;
}

/// One pipeline to ingest: exactly one of trace/binary is set.
struct WorkItem {
  int64_t pipeline_id = 0;
  const sim::PipelineTrace* trace = nullptr;
  const ShardedProvenanceService::BinaryPipeline* binary = nullptr;
};

/// Feeds a trace into a plain or durable session, stopping at the first
/// error. The first `skip` records are acknowledged without ingesting:
/// a recovered durable session already applied them from its
/// WAL/checkpoint (the supervisor's re-feed contract). With
/// `drop_span_stats`, span artifacts arrive without their statistics.
template <typename Session>
class FeedSink : public sim::ProvenanceSink {
 public:
  FeedSink(Session& session, uint64_t skip, bool drop_span_stats)
      : session_(session), skip_(skip), drop_span_stats_(drop_span_stats) {}

  void OnRecord(const sim::ProvenanceRecord& record) override {
    if (!status.ok()) return;
    if (skip_ > 0) {
      --skip_;
    } else if (status = Ingest(record); !status.ok()) {
      return;
    }
    ++records;
  }

  common::Status status;
  uint64_t records = 0;

 private:
  common::Status Ingest(const sim::ProvenanceRecord& record) {
    if (!drop_span_stats_ || record.span_stats == nullptr) {
      return session_.Ingest(record);
    }
    sim::ProvenanceRecord bare = record;
    bare.span_stats = nullptr;
    return session_.Ingest(bare);
  }

  Session& session_;
  uint64_t skip_;
  const bool drop_span_stats_;
};

template <typename Session>
common::StatusOr<SessionResult> FeedAndFinish(const sim::PipelineTrace& trace,
                                              Session& session, uint64_t skip,
                                              bool drop_span_stats,
                                              uint64_t& records) {
  FeedSink<Session> sink(session, skip, drop_span_stats);
  sim::ProvenanceFeeder(&sink).Finish(trace);
  records = sink.records;
  if (!sink.status.ok()) return sink.status;
  return session.Finish();
}

/// Walks an MLPB blob with the zero-copy cursor into a fresh session.
/// RecordRef views borrow cursor-internal scratch that the next record
/// overwrites, so the walk stays on the calling thread.
common::StatusOr<SessionResult> WalkBlob(std::string_view data,
                                         const SessionOptions& options,
                                         uint64_t& records) {
  auto cursor = metadata::BinaryStoreCursor::Open(data);
  if (!cursor.ok()) return cursor.status();
  ProvenanceSession session(options);
  metadata::RecordRef record;
  while (cursor->Next(&record)) {
    MLPROV_RETURN_IF_ERROR(session.Ingest(record));
    ++records;
  }
  MLPROV_RETURN_IF_ERROR(cursor->status());
  return session.Finish();
}

/// Opens the pipeline's plain or durable session, feeds it and finishes
/// it. Durable sessions journal under "<wal_dir>/shard<k>/p<id>".
common::StatusOr<SessionResult> RunSession(const ShardRouterOptions& options,
                                           const WorkItem& item, size_t shard,
                                           uint64_t& records) {
  const SessionOptions session =
      MakeSessionOptions(options, shard, item.pipeline_id);
  if (item.binary != nullptr) {
    return WalkBlob(item.binary->data, session, records);
  }
  if (options.wal_dir.empty()) {
    // Span statistics are read only by the scorer's featurizer. An
    // unscored session that dies with this call never reads its copy,
    // which is most of a large pipeline's session memory.
    ProvenanceSession plain(session);
    return FeedAndFinish(*item.trace, plain, 0,
                         /*drop_span_stats=*/session.scorer == nullptr,
                         records);
  }
  DurableOptions durable;
  durable.wal.dir = options.wal_dir + "/shard" + std::to_string(shard) +
                    "/p" + std::to_string(item.pipeline_id);
  durable.wal.sync = options.wal_sync;
  durable.checkpoint_interval = options.checkpoint_interval;
  durable.session = session;
  auto opened = DurableSession::Open(durable);
  if (!opened.ok()) return opened.status();
  return FeedAndFinish(*item.trace, *opened, opened->records(),
                       /*drop_span_stats=*/false, records);
}

/// The loop body: one whole pipeline into its slot. Mirrors
/// core::SegmentCorpus exactly: validate first, quarantine wholesale
/// when the trace cannot be trusted, fall back to the batch SegmentTrace
/// when the session fails, and drop truncated graphlets last.
void IngestPipeline(const ShardRouterOptions& options,
                    const metadata::TraceValidator& validator,
                    const WorkItem& item, ShardPipelineResult& out) {
  out.pipeline_id = item.pipeline_id;
  out.shard = ShardOf(item.pipeline_id, options.shards);
  size_t truncated = 0;
  if (item.trace != nullptr) {
    const metadata::ValidationReport report =
        validator.Validate(item.trace->store);
    if (report.NeedsQuarantine()) {
      out.quarantined = true;
      out.quarantined_graphlets =
          core::QuarantineTrace(item.trace->store, report, out.slot);
      return;
    }
    truncated = report.truncated_graphlets;
  }
  auto finished = RunSession(options, item, out.shard, out.records);
  if (finished.ok()) {
    out.result = std::move(*finished);
  } else {
    out.status = finished.status();
    if (item.trace != nullptr) {
      out.result.graphlets = core::SegmentTrace(
          item.trace->store, options.session.segmenter.segmentation);
    }
  }
  if (truncated > 0) {
    out.quarantined_graphlets =
        core::DropTruncatedGraphlets(item.trace->store, out.result.graphlets);
  }
}

common::StatusOr<ShardedResult> Run(const ShardRouterOptions& options,
                                    const std::vector<WorkItem>& items) {
  if (options.shards < 1 || options.shards > kMaxShards) {
    return common::Status::InvalidArgument(
        "shards must be in [1, " + std::to_string(kMaxShards) + "], got " +
        std::to_string(options.shards));
  }
  ShardedResult result;
  result.shards = options.shards;
  result.pipelines.resize(items.size());
  const metadata::TraceValidator validator;
  // Each body writes only its own slot. Grain 1: trace sizes vary by
  // orders of magnitude across the corpus.
  common::ParallelFor(
      items.size(),
      [&](size_t slot) {
        result.pipelines[slot].slot = slot;
        IngestPipeline(options, validator, items[slot],
                       result.pipelines[slot]);
      },
      /*grain=*/1);
  // Tallies are sequential (after the join) so they are exact and
  // thread-count independent; quarantines land on the same counter as
  // core::SegmentCorpus's.
  size_t quarantined = 0;
  for (const ShardPipelineResult& p : result.pipelines) {
    result.records += p.records;
    quarantined += p.quarantined_graphlets;
  }
  MLPROV_COUNTER_ADD("shard.records", result.records);
  MLPROV_COUNTER_ADD("shard.pipelines", items.size());
  if (quarantined > 0) MLPROV_COUNTER_ADD("trace.quarantined", quarantined);
  return result;
}

}  // namespace

core::SegmentedCorpus ShardedResult::ToSegmentedCorpus() const {
  core::SegmentedCorpus segmented;
  segmented.pipelines.resize(pipelines.size());
  for (size_t i = 0; i < pipelines.size(); ++i) {
    core::SegmentedPipeline& sp = segmented.pipelines[i];
    sp.pipeline_index = pipelines[i].slot;
    sp.graphlets = pipelines[i].result.graphlets;
    sp.quarantined_graphlets = pipelines[i].quarantined_graphlets;
  }
  return segmented;
}

std::vector<ScoreDecision> ShardedResult::MergedDecisions() const {
  std::vector<ScoreDecision> decisions;
  for (const ShardPipelineResult& p : pipelines) {
    decisions.insert(decisions.end(), p.result.decisions.begin(),
                     p.result.decisions.end());
  }
  return decisions;
}

WasteAccounting ShardedResult::TotalWaste() const {
  WasteAccounting total;
  for (const ShardPipelineResult& p : pipelines) {
    total.decisions += p.result.waste.decisions;
    total.aborts += p.result.waste.aborts;
    total.lost_pushes += p.result.waste.lost_pushes;
    total.avoided_hours += p.result.waste.avoided_hours;
  }
  return total;
}

common::Status ShardedResult::FirstError() const {
  for (const ShardPipelineResult& p : pipelines) {
    if (!p.status.ok()) return p.status;
  }
  return common::Status::Ok();
}

common::StatusOr<ShardedResult> ShardedProvenanceService::IngestCorpus(
    const sim::Corpus& corpus) {
  std::vector<WorkItem> items;
  items.reserve(corpus.pipelines.size());
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    WorkItem item;
    item.pipeline_id = trace.config.pipeline_id;
    item.trace = &trace;
    items.push_back(item);
  }
  return Run(options_, items);
}

common::StatusOr<ShardedResult> ShardedProvenanceService::IngestBinary(
    const std::vector<BinaryPipeline>& pipelines) {
  if (!options_.wal_dir.empty()) {
    return common::Status::InvalidArgument(
        "durable mode (wal_dir) is not supported for binary ingest: the "
        "WAL journals provenance records, and the binary path never "
        "materializes owned records");
  }
  std::vector<WorkItem> items;
  items.reserve(pipelines.size());
  for (const BinaryPipeline& pipeline : pipelines) {
    WorkItem item;
    item.pipeline_id = pipeline.pipeline_id;
    item.binary = &pipeline;
    items.push_back(item);
  }
  return Run(options_, items);
}

}  // namespace mlprov::stream
