#ifndef MLPROV_STREAM_SHARD_ROUTER_H_
#define MLPROV_STREAM_SHARD_ROUTER_H_

/// Sharded multi-session provenance service: the scale-out layer over
/// ProvenanceSession. Every pipeline of a corpus is ingested whole, in
/// straight-line code, by one body of a common::ParallelFor over the
/// submission slots on the global pool, so concurrency is --threads, as
/// for every other per-pipeline fold. A deterministic merge layer
/// reassembles the corpus-level segmentation, ScoreDecisions, and waste
/// accounting byte-identical to a single-session replay of every
/// pipeline, at any shard and thread count. See DESIGN.md "Sharded
/// provenance service" for the routing invariant and the
/// merge-determinism argument.
///
/// Sharding unit: the *pipeline*, never the record. The feed-order
/// contract (simulator/provenance_sink.h) defines a per-pipeline record
/// order, so one pipeline's feed must land on exactly one session.
/// Hashing the pipeline id (ShardOf) picks two things only: the slot's
/// `shard` tag and, in durable mode, the per-shard WAL layout
/// "<wal_dir>/shard<k>/p<id>".

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/graphlet_analysis.h"
#include "simulator/corpus.h"
#include "stream/session.h"
#include "stream/wal.h"

namespace mlprov::stream {

/// FNV-1a over the little-endian bytes of the pipeline id. This is the
/// wire-stable routing hash: the same pipeline id maps to the same
/// value in every run and on every platform (goldens in
/// stream_shard_test.cc pin it).
constexpr uint64_t ShardHash(int64_t pipeline_id) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  auto bits = static_cast<uint64_t>(pipeline_id);
  for (int i = 0; i < 8; ++i) {
    hash ^= (bits >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

/// The routing invariant: pipeline -> shard, total and deterministic.
constexpr size_t ShardOf(int64_t pipeline_id, size_t shards) {
  return shards <= 1 ? 0 : static_cast<size_t>(ShardHash(pipeline_id) %
                                               static_cast<uint64_t>(shards));
}

struct ShardRouterOptions {
  /// Number of shards the pipeline space is partitioned into. Picks each
  /// slot's `shard` tag and the durable WAL layout; concurrency is the
  /// global --threads knob (common::GlobalThreads), not this.
  size_t shards = 1;
  /// Per-pipeline session template. `segmenter`/`scorer` apply to every
  /// session (the scorer is borrowed const state, shared across shards).
  /// `name` prefixes per-pipeline session names ("<name>.s<shard>.p<id>")
  /// and thus health-gauge families; empty (default) keeps sessions
  /// unnamed so a large corpus does not flood the registry.
  SessionOptions session;
  /// Non-empty makes every session durable: pipeline `id` routed
  /// to shard `k` journals under "<wal_dir>/shard<k>/p<id>" — one WAL +
  /// checkpoint directory per session, so shards never contend on a log
  /// and a crashed shard recovers independently.
  std::string wal_dir;
  WalSyncPolicy wal_sync = WalSyncPolicy::kInterval;
  /// Checkpoint every N records per durable session (0 = WAL only).
  uint64_t checkpoint_interval = 0;
};

/// Per-pipeline outcome, in submission (corpus) order — the unit of the
/// deterministic merge.
struct ShardPipelineResult {
  size_t slot = 0;  // submission index (== corpus index for IngestCorpus)
  int64_t pipeline_id = 0;
  size_t shard = 0;
  SessionResult result;
  /// Mirrors core::SegmentCorpus: whole-trace quarantine or truncated
  /// graphlets dropped after segmentation.
  size_t quarantined_graphlets = 0;
  bool quarantined = false;
  /// Records the session acknowledged (a recovered durable session
  /// counts the records its WAL/checkpoint replay already applied).
  uint64_t records = 0;
  /// Not OK when the session could not be opened, poisoned, or failed
  /// to finish. A trace slot then carries the SegmentTrace fallback,
  /// exactly like SegmentCorpus; a binary slot stays empty.
  common::Status status;
};

/// The merged, submission-ordered view of a sharded run. All merge
/// output is a pure fold over `pipelines` in slot order, so it is
/// byte-identical at any shard/thread count (see DESIGN.md).
struct ShardedResult {
  std::vector<ShardPipelineResult> pipelines;
  size_t shards = 0;
  /// Sum of the slots' records, on the corpus and the binary path.
  uint64_t records = 0;
  /// Always 0: the service has no queues, so it never stalls and has no
  /// depth. Kept only because the benchmark still reads them.
  uint64_t backpressure_stalls = 0;
  size_t queue_depth_peak = 0;

  /// Corpus-level segmentation, byte-identical to core::SegmentCorpus
  /// over the same corpus and options.
  core::SegmentedCorpus ToSegmentedCorpus() const;
  /// All settled decisions, concatenated in slot order.
  std::vector<ScoreDecision> MergedDecisions() const;
  /// Waste accounting summed in slot order.
  WasteAccounting TotalWaste() const;
  /// First non-OK per-pipeline status in slot order (OK when none).
  common::Status FirstError() const;
};

/// The sharded service. One instance per ingest run:
///
///   ShardRouterOptions options;
///   options.shards = 4;
///   ShardedProvenanceService service(options);
///   auto result = service.IngestCorpus(corpus);
///
/// IngestCorpus ingests every pipeline of the corpus and blocks until
/// the merge is complete. IngestBinary does the same for serialized MLPB
/// pipelines: each blob's BinaryStoreCursor is walked inside the loop
/// body that owns the pipeline, so cursor views never cross threads
/// (they borrow cursor-internal scratch that the next record
/// overwrites).
///
/// Reentrancy: called from inside a ParallelFor body, the fold runs
/// inline and sequentially (ParallelFor inlines nested loops), with the
/// same results by the merge-determinism property.
class ShardedProvenanceService {
 public:
  explicit ShardedProvenanceService(const ShardRouterOptions& options)
      : options_(options) {}

  /// Ingests every pipeline trace; fails fast on invalid options
  /// (shards out of [1, 256]). Per-pipeline failures do not abort the
  /// run — they are reported in the slots.
  common::StatusOr<ShardedResult> IngestCorpus(const sim::Corpus& corpus);

  /// A serialized pipeline for the sharded zero-copy path: the id must
  /// accompany the blob because the shard is picked before decoding.
  struct BinaryPipeline {
    int64_t pipeline_id = 0;
    std::string_view data;  // MLPB blob, borrowed for the call
  };

  /// Sharded zero-copy ingest. Durable mode is rejected here
  /// (InvalidArgument): the WAL journals provenance records, and the
  /// binary path deliberately never materializes owned records.
  common::StatusOr<ShardedResult> IngestBinary(
      const std::vector<BinaryPipeline>& pipelines);

  const ShardRouterOptions& options() const { return options_; }

 private:
  ShardRouterOptions options_;
};

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_SHARD_ROUTER_H_
