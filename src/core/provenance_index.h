#ifndef MLPROV_CORE_PROVENANCE_INDEX_H_
#define MLPROV_CORE_PROVENANCE_INDEX_H_

/// Lazy provenance index + TraceQuery engine for interactive queries.
///
/// metadata::TraceView recomputes ancestor/descendant closures from
/// scratch on every call; at millions of executions that is the next
/// scaling wall. ProvenanceIndex keeps one reachability label per
/// execution so closure queries decode a bitset instead of walking the
/// graph. The index serves queries only: nothing on the ingest or
/// segmentation path reads it, so it is built lazily — CatchUp() (the
/// only entry point) brings it level with its store, and a streaming
/// session calls it from Query(), never per record.
///
/// Label: anc(v) — bit u set iff execution u reaches v through
/// output→input edges. Invariant after every CatchUp: the labels equal
/// the least fixpoint of
///     anc(v) = ⋃ over edges u→v of {u} ∪ anc(u)
/// over the execution-level edge set {u→v : some artifact is an output
/// of u and an input of v}, taken from the store's adjacency (so an
/// event the store recorded but did not index stays invisible). New
/// edges are applied with a worklist propagation, which also handles
/// backward (high id → low id) and cyclic edges; in feed order the
/// worklist stays empty and maintenance is a handful of bitset unions.
///
/// CatchUp's cost scales with the records added since the previous
/// call: new edges are derived only from the artifacts that the new
/// events touch (their producers × consumers).
///
/// Memory cost: one execution bitset per execution ≈ n/8 bytes for a
/// trace of n executions — ~1.25 KB per execution at n = 10 000.
///
/// The store must outlive the index and may only grow (dense 1-based
/// ids, the feed-order contract). Mutating repairs (DropInvalidEvents,
/// ValidateAndRepair) invalidate an already-built index — run them
/// first, then CatchUp a fresh index.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "metadata/metadata_store.h"
#include "metadata/trace.h"
#include "metadata/types.h"

namespace mlprov::core {

/// Dense bitset over 1-based node ids, grown lazily. Word layout is
/// bit = id (bit 0 unused) so decode needs no offset arithmetic.
class IdBitset {
 public:
  /// Sets `bit`; returns true iff it was newly set.
  bool Set(size_t bit);
  bool Test(size_t bit) const;
  /// Unions `other` in; returns true iff any bit changed.
  bool UnionWith(const IdBitset& other);
  /// Calls `fn(bit)` for every set bit in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      while (w != 0) {
        fn(i * 64 + static_cast<size_t>(CountTrailingZeros(w)));
        w &= w - 1;
      }
    }
  }
  size_t capacity_bytes() const {
    return words_.capacity() * sizeof(uint64_t);
  }

 private:
  static int CountTrailingZeros(uint64_t w);
  std::vector<uint64_t> words_;
};

class ProvenanceIndex {
 public:
  explicit ProvenanceIndex(const metadata::MetadataStore* store)
      : store_(store) {}

  /// Indexes everything the store gained since the previous call. Safe
  /// to repeat; a no-op when nothing was added.
  void CatchUp();

  /// True when the index has processed every record the store holds.
  /// Label-decoding queries require this (TraceQuery enforces it).
  bool InSync() const;

  // ---- label-decode queries (ids are not range-checked here;
  //      TraceQuery wraps them in a StatusOr surface) ----

  /// Ancestor executions of `exec`, ascending — byte-identical to
  /// TraceView::AncestorExecutions.
  std::vector<metadata::ExecutionId> Ancestors(
      metadata::ExecutionId exec) const;
  /// Artifacts reachable backwards from `exec`, ascending —
  /// byte-identical to TraceView::AncestorArtifacts.
  std::vector<metadata::ArtifactId> AncestorArtifacts(
      metadata::ExecutionId exec) const;
  /// Descendant executions (no stop predicate), ascending — a column
  /// scan over the anc labels.
  std::vector<metadata::ExecutionId> Descendants(
      metadata::ExecutionId exec) const;

  const metadata::MetadataStore& store() const { return *store_; }
  size_t num_indexed_executions() const { return anc_.size(); }
  /// Bytes held by the reachability labels (the index's memory cost).
  size_t label_bytes() const;

 private:
  /// Registers edge u→v (idempotent); applies the label delta and runs
  /// the worklist propagation if v's label changed.
  void AddEdge(metadata::ExecutionId u, metadata::ExecutionId v);
  /// Unions u's contribution into v. Returns true iff v's label changed.
  bool ApplyEdge(metadata::ExecutionId u, metadata::ExecutionId v);
  void PropagateFrom(metadata::ExecutionId v);

  const metadata::MetadataStore* store_;

  /// Labels, parallel to store executions (index = id - 1).
  std::vector<IdBitset> anc_;
  /// Deduplicated out-edges (u → consumers of u's outputs).
  std::vector<std::vector<metadata::ExecutionId>> out_;
  /// Worklist scratch for propagation (grown lazily, reset per run).
  std::vector<metadata::ExecutionId> worklist_;
  std::vector<char> in_worklist_;

  size_t indexed_artifacts_ = 0;
  size_t indexed_events_ = 0;
};

/// Live graphlet-membership source for TraceQuery::GraphletsTouchingSpan.
/// Implemented by stream::StreamingSegmenter over its membership
/// indexes; memberships reflect each cell's last extraction.
class GraphletMembershipProvider {
 public:
  virtual ~GraphletMembershipProvider() = default;
  /// Trainer anchors of the graphlets whose membership contains
  /// `artifact`, ascending and deduplicated.
  virtual std::vector<metadata::ExecutionId> TrainersTouchingArtifact(
      metadata::ArtifactId artifact) const = 0;
};

/// Ancestor closure of one artifact: who made it, and everything that
/// fed into making it.
struct LineageResult {
  /// Executions that produced the artifact, in event order (usually 1).
  std::vector<metadata::ExecutionId> producers;
  /// Producers plus all their ancestor executions, ascending.
  std::vector<metadata::ExecutionId> executions;
  /// The artifact itself plus every artifact reachable backwards from
  /// its producers, ascending.
  std::vector<metadata::ArtifactId> artifacts;
};

struct TimeWindowOptions {
  /// Half-open window [from, to): executions whose [start_time,
  /// end_time] overlaps it are returned.
  metadata::Timestamp from = 0;
  metadata::Timestamp to = 0;
};

/// The unified query surface over a store + its ProvenanceIndex:
/// options-struct + StatusOr, shared between interactive consumers
/// (trace_explorer) and the analysis stack. Queries against out-of-range
/// ids return NotFound; label-decoding queries on an index that has not
/// caught up with its store return FailedPrecondition. The query object
/// borrows everything and is cheap to construct per use.
class TraceQuery {
 public:
  TraceQuery(const metadata::MetadataStore* store,
             const ProvenanceIndex* index,
             const GraphletMembershipProvider* graphlets = nullptr)
      : store_(store), index_(index), graphlets_(graphlets) {}

  /// Ancestor executions of `exec`, ascending (byte-identical to
  /// TraceView::AncestorExecutions).
  common::StatusOr<std::vector<metadata::ExecutionId>> AncestorsOf(
      metadata::ExecutionId exec) const;

  /// Ancestor artifacts of `exec`, ascending (byte-identical to
  /// TraceView::AncestorArtifacts).
  common::StatusOr<std::vector<metadata::ArtifactId>> AncestorArtifactsOf(
      metadata::ExecutionId exec) const;

  /// Descendant executions under `options` (byte-identical to
  /// TraceView::DescendantExecutions with the equivalent stop). Stop-free
  /// queries decode labels; any stop set or predicate runs the TraceView
  /// walk against the store.
  common::StatusOr<std::vector<metadata::ExecutionId>> DescendantsOf(
      metadata::ExecutionId exec,
      const metadata::TraverseOptions& options = {}) const;

  /// Full backward closure of one artifact.
  common::StatusOr<LineageResult> LineageOf(
      metadata::ArtifactId artifact) const;

  /// Trainer anchors of the graphlets touching `span` (any member
  /// artifact qualifies). Requires a GraphletMembershipProvider — the
  /// streaming segmenter — else FailedPrecondition.
  common::StatusOr<std::vector<metadata::ExecutionId>> GraphletsTouchingSpan(
      metadata::ArtifactId span) const;

  /// Executions whose [start_time, end_time] overlaps [from, to),
  /// ascending. InvalidArgument when to < from.
  common::StatusOr<std::vector<metadata::ExecutionId>> TimeWindowSlice(
      const TimeWindowOptions& options) const;

 private:
  common::Status CheckExecution(metadata::ExecutionId exec) const;
  common::Status CheckArtifact(metadata::ArtifactId artifact) const;
  common::Status CheckInSync() const;

  const metadata::MetadataStore* store_;
  const ProvenanceIndex* index_;
  const GraphletMembershipProvider* graphlets_;
};

}  // namespace mlprov::core

#endif  // MLPROV_CORE_PROVENANCE_INDEX_H_
