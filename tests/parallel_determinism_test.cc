// Regression test for the parallel execution backbone's core contract:
// generating and analyzing a corpus, fitting a random forest and training
// the online scorer at --threads=1, 2, 4 and 8 must produce byte-identical
// serialized pipelines and bit-identical reported statistics, predictions
// and thresholds (DESIGN.md "Parallelism & determinism").
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "metadata/serialization.h"
#include "ml/dataset.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "simulator/corpus_generator.h"
#include "stream/online_scorer.h"

namespace mlprov {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything the analyses report, rendered to one string: per-pipeline
/// serialized stores, sampled configs, span statistics, and the Table 1
/// similarity values. Two runs are equivalent iff the strings are equal.
std::string RunFingerprint(const sim::Corpus& corpus,
                           const core::SegmentedCorpus& segmented,
                           const core::SimilarityTable& table) {
  std::string fp;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    fp += metadata::SerializeStore(trace.store);
    fp += "config ";
    fp += std::to_string(trace.config.pipeline_id) + " " +
          std::to_string(trace.config.seed) + " " +
          FormatDouble(trace.config.lifespan_days) + " " +
          FormatDouble(trace.config.triggers_per_day) + " " +
          std::to_string(trace.config.num_features) + "\n";
    for (const auto& [artifact, stats] : trace.span_stats) {
      fp += "span " + std::to_string(artifact) + " " +
            std::to_string(stats.span_number) + " " +
            std::to_string(stats.NumFeatures()) + "\n";
    }
  }
  for (const core::SegmentedPipeline& sp : segmented.pipelines) {
    fp += "graphlets " + std::to_string(sp.pipeline_index) + " " +
          std::to_string(sp.graphlets.size()) + "\n";
  }
  fp += "pairs " + std::to_string(table.num_pairs) + "\n";
  fp += "jaccard_mean " + FormatDouble(table.jaccard_mean) + "\n";
  fp += "dataset_mean " + FormatDouble(table.dataset_mean) + "\n";
  fp += "avg_dataset_mean " + FormatDouble(table.avg_dataset_mean) + "\n";
  for (const double h : table.jaccard_hist) {
    fp += "jh " + FormatDouble(h) + "\n";
  }
  for (const double h : table.dataset_hist) {
    fp += "dh " + FormatDouble(h) + "\n";
  }
  return fp;
}

/// The simulator/analysis counters whose values must not depend on the
/// thread count (they count work items, not scheduling).
const char* kInvariantCounters[] = {
    "sim.pipelines_generated", "sim.qualify_retries", "sim.executions",
    "sim.artifacts",           "sim.trainers",        "sim.triggers",
    "sim.spans_ingested",      "sim.graphlets_pushed",
    "sim.graphlets_wasted",    "core.graphlets_segmented"};

struct RunResult {
  std::string fingerprint;
  std::map<std::string, uint64_t> counters;
};

RunResult RunAtThreads(int threads) {
  common::SetGlobalThreads(threads);
  obs::Registry::Global().Reset();
  sim::CorpusConfig config;
  config.num_pipelines = 40;
  config.seed = 2024;
  config.horizon_days = 60.0;
  const sim::Corpus corpus = sim::GenerateCorpus(config);
  const core::SegmentedCorpus segmented = core::SegmentCorpus(corpus);
  const core::SimilarityTable table =
      core::ComputeSimilarityTable(corpus, segmented);
  RunResult result;
  result.fingerprint = RunFingerprint(corpus, segmented, table);
  for (const char* name : kInvariantCounters) {
    result.counters[name] =
        obs::Registry::Global().GetCounter(name)->Value();
  }
  common::SetGlobalThreads(1);
  return result;
}

TEST(ParallelDeterminismTest, CorpusAndAnalysisIdenticalAcrossThreadCounts) {
  const RunResult baseline = RunAtThreads(1);
  ASSERT_FALSE(baseline.fingerprint.empty());
  for (const int threads : {4, 8}) {
    const RunResult run = RunAtThreads(threads);
    EXPECT_EQ(run.fingerprint, baseline.fingerprint)
        << "corpus/analysis diverged at threads=" << threads;
    EXPECT_EQ(run.counters, baseline.counters)
        << "work counters diverged at threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, RepeatedRunsIdenticalAtSameThreadCount) {
  const RunResult a = RunAtThreads(4);
  const RunResult b = RunAtThreads(4);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.counters, b.counters);
}

/// Synthetic classification data with a ~30% positive class, so the
/// forest's balanced bootstrap differs from a plain one.
ml::Dataset MakeForestData() {
  constexpr size_t kRows = 480;
  constexpr size_t kFeatures = 10;
  std::vector<std::string> names;
  for (size_t f = 0; f < kFeatures; ++f) {
    names.emplace_back("f");
    names.back() += std::to_string(f);
  }
  ml::Dataset data(std::move(names));
  common::Rng rng(31);
  std::vector<double> row(kFeatures);
  for (size_t r = 0; r < kRows; ++r) {
    double signal = -1.0;
    for (size_t f = 0; f < kFeatures; ++f) {
      row[f] = rng.Normal();
      if (f < 3) signal += row[f];
    }
    data.AddRow(row, rng.Bernoulli(1.0 / (1.0 + std::exp(-2.0 * signal))),
                static_cast<int64_t>(r / 20));
  }
  return data;
}

/// FNV-1a over the bit patterns of a sequence of doubles.
uint64_t HashDoubles(const std::vector<double>& values, uint64_t h) {
  for (const double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct ForestRun {
  std::vector<double> proba;       // PredictProba over every row
  std::vector<double> importance;  // FeatureImportance
  uint64_t Fingerprint() const {
    return HashDoubles(importance, HashDoubles(proba, 1469598103934665603ull));
  }
};

struct ForestCase {
  const char* name;
  ml::RandomForest::Options options;
  /// Fit on every `stride`-th row only (1 = all rows).
  size_t stride;
  /// PredictProba + FeatureImportance fingerprint computed with the
  /// tree-by-tree sequential fit; pins the model itself, not only its
  /// thread invariance.
  uint64_t golden;
};

std::vector<ForestCase> ForestCases() {
  ml::RandomForest::Options balanced;
  balanced.num_trees = 24;
  balanced.max_depth = 8;
  ml::RandomForest::Options unbalanced = balanced;
  unbalanced.balance_classes = false;
  unbalanced.seed = 5;
  ml::RandomForest::Options subsampled = balanced;
  subsampled.subsample = 0.4;
  subsampled.seed = 99;
  return {{"balanced", balanced, 1, 0xa56a160e464ccd83ull},
          {"unbalanced", unbalanced, 1, 0x2da62db4bc380da1ull},
          {"subsampled_row_subset", subsampled, 3, 0x28aca08a51ebb235ull}};
}

ForestRun FitAtThreads(const ml::Dataset& data, const ForestCase& c,
                       int threads) {
  common::SetGlobalThreads(threads);
  std::vector<size_t> rows;
  for (size_t r = 0; r < data.NumRows(); r += c.stride) rows.push_back(r);
  ml::RandomForest forest(c.options);
  forest.Fit(data, rows);
  common::SetGlobalThreads(1);
  EXPECT_EQ(forest.NumTrees(), static_cast<size_t>(c.options.num_trees));
  return {forest.PredictProba(data), forest.FeatureImportance()};
}

TEST(RandomForestDeterminismTest, FitIdenticalAcrossThreadCounts) {
  const ml::Dataset data = MakeForestData();
  for (const ForestCase& c : ForestCases()) {
    const ForestRun baseline = FitAtThreads(data, c, 1);
    for (const int threads : {2, 4, 8}) {
      const ForestRun run = FitAtThreads(data, c, threads);
      EXPECT_EQ(run.proba, baseline.proba)
          << c.name << " predictions diverged at threads=" << threads;
      EXPECT_EQ(run.importance, baseline.importance)
          << c.name << " importance diverged at threads=" << threads;
    }
  }
}

TEST(RandomForestDeterminismTest, FitMatchesSequentialGolden) {
  const ml::Dataset data = MakeForestData();
  for (const ForestCase& c : ForestCases()) {
    for (const int threads : {1, 4}) {
      const uint64_t got = FitAtThreads(data, c, threads).Fingerprint();
      EXPECT_EQ(got, c.golden) << c.name << " at threads=" << threads
                               << ": got 0x" << std::hex << got;
    }
  }
}

/// The streaming scorer's three forests, thresholds and per-row scores
/// over its own training dataset.
struct ScorerRun {
  std::vector<double> thresholds;
  std::vector<double> scores;
};

ScorerRun TrainScorerAtThreads(const core::WasteDataset& dataset,
                               int threads) {
  common::SetGlobalThreads(threads);
  auto scorer = stream::OnlineScorer::Train(dataset);
  common::SetGlobalThreads(1);
  EXPECT_TRUE(scorer.ok()) << scorer.status();
  ScorerRun run;
  if (!scorer.ok()) return run;
  std::vector<double> row(dataset.data.NumFeatures());
  for (const core::Variant variant : stream::kStreamingVariants) {
    run.thresholds.push_back(scorer->Threshold(variant));
    for (size_t r = 0; r < dataset.data.NumRows(); ++r) {
      for (size_t f = 0; f < row.size(); ++f) {
        row[f] = dataset.data.Feature(r, f);
      }
      run.scores.push_back(scorer->Score(variant, row));
    }
  }
  return run;
}

TEST(OnlineScorerDeterminismTest, TrainIdenticalAcrossThreadCounts) {
  sim::CorpusConfig config;
  config.num_pipelines = 12;
  config.seed = 900;
  config.horizon_days = 45.0;
  const sim::Corpus corpus = sim::GenerateCorpus(config);
  auto dataset =
      core::BuildWasteDataset(corpus, core::SegmentCorpus(corpus));
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  ASSERT_GT(dataset->data.NumRows(), 0u);
  const ScorerRun baseline = TrainScorerAtThreads(*dataset, 1);
  ASSERT_EQ(baseline.thresholds.size(), stream::kStreamingVariants.size());
  const ScorerRun run = TrainScorerAtThreads(*dataset, 4);
  EXPECT_EQ(run.thresholds, baseline.thresholds);
  EXPECT_EQ(run.scores, baseline.scores);
}

}  // namespace
}  // namespace mlprov
