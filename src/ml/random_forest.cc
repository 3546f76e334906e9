#include "ml/random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/parallel.h"

namespace mlprov::ml {

void RandomForest::Fit(const Dataset& data) {
  std::vector<size_t> rows(data.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Fit(data, rows);
}

void RandomForest::Fit(const Dataset& data,
                       const std::vector<size_t>& rows) {
  trees_.clear();
  num_features_ = data.NumFeatures();
  if (rows.empty() || num_features_ == 0) return;

  common::Rng rng(options_.seed);
  size_t max_features = options_.max_features;
  if (max_features == 0) {
    max_features = static_cast<size_t>(
        std::max(1.0, std::floor(std::sqrt(
                          static_cast<double>(num_features_)))));
  }
  DecisionTree::Options tree_options;
  tree_options.task = DecisionTree::Task::kClassification;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features = max_features;

  // Class-partitioned indices for balanced bootstraps.
  std::vector<size_t> positives, negatives;
  for (size_t r : rows) {
    (data.Label(r) ? positives : negatives).push_back(r);
  }
  const bool balanced = options_.balance_classes && !positives.empty() &&
                        !negatives.empty();
  const auto sample_size = static_cast<size_t>(
      std::max(1.0, options_.subsample * static_cast<double>(rows.size())));
  const auto draw_bootstrap = [&](common::Rng& draws,
                                  std::vector<size_t>& bootstrap) {
    bootstrap.clear();
    bootstrap.reserve(sample_size);
    if (balanced) {
      // Balanced bootstrap: equal expected mass per class.
      for (size_t i = 0; i < sample_size; ++i) {
        const auto& side = (i % 2 == 0) ? positives : negatives;
        bootstrap.push_back(
            side[static_cast<size_t>(draws.NextUint64(side.size()))]);
      }
    } else {
      for (size_t i = 0; i < sample_size; ++i) {
        bootstrap.push_back(
            rows[static_cast<size_t>(draws.NextUint64(rows.size()))]);
      }
    }
  };

  // Sequential phase: walk the forest's generator in tree order — tree
  // t's bootstrap draws, then its Fork — keeping only the generator state
  // at the start of each tree's draws and the forked tree generator
  // (64 bytes per tree), not the bootstraps themselves.
  struct TreeStreams {
    common::Rng bootstrap;
    common::Rng tree;
  };
  const auto num_trees = static_cast<size_t>(std::max(0, options_.num_trees));
  std::vector<TreeStreams> streams;
  streams.reserve(num_trees);
  std::vector<size_t> bootstrap;
  for (size_t t = 0; t < num_trees; ++t) {
    const common::Rng start = rng;
    draw_bootstrap(rng, bootstrap);
    streams.push_back({start, rng.Fork()});
  }

  // Parallel phase: each tree redraws its bootstrap from its recorded
  // state and fits into its own slot. DecisionTree::Fit reads only the
  // data, its bootstrap and its generator, so the forest is bit-identical
  // to the tree-by-tree loop at every thread count.
  trees_.assign(num_trees, DecisionTree(tree_options));
  common::ParallelFor(
      num_trees,
      [&](size_t t) {
        std::vector<size_t> tree_bootstrap;
        draw_bootstrap(streams[t].bootstrap, tree_bootstrap);
        trees_[t].Fit(data, tree_bootstrap, /*targets=*/nullptr,
                      streams[t].tree);
      },
      /*grain=*/1);
}

double RandomForest::PredictProba(const double* features) const {
  assert(!trees_.empty());
  double total = 0.0;
  for (const DecisionTree& tree : trees_) {
    total += tree.Predict(features);
  }
  return total / static_cast<double>(trees_.size());
}

double RandomForest::PredictProba(const Dataset& data, size_t row) const {
  return PredictProba(data.Row(row));
}

std::vector<double> RandomForest::PredictProba(const Dataset& data) const {
  std::vector<double> out(data.NumRows());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    out[r] = PredictProba(data, r);
  }
  return out;
}

std::vector<double> RandomForest::FeatureImportance() const {
  std::vector<double> total(num_features_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto& imp = tree.FeatureImportance();
    for (size_t f = 0; f < total.size() && f < imp.size(); ++f) {
      total[f] += imp[f];
    }
  }
  double sum = 0.0;
  for (double x : total) sum += x;
  if (sum > 0.0) {
    for (double& x : total) x /= sum;
  }
  return total;
}

}  // namespace mlprov::ml
