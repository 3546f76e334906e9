#ifndef MLPROV_ML_RANDOM_FOREST_H_
#define MLPROV_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"

namespace mlprov::ml {

/// Random forest binary classifier: bagged CART trees with per-split
/// feature subsampling; the predicted probability is the mean of the
/// trees' leaf fractions. This is the model family the paper found to
/// match AutoML-grade models on the waste-prediction task (Section 5.2.2).
class RandomForest {
 public:
  struct Options {
    int num_trees = 60;
    int max_depth = 14;
    size_t min_samples_leaf = 2;
    /// Features per split; 0 = floor(sqrt(num_features)).
    size_t max_features = 0;
    /// Bootstrap sample size as a fraction of the training rows.
    double subsample = 1.0;
    /// Upweight the minority class to its balanced share (the paper's
    /// corpus is 80/20 unpushed/pushed).
    bool balance_classes = true;
    uint64_t seed = 17;
  };

  explicit RandomForest(const Options& options) : options_(options) {}

  /// Fits on all rows of `data`. Trees are fitted in parallel on the
  /// global pool (common::ParallelFor); the forest is bit-identical at
  /// every thread count.
  void Fit(const Dataset& data);
  /// Fits on a subset of rows.
  void Fit(const Dataset& data, const std::vector<size_t>& rows);

  /// Positive-class probability for one row given as the fitted
  /// dataset's feature columns, in order.
  double PredictProba(const double* features) const;
  /// Positive-class probability for one row of `data`.
  double PredictProba(const Dataset& data, size_t row) const;
  /// Probabilities for all rows.
  std::vector<double> PredictProba(const Dataset& data) const;

  /// Normalized impurity-decrease feature importance (sums to 1 when any
  /// split exists).
  std::vector<double> FeatureImportance() const;

  size_t NumTrees() const { return trees_.size(); }
  bool IsFitted() const { return !trees_.empty(); }

 private:
  Options options_;
  std::vector<DecisionTree> trees_;
  size_t num_features_ = 0;
};

}  // namespace mlprov::ml

#endif  // MLPROV_ML_RANDOM_FOREST_H_
