#include "stream/online_scorer.h"

#include <string>
#include <vector>

namespace mlprov::stream {

common::StatusOr<OnlineScorer> OnlineScorer::Train(
    const core::WasteDataset& dataset, const OnlineScorerOptions& options) {
  if (dataset.data.NumRows() == 0) {
    return common::Status::InvalidArgument(
        "OnlineScorer::Train: empty waste dataset");
  }
  const size_t policy = static_cast<size_t>(options.policy_variant);
  if (policy >= kStreamingVariants.size()) {
    return common::Status::InvalidArgument(
        "OnlineScorer::Train: policy variant must be a streaming variant "
        "(Input, Input+Pre, Input+Pre+Trainer), got " +
        std::string(core::ToString(options.policy_variant)));
  }
  OnlineScorer scorer;
  scorer.options_ = options;
  const core::GraphletFeaturizer::Schema schema =
      core::GraphletFeaturizer::BuildSchema(options.features);
  if (schema.names.size() != dataset.data.NumFeatures()) {
    return common::Status::InvalidArgument(
        "OnlineScorer::Train: feature options disagree with the dataset "
        "schema (" +
        std::to_string(schema.names.size()) + " vs " +
        std::to_string(dataset.data.NumFeatures()) + " columns)");
  }
  const core::WasteMitigation mitigation(&dataset, options.mitigation);
  for (size_t v = 0; v < kStreamingVariants.size(); ++v) {
    scorer.variants_[v] = mitigation.Train(kStreamingVariants[v]);
    if (!scorer.variants_[v].forest.IsFitted()) {
      return common::Status::InvalidArgument(
          "OnlineScorer::Train: " +
          std::string(core::ToString(kStreamingVariants[v])) +
          " has no trees: the grouped split left " +
          std::to_string(mitigation.train_rows().size()) +
          " training rows of " + std::to_string(dataset.data.NumRows()));
    }
  }
  return scorer;
}

double OnlineScorer::Score(core::Variant variant,
                           const std::vector<double>& row) const {
  const size_t v = static_cast<size_t>(variant);
  const core::TrainedVariant& trained = variants_[v];
  // One projection buffer per thread: sessions score concurrently, and
  // after the first call per thread scoring allocates nothing.
  thread_local std::vector<double> projected;
  projected.resize(trained.columns.size());
  for (size_t j = 0; j < trained.columns.size(); ++j) {
    projected[j] = row[trained.columns[j]];
  }
  return trained.forest.PredictProba(projected.data());
}

double OnlineScorer::Threshold(core::Variant variant) const {
  return variants_[static_cast<size_t>(variant)].threshold;
}

}  // namespace mlprov::stream
