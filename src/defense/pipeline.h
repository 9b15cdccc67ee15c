// Sanitize-then-train pipeline.
//
// Bundles the full defended-learning flow the paper evaluates: poison the
// training data, apply a filter, train the victim, and measure test
// accuracy. Every experiment (Fig. 1 sweep, Table 1 evaluation, ablations)
// is a loop over this pipeline with different attacks/filters.
#pragma once

#include <functional>
#include <memory>

#include "attack/attack.h"
#include "data/dataset.h"
#include "defense/filter.h"
#include "ml/linear_model.h"
#include "ml/svm.h"

namespace pg::defense {

struct PipelineResult {
  double test_accuracy = 0.0;
  DetectionScore detection;     // meaningful only when an attack ran
  std::size_t train_size = 0;   // after filtering
  ml::LinearModel model;
};

struct PipelineConfig {
  ml::SvmConfig svm{};
  /// Standardize features AFTER filtering (fit on the kept training data,
  /// applied to train and test) before the SVM sees them. The attack and
  /// the filter always operate in raw feature space -- matching the
  /// paper's setup, where the distance geometry is dominated by the
  /// large-scale heavy-tailed columns while the standardized learner
  /// weighs all features equally.
  bool standardize = true;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config = {});

  /// Run: train' = filter(clean + poison), model = train(scale(train')),
  /// accuracy = model on scale(test). `attack` and `filter` may be null
  /// (no attack / no defense).
  [[nodiscard]] PipelineResult run(const data::Dataset& clean_train,
                                   const data::Dataset& test,
                                   const attack::PoisoningAttack* attack,
                                   std::size_t poison_points,
                                   const Filter* filter,
                                   util::Rng& rng) const;

  /// Everything `run` does before the SGD solve, packaged so the training
  /// step can be called (and timed) on its own: `train` and `test` are
  /// already filtered AND standardized (when configured), and
  /// `train_rng` is the exact stream the sequential `run` would have
  /// handed the trainer. `run(args...)` is bit-identical to
  /// `finish(prepare(args...), trainer.train(prep.train, prep.train_rng))`.
  struct Prepared {
    data::Dataset train;          // filtered (+ scaled) training data
    data::Dataset test;           // test data in the same feature space
    DetectionScore detection;
    std::size_t train_size = 0;   // after filtering
    util::Rng train_rng{0};
  };

  [[nodiscard]] Prepared prepare(const data::Dataset& clean_train,
                                 const data::Dataset& test,
                                 const attack::PoisoningAttack* attack,
                                 std::size_t poison_points,
                                 const Filter* filter, util::Rng& rng) const;

  /// Assemble the result from a prepared context and its trained model
  /// (accuracy is evaluated on prep.test here).
  [[nodiscard]] static PipelineResult finish(Prepared&& prep,
                                             ml::LinearModel model);

  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

 private:
  PipelineConfig config_;
};

}  // namespace pg::defense
