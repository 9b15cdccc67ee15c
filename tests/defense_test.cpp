// Unit and property tests for pg::defense -- centroids, the distance
// filter, baseline sanitizers, mixed strategies, and the pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "attack/boundary_attack.h"
#include "data/synthetic.h"
#include "defense/centroid.h"
#include "defense/distance_filter.h"
#include "defense/knn_filter.h"
#include "defense/mixed_defense.h"
#include "defense/pca_filter.h"
#include "defense/pipeline.h"
#include "defense/roni.h"
#include "la/vector_ops.h"
#include "ml/svm.h"

namespace pg::defense {
namespace {

data::Dataset blobs(std::size_t n = 400, std::uint64_t seed = 1,
                    double sep = 6.0) {
  util::Rng rng(seed);
  return data::make_gaussian_blobs(n, 5, sep, rng);
}

// --------------------------------------------------------------- centroid

TEST(CentroidTest, MeanMatchesClassMean) {
  const auto d = blobs();
  CentroidConfig cfg;
  cfg.method = CentroidMethod::kMean;
  EXPECT_EQ(compute_centroid(d, 1, cfg), d.class_mean(1));
}

TEST(CentroidTest, MedianOfSymmetricDataNearMean) {
  const auto d = blobs(2000);
  CentroidConfig cfg;
  cfg.method = CentroidMethod::kCoordinateMedian;
  const auto med = compute_centroid(d, 1, cfg);
  const auto mean = d.class_mean(1);
  EXPECT_LT(la::distance(med, mean), 0.2);
}

TEST(CentroidTest, MedianRobustToOutliers) {
  // Inject extreme outliers into class +1; the median must barely move
  // while the mean is dragged far away (the paper's "good method to find
  // the centroid" requirement).
  data::Dataset d = blobs(500, 2);
  const auto clean_mean = d.class_mean(1);
  for (int i = 0; i < 60; ++i) {
    d.append({1000.0, 1000.0, 1000.0, 1000.0, 1000.0}, 1);
  }
  CentroidConfig median_cfg;
  median_cfg.method = CentroidMethod::kCoordinateMedian;
  const auto med = compute_centroid(d, 1, median_cfg);
  CentroidConfig mean_cfg;
  mean_cfg.method = CentroidMethod::kMean;
  const auto mean = compute_centroid(d, 1, mean_cfg);
  EXPECT_LT(la::distance(med, clean_mean), 1.5);
  EXPECT_GT(la::distance(mean, clean_mean), 100.0);
}

TEST(CentroidTest, TrimmedMeanBetweenMeanAndMedian) {
  data::Dataset d = blobs(500, 3);
  const auto clean_mean = d.class_mean(1);
  for (int i = 0; i < 50; ++i) {
    d.append({500.0, 0.0, 0.0, 0.0, 0.0}, 1);
  }
  CentroidConfig cfg;
  cfg.method = CentroidMethod::kTrimmedMean;
  cfg.trim_fraction = 0.2;
  const auto trimmed = compute_centroid(d, 1, cfg);
  EXPECT_LT(la::distance(trimmed, clean_mean), 1.0);
}

TEST(CentroidTest, TrimValidation) {
  const auto d = blobs(50);
  CentroidConfig cfg;
  cfg.method = CentroidMethod::kTrimmedMean;
  cfg.trim_fraction = 0.5;
  EXPECT_THROW((void)compute_centroid(d, 1, cfg), std::invalid_argument);
}

TEST(CentroidTest, MissingLabelThrows) {
  data::Dataset d;
  d.append({1.0}, 1);
  EXPECT_THROW((void)compute_centroid(d, -1, CentroidConfig{}),
               std::invalid_argument);
}

TEST(CentroidTest, MethodNames) {
  EXPECT_STREQ(centroid_method_name(CentroidMethod::kMean), "mean");
  EXPECT_STREQ(centroid_method_name(CentroidMethod::kCoordinateMedian),
               "median");
  EXPECT_STREQ(centroid_method_name(CentroidMethod::kTrimmedMean),
               "trimmed-mean");
}

// --------------------------------------------------------- distance_filter

TEST(DistanceFilterTest, RemovesConfiguredFraction) {
  const auto d = blobs(1000);
  DistanceFilterConfig cfg;
  cfg.removal_fraction = 0.2;
  util::Rng rng(4);
  const auto res = DistanceFilter(cfg).apply(d, rng);
  EXPECT_NEAR(res.removed_fraction(d.size()), 0.2, 0.03);
  EXPECT_EQ(res.kept.size() + res.removed_indices.size(), d.size());
}

TEST(DistanceFilterTest, ZeroStrengthKeepsEverything) {
  const auto d = blobs(100);
  DistanceFilterConfig cfg;
  cfg.removal_fraction = 0.0;
  util::Rng rng(5);
  const auto res = DistanceFilter(cfg).apply(d, rng);
  EXPECT_EQ(res.kept.size(), d.size());
  EXPECT_TRUE(res.removed_indices.empty());
}

TEST(DistanceFilterTest, RemovesFarthestPoints) {
  const auto d = blobs(500, 6);
  DistanceFilterConfig cfg;
  cfg.removal_fraction = 0.1;
  cfg.centroid.method = CentroidMethod::kMean;
  util::Rng rng(7);
  const auto res = DistanceFilter(cfg).apply(d, rng);
  // Every removed point must be farther from its class centroid than the
  // farthest kept point of the same class... modulo quantile ties; test
  // the weaker, exact property: removed distance > kept median distance.
  for (int label : {1, -1}) {
    const auto centroid = d.class_mean(label);
    std::vector<double> kept_d = res.kept.distances_to(centroid, label);
    const double kept_median = util::median(kept_d);
    for (std::size_t i : res.removed_indices) {
      if (d.label(i) != label) continue;
      EXPECT_GT(la::distance(d.instance(i), centroid), kept_median);
    }
  }
}

TEST(DistanceFilterTest, FiltersPerClass) {
  // Class -1 is tight, class +1 is spread: per-class filtering must remove
  // roughly the same fraction from each.
  data::Dataset d;
  util::Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    d.append({rng.normal(0.0, 5.0), rng.normal(0.0, 5.0)}, 1);
    d.append({10.0 + rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)}, -1);
  }
  DistanceFilterConfig cfg;
  cfg.removal_fraction = 0.2;
  util::Rng frng(9);
  const auto res = DistanceFilter(cfg).apply(d, frng);
  std::size_t removed_pos = 0;
  std::size_t removed_neg = 0;
  for (std::size_t i : res.removed_indices) {
    (d.label(i) == 1 ? removed_pos : removed_neg)++;
  }
  EXPECT_NEAR(static_cast<double>(removed_pos), static_cast<double>(removed_neg),
              20.0);
}

TEST(DistanceFilterTest, RadiusForMatchesQuantile) {
  const auto d = blobs(1000, 10);
  DistanceFilterConfig cfg;
  cfg.removal_fraction = 0.25;
  cfg.centroid.method = CentroidMethod::kMean;
  const DistanceFilter f(cfg);
  const double r = f.radius_for(d, 1);
  const auto dist = d.distances_to(d.class_mean(1), 1);
  EXPECT_NEAR(r, util::quantile(dist, 0.75), 1e-9);
}

TEST(DistanceFilterTest, ConfigValidation) {
  EXPECT_THROW(DistanceFilter({.removal_fraction = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(DistanceFilter({.removal_fraction = -0.1}),
               std::invalid_argument);
}

TEST(DetectionScoreTest, PrecisionRecallArithmetic) {
  FilterResult res;
  res.removed_indices = {8, 9, 3};  // two poison (>= 8), one genuine
  const auto s = score_detection(res, 12, 8);
  EXPECT_EQ(s.poison_total, 4u);
  EXPECT_NEAR(s.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(s.recall, 0.5, 1e-12);
}

// ------------------------------------------------------------- knn_filter

TEST(KnnFilterTest, RemovesFlippedLabels) {
  // Plant label noise deep inside the opposite cluster. Fewer planted
  // points than k, so their neighbourhoods are dominated by genuine
  // opposite-label points (a poison CLUSTER larger than k defeats kNN
  // sanitization -- that known blindness is tested below).
  data::Dataset d = blobs(400, 11, 8.0);
  const auto c_neg = d.class_mean(-1);
  util::Rng jitter(99);
  for (int i = 0; i < 4; ++i) {
    la::Vector x = c_neg;
    for (double& v : x) v += jitter.normal(0.0, 0.05);
    d.append(x, 1);  // +1-labeled points at the -1 centroid
  }
  KnnFilterConfig cfg;
  cfg.k = 10;
  cfg.agreement_threshold = 0.5;
  util::Rng rng(12);
  const auto res = KnnFilter(cfg).apply(d, rng);
  const auto score = score_detection(res, d.size(), 400);
  EXPECT_GT(score.recall, 0.9);
}

TEST(KnnFilterTest, BlindToPoisonClustersLargerThanK) {
  // The documented weakness: a tight poison cluster of size > k validates
  // itself and survives.
  data::Dataset d = blobs(400, 11, 8.0);
  const auto c_neg = d.class_mean(-1);
  util::Rng jitter(98);
  for (int i = 0; i < 30; ++i) {
    la::Vector x = c_neg;
    for (double& v : x) v += jitter.normal(0.0, 0.01);
    d.append(x, 1);
  }
  KnnFilterConfig cfg;
  cfg.k = 10;
  cfg.agreement_threshold = 0.5;
  util::Rng rng(12);
  const auto res = KnnFilter(cfg).apply(d, rng);
  const auto score = score_detection(res, d.size(), 400);
  EXPECT_LT(score.recall, 0.2);
}

TEST(KnnFilterTest, KeepsCleanSeparatedData) {
  const auto d = blobs(300, 13, 10.0);
  KnnFilterConfig cfg;
  cfg.k = 5;
  util::Rng rng(14);
  const auto res = KnnFilter(cfg).apply(d, rng);
  EXPECT_GT(static_cast<double>(res.kept.size()) / d.size(), 0.97);
}

TEST(KnnFilterTest, ConfigValidation) {
  EXPECT_THROW(KnnFilter({.k = 0}), std::invalid_argument);
  EXPECT_THROW(KnnFilter({.k = 1, .agreement_threshold = 1.5}),
               std::invalid_argument);
}

// ------------------------------------------------------------- pca_filter

TEST(PcaFilterTest, RemovesOffSubspacePoints) {
  // Data lives on axis 0-1 plane; poison sticks out along axis 4.
  data::Dataset d;
  util::Rng rng(15);
  for (int i = 0; i < 300; ++i) {
    d.append({rng.normal(0, 3), rng.normal(0, 3), rng.normal(0, 0.01),
              rng.normal(0, 0.01), rng.normal(0, 0.01)},
             i % 2 ? 1 : -1);
  }
  const std::size_t clean_size = d.size();
  for (int i = 0; i < 30; ++i) {
    d.append({0.0, 0.0, 0.0, 0.0, 8.0}, 1);
  }
  PcaFilterConfig cfg;
  cfg.components = 2;
  cfg.removal_fraction = 0.12;
  util::Rng frng(16);
  const auto res = PcaFilter(cfg).apply(d, frng);
  const auto score = score_detection(res, d.size(), clean_size);
  EXPECT_GT(score.recall, 0.9);
}

TEST(PcaFilterTest, ZeroRemovalKeepsAll) {
  const auto d = blobs(100);
  PcaFilterConfig cfg;
  cfg.removal_fraction = 0.0;
  util::Rng rng(17);
  EXPECT_EQ(PcaFilter(cfg).apply(d, rng).kept.size(), d.size());
}

TEST(PcaFilterTest, ConfigValidation) {
  EXPECT_THROW(PcaFilter({.components = 0}), std::invalid_argument);
  EXPECT_THROW(PcaFilter({.components = 1, .removal_fraction = 1.0}),
               std::invalid_argument);
}

// ------------------------------------------------------------------- roni

TEST(RoniFilterTest, RejectsDamagingBatchesKeepsClean) {
  data::Dataset d = blobs(600, 18, 8.0);
  const std::size_t clean_size = d.size();
  // Poison: 120 label-flipped points at the opposite centroid.
  const auto c_pos = d.class_mean(1);
  for (int i = 0; i < 120; ++i) {
    la::Vector x = c_pos;
    x[0] += 0.1 * i / 120.0;
    d.append(x, -1);
  }
  RoniConfig cfg;
  cfg.batch_size = 4;
  cfg.tolerance = 0.005;
  util::Rng rng(19);
  const auto res = RoniFilter(cfg).apply(d, rng);
  const auto score = score_detection(res, d.size(), clean_size);
  // RONI's trusted pool is sampled from the (contaminated) input, so both
  // directions are noisy: expect meaningful but imperfect detection.
  EXPECT_GT(score.recall, 0.25);
  // Most genuine data survives.
  EXPECT_GT(static_cast<double>(res.kept.size()), 0.55 * clean_size);
}

TEST(RoniFilterTest, TinyInputPassesThrough) {
  const auto d = blobs(10);
  RoniConfig cfg;
  util::Rng rng(20);
  EXPECT_EQ(RoniFilter(cfg).apply(d, rng).kept.size(), d.size());
}

TEST(RoniFilterTest, ConfigValidation) {
  EXPECT_THROW(RoniFilter({.trusted_fraction = 0.0}), std::invalid_argument);
  EXPECT_THROW(RoniFilter({.trusted_fraction = 0.5, .batch_size = 0}),
               std::invalid_argument);
}

// ---------------------------------------------------------- mixed_defense

TEST(MixedDefenseTest, StrategyValidation) {
  EXPECT_NO_THROW(MixedDefenseStrategy({0.1, 0.2}, {0.5, 0.5}));
  EXPECT_THROW(MixedDefenseStrategy({0.2, 0.1}, {0.5, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(MixedDefenseStrategy({0.1, 0.2}, {0.6, 0.6}),
               std::invalid_argument);
  EXPECT_THROW(MixedDefenseStrategy({0.1}, {0.5}), std::invalid_argument);
  EXPECT_THROW(MixedDefenseStrategy({}, {}), std::invalid_argument);
}

TEST(MixedDefenseTest, PureFactoryAndMixedPredicate) {
  const auto pure = MixedDefenseStrategy::pure(0.15);
  EXPECT_EQ(pure.support_size(), 1u);
  EXPECT_FALSE(pure.is_properly_mixed());
  const MixedDefenseStrategy mixed({0.1, 0.2}, {0.5, 0.5});
  EXPECT_TRUE(mixed.is_properly_mixed());
  const MixedDefenseStrategy degenerate({0.1, 0.2}, {1.0, 0.0});
  EXPECT_FALSE(degenerate.is_properly_mixed());
}

TEST(MixedDefenseTest, SurvivalProbabilityIsCdfFromBoundary) {
  const MixedDefenseStrategy s({0.05, 0.15, 0.30}, {0.2, 0.3, 0.5});
  EXPECT_NEAR(s.survival_probability(0.01), 0.0, 1e-12);
  EXPECT_NEAR(s.survival_probability(0.05), 0.2, 1e-12);
  EXPECT_NEAR(s.survival_probability(0.10), 0.2, 1e-12);
  EXPECT_NEAR(s.survival_probability(0.15), 0.5, 1e-12);
  EXPECT_NEAR(s.survival_probability(0.30), 1.0, 1e-12);
  EXPECT_NEAR(s.survival_probability(0.99), 1.0, 1e-12);
}

TEST(MixedDefenseTest, ExpectedRemovalIsWeightedMean) {
  const MixedDefenseStrategy s({0.1, 0.3}, {0.25, 0.75});
  EXPECT_NEAR(s.expected_removal(), 0.25, 1e-12);
}

TEST(MixedDefenseTest, SampleFollowsDistribution) {
  const MixedDefenseStrategy s({0.1, 0.2}, {0.7, 0.3});
  util::Rng rng(21);
  int at_first = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (s.sample(rng) == 0.1) ++at_first;
  }
  EXPECT_NEAR(static_cast<double>(at_first) / n, 0.7, 0.02);
}

TEST(MixedDefenseTest, DescribeContainsSupport) {
  const MixedDefenseStrategy s({0.058, 0.157}, {0.512, 0.488});
  const std::string text = s.describe();
  EXPECT_NE(text.find("5.8%"), std::string::npos);
  EXPECT_NE(text.find("51.2%"), std::string::npos);
}

TEST(MixedDefenseFilterTest, AppliesSampledStrength) {
  const auto d = blobs(500, 22);
  const MixedDefenseFilter f(MixedDefenseStrategy({0.1, 0.4}, {0.5, 0.5}),
                             CentroidConfig{});
  // Over many draws the removed fraction must average ~0.25.
  double removed = 0.0;
  const int reps = 40;
  for (int i = 0; i < reps; ++i) {
    util::Rng rng(100 + i);
    removed += f.apply(d, rng).removed_fraction(d.size());
  }
  EXPECT_NEAR(removed / reps, 0.25, 0.05);
}

// ---------------------------------------------------------------- pipeline

TEST(PipelineTest, CleanRunMatchesDirectTraining) {
  const auto train = blobs(300, 23);
  const auto test = blobs(200, 24);
  PipelineConfig cfg;
  cfg.svm.epochs = 30;
  const Pipeline p(cfg);
  util::Rng rng(25);
  const auto res = p.run(train, test, nullptr, 0, nullptr, rng);
  EXPECT_GT(res.test_accuracy, 0.95);
  EXPECT_EQ(res.train_size, train.size());
}

TEST(PipelineTest, AttackReducesAccuracy) {
  const auto train = blobs(300, 26, 4.0);
  const auto test = blobs(200, 27, 4.0);
  PipelineConfig cfg;
  cfg.svm.epochs = 30;
  const Pipeline p(cfg);
  attack::BoundaryAttackConfig acfg;
  acfg.placement_fraction = 0.0;
  const attack::BoundaryAttack atk(acfg);
  util::Rng r1(28);
  util::Rng r2(28);
  const double clean = p.run(train, test, nullptr, 0, nullptr, r1).test_accuracy;
  const double attacked =
      p.run(train, test, &atk, 60, nullptr, r2).test_accuracy;
  EXPECT_LT(attacked, clean - 0.03);
}

TEST(PipelineTest, FilterMitigatesDeepAttack) {
  const auto train = blobs(400, 29, 5.0);
  const auto test = blobs(300, 30, 5.0);
  PipelineConfig cfg;
  cfg.svm.epochs = 30;
  const Pipeline p(cfg);
  // Attack far outside (placement 0, no adaptive depth search -- this
  // test checks the filter's mechanics, not the arms race); a strong
  // filter catches it.
  attack::BoundaryAttackConfig acfg;
  acfg.placement_fraction = 0.0;
  acfg.depth_offsets.clear();
  const attack::BoundaryAttack atk(acfg);
  DistanceFilterConfig fcfg;
  fcfg.removal_fraction = 0.25;
  const DistanceFilter filter(fcfg);
  util::Rng r1(31);
  util::Rng r2(31);
  const double undefended =
      p.run(train, test, &atk, 80, nullptr, r1).test_accuracy;
  const auto defended = p.run(train, test, &atk, 80, &filter, r2);
  EXPECT_GT(defended.test_accuracy, undefended);
  EXPECT_GT(defended.detection.recall, 0.8);
}

TEST(PipelineTest, DetectionScoredOnlyWithFilter) {
  const auto train = blobs(100, 32);
  const auto test = blobs(100, 33);
  PipelineConfig cfg;
  cfg.svm.epochs = 10;
  const Pipeline p(cfg);
  util::Rng rng(34);
  const auto res = p.run(train, test, nullptr, 0, nullptr, rng);
  EXPECT_EQ(res.detection.removed, 0u);
}

TEST(PipelineTest, EmptyInputsRejected) {
  const auto d = blobs(50, 35);
  const Pipeline p;
  util::Rng rng(36);
  EXPECT_THROW((void)p.run(data::Dataset{}, d, nullptr, 0, nullptr, rng),
               std::invalid_argument);
  EXPECT_THROW((void)p.run(d, data::Dataset{}, nullptr, 0, nullptr, rng),
               std::invalid_argument);
}

// --------------------------------------------------- pipeline split path

TEST(PipelineSplitTest, PrepareTrainFinishMatchesRun) {
  util::Rng data_rng(21);
  const data::Dataset train = data::make_gaussian_blobs(120, 6, 4.0, data_rng);
  data_rng = util::Rng(22);
  const data::Dataset test = data::make_gaussian_blobs(60, 6, 4.0, data_rng);
  PipelineConfig pcfg;
  pcfg.svm.epochs = 20;
  const Pipeline pipeline(pcfg);
  DistanceFilterConfig fcfg;
  fcfg.removal_fraction = 0.15;
  const DistanceFilter filter(fcfg);

  util::Rng rng_a(5);
  const auto direct = pipeline.run(train, test, nullptr, 0, &filter, rng_a);

  util::Rng rng_b(5);
  auto prep = pipeline.prepare(train, test, nullptr, 0, &filter, rng_b);
  const ml::LinearModel model =
      ml::SvmTrainer(pcfg.svm).train(prep.train, prep.train_rng);
  const auto split = Pipeline::finish(std::move(prep), model);

  EXPECT_EQ(direct.test_accuracy, split.test_accuracy);
  EXPECT_EQ(direct.train_size, split.train_size);
  EXPECT_EQ(direct.model.bias(), split.model.bias());
  EXPECT_EQ(direct.model.weights(), split.model.weights());
}

}  // namespace
}  // namespace pg::defense
