// End-to-end integration: the full device -> crossbar -> annealer -> cost
// pipeline on real problem classes, plus the headline paper-shape checks at
// reduced scale.
#include <gtest/gtest.h>

#include <cmath>

#include "core/annealer_factory.hpp"
#include "core/ft_calibration.hpp"
#include "core/runner.hpp"
#include "problems/coloring.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "problems/knapsack.hpp"
#include "problems/maxcut.hpp"
#include "problems/partition.hpp"

namespace {

using namespace fecim;

TEST(Integration, AnalogAnnealerSolvesMaxCutToOptimum) {
  const auto graph =
      problems::random_graph(16, 4.0, problems::WeightScheme::kUnit, 5);
  const auto exact = problems::brute_force_max_cut(graph);
  const auto model = std::make_shared<const ising::IsingModel>(
      problems::maxcut_to_ising(graph));

  core::StandardSetup setup;
  setup.iterations = 3000;
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, model, setup);
  int hits = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto result = annealer->run(seed);
    const double cut = problems::cut_from_energy(graph, result.best_energy);
    hits += std::fabs(cut - exact.cut) < 1e-9;
  }
  EXPECT_GE(hits, 6);
}

TEST(Integration, SolvesKnapsackThroughQuboPipeline) {
  // QUBO -> Ising (fields) -> ancilla -> in-situ annealer.
  const problems::KnapsackInstance instance{
      {{10, 5}, {7, 4}, {4, 3}, {6, 5}}, 9};
  const auto encoding = problems::knapsack_to_qubo(instance);
  const auto folded = std::make_shared<const ising::IsingModel>(
      encoding.qubo.to_ising().with_ancilla());

  core::StandardSetup setup;
  setup.iterations = 8000;
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, folded, setup);
  double best_value = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto result = annealer->run(seed);
    auto spins = result.best_spins;
    spins.pop_back();  // strip ancilla
    const auto solution = problems::decode_knapsack(
        instance, encoding, ising::binary_from_spins(spins));
    if (solution.feasible) best_value = std::max(best_value, solution.value);
  }
  EXPECT_GE(best_value, 0.8 * problems::knapsack_optimal_value(instance));
}

TEST(Integration, SolvesGraphColoring) {
  const auto graph =
      problems::random_graph(10, 2.4, problems::WeightScheme::kUnit, 8);
  const auto encoding = problems::coloring_to_qubo(graph, 3, 2.0);
  const auto folded = std::make_shared<const ising::IsingModel>(
      encoding.qubo.to_ising().with_ancilla());

  core::StandardSetup setup;
  setup.iterations = 20000;
  // Constraint-satisfaction landscapes prefer a softer comparator than the
  // Max-Cut default (higher uphill mobility for recoloring moves).
  setup.acceptance_gain = 4.0;
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, folded, setup);
  std::size_t best_violations = 1000;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto spins = annealer->run(seed).best_spins;
    spins.pop_back();
    best_violations = std::min(
        best_violations, problems::coloring_violations(
                             graph, encoding, ising::binary_from_spins(spins)));
  }
  EXPECT_EQ(best_violations, 0u);  // a valid 3-coloring is found
}

TEST(Integration, SolvesNumberPartitioning) {
  const std::vector<double> numbers{7, 5, 4, 3, 3, 2, 2, 1, 1};  // total 28
  const auto model = std::make_shared<const ising::IsingModel>(
      problems::partition_to_ising(numbers));

  core::StandardSetup setup;
  setup.iterations = 4000;
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, model, setup);
  double best = 1e18;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto result = annealer->run(seed);
    best = std::min(best,
                    problems::partition_imbalance(numbers, result.best_spins));
  }
  EXPECT_LE(best, 2.0);  // perfect split is 0; allow near-miss
}

TEST(Integration, PaperShapeAtReducedScale) {
  // Miniature Fig. 8/9/10: dense instance, small budget -- this work wins
  // quality at ~n/|F| lower ADC energy and ~8x lower latency.
  auto instance = problems::make_maxcut_problem(
      "mini", problems::random_graph(256, 24.0,
                                     problems::WeightScheme::kUnit, 17));
  core::StandardSetup setup;
  setup.iterations = 300;
  core::CampaignConfig config;
  config.runs = 6;

  const auto ours = core::run_campaign(
      *core::make_annealer(core::AnnealerKind::kThisWork, instance.model,
                           setup),
      instance, config);
  const auto fpga = core::run_campaign(
      *core::make_annealer(core::AnnealerKind::kCimFpga, instance.model,
                           setup),
      instance, config);
  const auto asic = core::run_campaign(
      *core::make_annealer(core::AnnealerKind::kCimAsic, instance.model,
                           setup),
      instance, config);

  // Quality: the budget-matched in-situ annealer beats the fixed-decay
  // baselines (which are still hot after 300 iterations).
  EXPECT_GT(ours.normalized.mean(), fpga.normalized.mean());

  // Energy: ~n / |F| = 128x, plus the e^x elimination on top.
  const double fpga_ratio = fpga.energy.mean() / ours.energy.mean();
  const double asic_ratio = asic.energy.mean() / ours.energy.mean();
  EXPECT_GT(asic_ratio, 100.0);
  EXPECT_LT(asic_ratio, 170.0);
  EXPECT_GT(fpga_ratio, asic_ratio);

  // Latency: ~8x.
  EXPECT_NEAR(fpga.time.mean() / ours.time.mean(), 8.0, 1.5);
}

TEST(Integration, DeviceCalibrationFeedsAnnealer) {
  // The annealer's schedule and the device's normalized current must agree
  // on f within the calibration error across the whole ladder.
  const ising::FractionalFactor factor;
  const circuit::BgDac dac;
  const auto report = core::evaluate_ft_approximation(
      device::DgFefetParams{}, factor, dac);
  for (const auto& sample : report.samples) {
    EXPECT_NEAR(sample.device, sample.target, report.max_error + 1e-12);
  }
}

TEST(Integration, VariationRobustness) {
  // The evaluation's robustness claim: moderate device variation barely
  // moves the success rate.
  auto instance = problems::make_maxcut_problem(
      "robust", problems::random_graph(200, 24.0,
                                       problems::WeightScheme::kUnit, 23));
  core::CampaignConfig config;
  config.runs = 8;

  core::StandardSetup clean;
  clean.iterations = 400;
  clean.variation = {};
  core::StandardSetup noisy = clean;
  noisy.variation = {0.03, 0.05, 0.0005, 0.0};

  const auto clean_result = core::run_campaign(
      *core::make_annealer(core::AnnealerKind::kThisWork, instance.model,
                           clean),
      instance, config);
  const auto noisy_result = core::run_campaign(
      *core::make_annealer(core::AnnealerKind::kThisWork, instance.model,
                           noisy),
      instance, config);
  EXPECT_NEAR(noisy_result.normalized.mean(),
              clean_result.normalized.mean(), 0.05);
}

}  // namespace
