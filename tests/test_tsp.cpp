// TSP QUBO encoding, decoding, heuristics, and end-to-end annealing.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <numeric>

#include "core/annealer_factory.hpp"
#include "problems/instance_io.hpp"
#include "problems/tsp.hpp"
#include "util/assert.hpp"

namespace {

using namespace fecim;
using problems::TspInstance;

TspInstance square_instance() {
  // Four cities on a unit square: optimal tour = perimeter = 4.
  TspInstance instance;
  const double s2 = std::sqrt(2.0);
  instance.distances = {{0, 1, s2, 1},
                        {1, 0, 1, s2},
                        {s2, 1, 0, 1},
                        {1, s2, 1, 0}};
  return instance;
}

TEST(Tsp, RandomInstanceIsMetricSymmetric) {
  const auto instance = problems::random_tsp(8, 3);
  for (std::size_t u = 0; u < 8; ++u) {
    EXPECT_DOUBLE_EQ(instance.distances[u][u], 0.0);
    for (std::size_t v = 0; v < 8; ++v) {
      EXPECT_DOUBLE_EQ(instance.distances[u][v], instance.distances[v][u]);
      EXPECT_LE(instance.distances[u][v], std::sqrt(2.0));
    }
  }
}

TEST(Tsp, TourLengthCyclic) {
  const auto instance = square_instance();
  const std::vector<std::uint32_t> perimeter{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(problems::tour_length(instance, perimeter), 4.0);
  const std::vector<std::uint32_t> crossing{0, 2, 1, 3};
  EXPECT_NEAR(problems::tour_length(instance, crossing),
              2.0 + 2.0 * std::sqrt(2.0), 1e-12);
}

TEST(Tsp, OptimalLengthBruteForce) {
  EXPECT_DOUBLE_EQ(problems::tsp_optimal_length(square_instance()), 4.0);
  const auto random_instance = problems::random_tsp(7, 5);
  const double optimum = problems::tsp_optimal_length(random_instance);
  // Any specific tour bounds the optimum from above.
  std::vector<std::uint32_t> identity(7);
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_LE(optimum, problems::tour_length(random_instance, identity) + 1e-12);
}

TEST(Tsp, HeuristicFindsOptimumOnSmallInstances) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto instance = problems::random_tsp(8, seed);
    const auto tour = problems::tsp_heuristic(instance);
    EXPECT_TRUE(tour.valid);
    const double optimum = problems::tsp_optimal_length(instance);
    // NN + 2-opt is near-optimal at this size.
    EXPECT_LE(tour.length, optimum * 1.05 + 1e-9);
    EXPECT_GE(tour.length, optimum - 1e-9);
  }
}

TEST(Tsp, HeuristicTerminatesAtHugeCoordinates) {
  // examples/data/tsp_ulysses5.tsp with city 1 moved to x ~ 1e22.  At that
  // magnitude the 2-opt delta's rounding error exceeds any absolute
  // epsilon; the unbounded loop used to accept spurious "improvements"
  // forever.
  const auto instance = problems::read_tsplib(std::string_view(
      "NAME : tsp_ulysses5\n"
      "TYPE : TSP\n"
      "DIMENSION : 5\n"
      "EDGE_WEIGHT_TYPE : EUC_2D\n"
      "NODE_COORD_SECTION\n"
      "1 9999999999999999999990 0\n"
      "2 30 0\n"
      "3 30 40\n"
      "4 0 40\n"
      "5 15 20\n"
      "EOF\n"));
  const auto start = std::chrono::steady_clock::now();
  const auto tour = problems::tsp_heuristic(instance);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_TRUE(tour.valid);
  EXPECT_EQ(tour.order.size(), 5u);
  EXPECT_TRUE(std::isfinite(tour.length));
}

TEST(Tsp, QuboValueEqualsTourLengthForValidAssignments) {
  const auto instance = square_instance();
  const auto encoding = problems::tsp_to_qubo(instance);
  // Encode the perimeter tour 0-1-2-3.
  std::vector<std::uint8_t> x(16, 0);
  for (std::size_t p = 0; p < 4; ++p) x[p * 4 + p] = 1;  // city p at pos p
  const auto tour = problems::decode_tsp(instance, encoding, x);
  ASSERT_TRUE(tour.valid);
  EXPECT_EQ(tour.violations, 0u);
  EXPECT_DOUBLE_EQ(tour.length, 4.0);
  // Valid assignment: all penalties vanish, H = tour length.
  EXPECT_NEAR(encoding.qubo.value(x), 4.0, 1e-9);
}

TEST(Tsp, QuboPenalizesInvalidAssignments) {
  const auto instance = square_instance();
  const auto encoding = problems::tsp_to_qubo(instance);
  std::vector<std::uint8_t> empty(16, 0);
  EXPECT_GE(encoding.qubo.value(empty), 2.0 * encoding.penalty - 1e-9);
  const auto tour = problems::decode_tsp(instance, encoding, empty);
  EXPECT_FALSE(tour.valid);
  // All-zero assignment: every city unvisited and every position unfilled.
  EXPECT_EQ(tour.violations, 8u);
}

TEST(Tsp, QuboGroundStateIsOptimalTour) {
  // 4 cities -> 16 variables: exhaustible through the Ising brute force.
  const auto instance = square_instance();
  const auto encoding = problems::tsp_to_qubo(instance);
  const auto ising_model = encoding.qubo.to_ising();
  const auto [spins, energy] = ising_model.brute_force_ground_state();
  const auto x = ising::binary_from_spins(spins);
  const auto tour = problems::decode_tsp(instance, encoding, x);
  ASSERT_TRUE(tour.valid);
  EXPECT_NEAR(tour.length, 4.0, 1e-9);
  EXPECT_NEAR(energy, 4.0, 1e-9);
}

TEST(Tsp, AnnealerFindsValidShortTour) {
  const auto instance = problems::random_tsp(5, 9);
  const auto encoding = problems::tsp_to_qubo(instance);
  const auto folded = std::make_shared<const ising::IsingModel>(
      encoding.qubo.to_ising().with_ancilla());

  core::StandardSetup setup;
  setup.iterations = 30000;
  setup.acceptance_gain = 4.0;
  setup.variation = {0.01, 0.02, 0.0, 0.0};  // program-verify precision
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, folded, setup);

  problems::TspTour best;
  best.length = 1e18;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto spins = annealer->run(seed).best_spins;
    spins.pop_back();
    const auto tour = problems::decode_tsp(instance, encoding,
                                           ising::binary_from_spins(spins));
    if (tour.valid && tour.length < best.length) best = tour;
  }
  ASSERT_TRUE(best.valid);
  const double optimum = problems::tsp_optimal_length(instance);
  EXPECT_LE(best.length, 1.3 * optimum);
}

}  // namespace
