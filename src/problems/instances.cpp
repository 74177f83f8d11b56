#include "problems/instances.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "ising/qubo.hpp"
#include "problems/coloring.hpp"
#include "problems/maxcut.hpp"
#include "problems/partition.hpp"
#include "problems/warm_start.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fecim::problems {

namespace {

/// Strip the pinned ancilla (always the last spin of a with_ancilla model)
/// and convert to binary QUBO variables.
ising::BinaryVector qubo_variables(std::span<const ising::Spin> spins,
                                   std::size_t num_variables) {
  FECIM_EXPECTS(spins.size() >= num_variables);
  return ising::binary_from_spins(spins.subspan(0, num_variables));
}

/// Shortest exact decimal for summaries ("37.5", not "37.500000" -- and a
/// fractional capacity must not be truncated to its integer part).
std::string compact_number(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", x);
  return buffer;
}

/// -H: same variables, every coefficient and the constant negated.
ising::QuboModel negated_qubo(const ising::QuboModel& model) {
  const auto& q = model.q();
  linalg::CsrMatrix::Builder builder(q.rows(), q.rows());
  for (std::size_t r = 0; r < q.rows(); ++r) {
    const auto cols = q.row_cols(r);
    const auto values = q.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      builder.add(r, cols[k], -values[k]);
  }
  return ising::QuboModel(builder.build(), -model.constant());
}

}  // namespace

core::ProblemInstance make_maxcut_problem(std::string name, Graph graph,
                                          std::size_t reference_restarts,
                                          std::uint64_t reference_seed) {
  const double reference =
      reference_cut(graph, reference_restarts, reference_seed);
  auto shared_graph = std::make_shared<const Graph>(std::move(graph));

  core::ProblemInstance problem;
  problem.name = std::move(name);
  problem.family = "maxcut";
  problem.summary = std::to_string(shared_graph->num_vertices()) +
                    " vertices, " +
                    std::to_string(shared_graph->num_edges()) + " edges";
  problem.objective_label = "cut";
  problem.model = std::make_shared<const ising::IsingModel>(
      maxcut_to_ising(*shared_graph));
  problem.reference_objective = reference;
  problem.sense = core::ObjectiveSense::kMaximize;
  problem.decode = [shared_graph](std::span<const ising::Spin> spins) {
    core::DecodedSolution solution;
    solution.objective = cut_value(*shared_graph, spins);
    solution.feasible = true;  // every bipartition is a valid cut
    return solution;
  };
  problem.warm_start = [shared_graph] {
    return greedy_maxcut_spins(*shared_graph);
  };
  return problem;
}

core::ProblemInstance make_coloring_problem(std::string name, Graph graph,
                                            std::size_t num_colors,
                                            double penalty) {
  if (num_colors == 0) {
    const auto greedy = greedy_coloring(graph);
    for (const auto c : greedy)
      num_colors = std::max<std::size_t>(num_colors, c + 1);
  }
  auto shared_graph = std::make_shared<const Graph>(std::move(graph));
  auto encoding = std::make_shared<const ColoringEncoding>(
      coloring_to_qubo(*shared_graph, num_colors, penalty));

  core::ProblemInstance problem;
  problem.name = std::move(name);
  problem.family = "coloring";
  problem.summary = std::to_string(shared_graph->num_vertices()) +
                    " vertices, " +
                    std::to_string(shared_graph->num_edges()) + " edges, k=" +
                    std::to_string(num_colors);
  problem.objective_label = "colors used";
  problem.model = std::make_shared<const ising::IsingModel>(
      encoding->qubo.to_ising().with_ancilla());
  // Any conflict-free assignment uses at most the palette, so success
  // coincides with feasibility; fewer colors than the palette is a bonus
  // the objective makes visible.
  problem.reference_objective = static_cast<double>(num_colors);
  problem.sense = core::ObjectiveSense::kMinimize;
  problem.decode = [shared_graph, encoding](
                       std::span<const ising::Spin> spins) {
    const auto x =
        qubo_variables(spins, encoding->qubo.num_variables());
    core::DecodedSolution solution;
    solution.violations = static_cast<double>(
        coloring_violations(*shared_graph, *encoding, x));
    solution.feasible = solution.violations == 0.0;
    if (solution.feasible) {
      const auto colors = decode_coloring(*encoding, x);
      std::vector<std::uint8_t> used(encoding->num_colors, 0);
      for (const auto c : colors) used[c] = 1;
      solution.objective = static_cast<double>(
          std::count(used.begin(), used.end(), std::uint8_t{1}));
    } else {
      solution.objective = static_cast<double>(encoding->num_colors);
    }
    return solution;
  };
  problem.warm_start = [shared_graph, encoding] {
    return dsatur_coloring_spins(*shared_graph, encoding->num_colors);
  };
  return problem;
}

core::ProblemInstance make_knapsack_problem(std::string name,
                                            KnapsackInstance instance,
                                            double penalty) {
  auto shared_instance =
      std::make_shared<const KnapsackInstance>(std::move(instance));
  auto encoding = std::make_shared<const KnapsackEncoding>(
      knapsack_to_qubo(*shared_instance, penalty));

  core::ProblemInstance problem;
  problem.name = std::move(name);
  problem.family = "knapsack";
  problem.summary =
      std::to_string(shared_instance->items.size()) + " items + " +
      std::to_string(encoding->num_slack_bits) + " slack bits, capacity " +
      compact_number(shared_instance->capacity);
  problem.objective_label = "value";
  problem.model = std::make_shared<const ising::IsingModel>(
      encoding->qubo.to_ising().with_ancilla());
  // DP optimum for integral weights, greedy density bound otherwise (the
  // selection happens inside knapsack_optimal_value, which no longer
  // contract-crashes on fractional capacities like --capacity 37.5).
  problem.reference_objective = knapsack_optimal_value(*shared_instance);
  problem.sense = core::ObjectiveSense::kMaximize;
  problem.decode = [shared_instance, encoding](
                       std::span<const ising::Spin> spins) {
    const auto x = qubo_variables(
        spins, encoding->num_items + encoding->num_slack_bits);
    const auto decoded = decode_knapsack(*shared_instance, *encoding, x);
    core::DecodedSolution solution;
    solution.objective = decoded.value;
    solution.feasible = decoded.feasible;
    // Capacity excess as the violation magnitude, derived from the decode's
    // own feasibility verdict so the "violations == 0 iff feasible"
    // invariant holds even when the excess sits inside decode_knapsack's
    // floating-point tolerance.
    solution.violations =
        decoded.feasible
            ? 0.0
            : std::max(0.0, decoded.weight - shared_instance->capacity);
    return solution;
  };
  problem.warm_start = [shared_instance, encoding] {
    return greedy_knapsack_spins(*shared_instance, *encoding);
  };
  return problem;
}

core::ProblemInstance make_partition_problem(std::string name,
                                             std::vector<double> numbers) {
  auto shared_numbers =
      std::make_shared<const std::vector<double>>(std::move(numbers));

  core::ProblemInstance problem;
  problem.name = std::move(name);
  problem.family = "partition";
  problem.summary = std::to_string(shared_numbers->size()) + " numbers, sum " +
                    std::to_string(static_cast<long long>(std::accumulate(
                        shared_numbers->begin(), shared_numbers->end(), 0.0)));
  problem.objective_label = "imbalance";
  problem.model = std::make_shared<const ising::IsingModel>(
      partition_to_ising(*shared_numbers));
  problem.reference_objective = greedy_partition_imbalance(*shared_numbers);
  problem.sense = core::ObjectiveSense::kMinimize;
  problem.decode = [shared_numbers](std::span<const ising::Spin> spins) {
    core::DecodedSolution solution;
    solution.objective = partition_imbalance(*shared_numbers, spins);
    solution.feasible = true;  // every bipartition is admissible
    return solution;
  };
  problem.warm_start = [shared_numbers] {
    return differencing_partition_spins(*shared_numbers);
  };
  return problem;
}

core::ProblemInstance make_tsp_problem(std::string name, TspInstance instance,
                                       double penalty) {
  auto shared_instance =
      std::make_shared<const TspInstance>(std::move(instance));
  auto encoding = std::make_shared<const TspEncoding>(
      tsp_to_qubo(*shared_instance, penalty));

  core::ProblemInstance problem;
  problem.name = std::move(name);
  problem.family = "tsp";
  problem.summary = std::to_string(shared_instance->num_cities()) +
                    " cities, " +
                    std::to_string(encoding->qubo.num_variables()) +
                    " one-hot variables";
  problem.objective_label = "tour length";
  problem.model = std::make_shared<const ising::IsingModel>(
      encoding->qubo.to_ising().with_ancilla());
  problem.reference_objective = tsp_heuristic(*shared_instance).length;
  problem.sense = core::ObjectiveSense::kMinimize;
  problem.decode = [shared_instance, encoding](
                       std::span<const ising::Spin> spins) {
    const std::size_t n = encoding->num_cities;
    const auto x = qubo_variables(spins, n * n);
    const auto tour = decode_tsp(*shared_instance, *encoding, x);
    core::DecodedSolution solution;
    solution.feasible = tour.valid;
    solution.objective = tour.valid ? tour.length : 0.0;
    solution.violations = static_cast<double>(tour.violations);
    return solution;
  };
  problem.warm_start = [shared_instance] {
    return nearest_neighbor_tsp_spins(*shared_instance);
  };
  return problem;
}

core::ProblemInstance make_qubo_problem(std::string name,
                                        QuboInstance instance,
                                        std::size_t reference_restarts,
                                        std::uint64_t reference_seed) {
  auto shared_model =
      std::make_shared<const ising::QuboModel>(std::move(instance.model));
  const bool maximize = instance.maximize;

  core::ProblemInstance problem;
  problem.name = std::move(name);
  problem.family = "qubo";
  problem.summary = std::to_string(shared_model->num_variables()) +
                    " variables, " +
                    std::to_string(shared_model->q().nonzeros()) +
                    " coefficients";
  problem.objective_label = "objective";
  // Annealers minimize Ising energy, so a maximize instance anneals -H
  // (the energy minimum is then the domain optimum) while the decode hook
  // and reference keep reporting in original-H units.  The annealed model
  // is kept for the warm start, which must descend the minimized H.
  auto annealed = std::make_shared<const ising::QuboModel>(
      maximize ? negated_qubo(*shared_model) : *shared_model);
  problem.model = std::make_shared<const ising::IsingModel>(
      annealed->to_ising().with_ancilla());
  problem.reference_objective = qubo_reference_value(
      *shared_model, maximize, reference_restarts, reference_seed);
  problem.sense = maximize ? core::ObjectiveSense::kMaximize
                           : core::ObjectiveSense::kMinimize;
  problem.decode = [shared_model](std::span<const ising::Spin> spins) {
    const auto x = qubo_variables(spins, shared_model->num_variables());
    core::DecodedSolution solution;
    solution.objective = shared_model->value(x);
    solution.feasible = true;  // unconstrained by definition
    return solution;
  };
  problem.warm_start = [annealed] { return descent_qubo_spins(*annealed); };
  return problem;
}

std::vector<std::uint32_t> coloring_from_spins(
    const Graph& graph, std::size_t num_colors,
    std::span<const ising::Spin> spins) {
  // The one-hot layout depends on (vertices, colors) only, so any positive
  // penalty rebuilds the factory's encoding exactly.
  const auto encoding = coloring_to_qubo(graph, num_colors, 1.0);
  return decode_coloring(encoding,
                         qubo_variables(spins, encoding.qubo.num_variables()));
}

KnapsackSolution knapsack_from_spins(const KnapsackInstance& instance,
                                     std::span<const ising::Spin> spins) {
  // Variable layout (items first, then slack) depends on the instance only,
  // not on the penalty weight.
  const auto encoding = knapsack_to_qubo(instance);
  return decode_knapsack(
      instance, encoding,
      qubo_variables(spins, encoding.num_items + encoding.num_slack_bits));
}

KnapsackInstance random_knapsack(std::size_t items, std::uint64_t seed,
                                 double capacity) {
  FECIM_EXPECTS(items > 0);
  util::Rng rng(seed);
  KnapsackInstance instance;
  instance.items.reserve(items);
  double total_weight = 0.0;
  for (std::size_t i = 0; i < items; ++i) {
    const auto value = static_cast<double>(rng.uniform_int(3, 20));
    const auto weight = static_cast<double>(rng.uniform_int(2, 12));
    instance.items.push_back({value, weight});
    total_weight += weight;
  }
  instance.capacity =
      capacity > 0.0 ? capacity : std::max(1.0, std::round(0.4 * total_weight));
  return instance;
}

std::vector<double> random_partition_numbers(std::size_t count,
                                             std::uint64_t seed) {
  FECIM_EXPECTS(count >= 2);
  util::Rng rng(seed);
  std::vector<double> numbers(count);
  for (auto& x : numbers)
    x = static_cast<double>(rng.uniform_int(1, 64));
  return numbers;
}

}  // namespace fecim::problems
