#include "problems/tsp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fecim::problems {

TspInstance random_tsp(std::size_t cities, std::uint64_t seed) {
  FECIM_EXPECTS(cities >= 3);
  util::Rng rng(seed);
  std::vector<std::pair<double, double>> points(cities);
  for (auto& p : points) p = {rng.uniform01(), rng.uniform01()};

  TspInstance instance;
  instance.distances.assign(cities, std::vector<double>(cities, 0.0));
  for (std::size_t u = 0; u < cities; ++u)
    for (std::size_t v = u + 1; v < cities; ++v) {
      const double dx = points[u].first - points[v].first;
      const double dy = points[u].second - points[v].second;
      const double d = std::sqrt(dx * dx + dy * dy);
      instance.distances[u][v] = d;
      instance.distances[v][u] = d;
    }
  return instance;
}

TspEncoding tsp_to_qubo(const TspInstance& instance, double penalty) {
  const std::size_t n = instance.num_cities();
  FECIM_EXPECTS(n >= 3);
  double max_distance = 0.0;
  for (const auto& row : instance.distances)
    for (const double d : row) max_distance = std::max(max_distance, d);
  if (penalty <= 0.0) penalty = max_distance * static_cast<double>(n);

  const std::size_t vars = n * n;
  auto var = [n](std::size_t city, std::size_t pos) {
    return city * n + pos;
  };

  linalg::CsrMatrix::Builder q(vars, vars);
  double constant = 0.0;

  // One-hot per city over positions, and per position over cities:
  // A (1 - sum x)^2 = A (1 - sum x + 2 sum_{pairs} x x')   [x^2 = x].
  auto add_one_hot = [&](auto index_of) {
    for (std::size_t outer = 0; outer < n; ++outer) {
      constant += penalty;
      for (std::size_t a = 0; a < n; ++a) {
        q.add(index_of(outer, a), index_of(outer, a), -penalty);
        for (std::size_t b = a + 1; b < n; ++b)
          q.add(index_of(outer, a), index_of(outer, b), 2.0 * penalty);
      }
    }
  };
  add_one_hot([&](std::size_t city, std::size_t pos) { return var(city, pos); });
  add_one_hot([&](std::size_t pos, std::size_t city) { return var(city, pos); });

  // Tour length: d(u,v) when u at position p and v at position p+1 (cyclic).
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      const double d = instance.distances[u][v];
      if (d == 0.0) continue;
      for (std::size_t p = 0; p < n; ++p)
        q.add(var(u, p), var(v, (p + 1) % n), d);
    }

  return TspEncoding{ising::QuboModel(q.build(), constant), n, penalty};
}

TspTour decode_tsp(const TspInstance& instance, const TspEncoding& encoding,
                   std::span<const std::uint8_t> x) {
  const std::size_t n = encoding.num_cities;
  FECIM_EXPECTS(x.size() == n * n);
  TspTour tour;
  tour.order.assign(n, 0);
  std::vector<int> per_position(n, 0);
  std::vector<int> per_city(n, 0);
  for (std::size_t city = 0; city < n; ++city)
    for (std::size_t pos = 0; pos < n; ++pos)
      if (x[city * n + pos]) {
        tour.order[pos] = static_cast<std::uint32_t>(city);
        ++per_position[pos];
        ++per_city[city];
      }
  for (std::size_t i = 0; i < n; ++i) {
    tour.violations += per_city[i] != 1;
    tour.violations += per_position[i] != 1;
  }
  tour.valid = tour.violations == 0;
  if (tour.valid) tour.length = tour_length(instance, tour.order);
  return tour;
}

double tour_length(const TspInstance& instance,
                   std::span<const std::uint32_t> order) {
  const std::size_t n = instance.num_cities();
  FECIM_EXPECTS(order.size() == n);
  double length = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    length += instance.distances[order[p]][order[(p + 1) % n]];
  return length;
}

double tsp_optimal_length(const TspInstance& instance) {
  const std::size_t n = instance.num_cities();
  FECIM_EXPECTS(n <= 10);
  // Fix city 0 at position 0 (cyclic symmetry) and enumerate the rest.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  double best = std::numeric_limits<double>::infinity();
  do {
    best = std::min(best, tour_length(instance, order));
  } while (std::next_permutation(order.begin() + 1, order.end()));
  return best;
}

TspTour tsp_heuristic(const TspInstance& instance) {
  const std::size_t n = instance.num_cities();
  TspTour tour;
  tour.order.reserve(n);
  std::vector<bool> used(n, false);
  std::uint32_t current = 0;
  used[0] = true;
  tour.order.push_back(0);
  for (std::size_t step = 1; step < n; ++step) {
    double best_d = std::numeric_limits<double>::infinity();
    std::uint32_t best_city = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (used[v]) continue;
      if (instance.distances[current][v] < best_d) {
        best_d = instance.distances[current][v];
        best_city = v;
      }
    }
    used[best_city] = true;
    tour.order.push_back(best_city);
    current = best_city;
  }

  // 2-opt: reverse segments while it shortens the tour.  An improvement
  // must beat a tolerance relative to the tour length -- at large
  // coordinates the rounding error of `delta` dwarfs any absolute epsilon
  // and would register endless spurious improvements -- and the pass bound
  // caps the work like the other local searches.
  constexpr std::size_t kMaxPasses = 1000;
  const double tolerance = 1e-12 * tour_length(instance, tour.order);
  bool improved = true;
  for (std::size_t pass = 0; improved && pass < kMaxPasses; ++pass) {
    improved = false;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 2; j < n; ++j) {
        if (i == 0 && j == n - 1) continue;  // same edge, cyclic
        const auto a = tour.order[i];
        const auto b = tour.order[i + 1];
        const auto c = tour.order[j];
        const auto d = tour.order[(j + 1) % n];
        const double delta = instance.distances[a][c] +
                             instance.distances[b][d] -
                             instance.distances[a][b] -
                             instance.distances[c][d];
        if (delta < -tolerance) {
          std::reverse(tour.order.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       tour.order.begin() + static_cast<std::ptrdiff_t>(j) + 1);
          improved = true;
        }
      }
    }
  }
  tour.length = tour_length(instance, tour.order);
  tour.valid = true;
  return tour;
}

}  // namespace fecim::problems
