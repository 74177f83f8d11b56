#include "problems/multistart.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fecim::problems {

double best_of_random_restarts(
    std::size_t n, std::size_t restarts, std::uint64_t seed, bool maximize,
    const std::function<double(ising::SpinVector&)>& descend) {
  FECIM_EXPECTS(restarts > 0);
  util::Rng rng(seed);
  std::vector<ising::SpinVector> starts;
  starts.reserve(restarts);
  for (std::size_t r = 0; r < restarts; ++r)
    starts.push_back(ising::random_spins(n, rng));

  std::vector<double> values(restarts);
  util::parallel_for(restarts,
                     [&](std::size_t r) { values[r] = descend(starts[r]); });

  double best = maximize ? -std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::infinity();
  for (const double value : values)
    best = maximize ? std::max(best, value) : std::min(best, value);
  return best;
}

}  // namespace fecim::problems
