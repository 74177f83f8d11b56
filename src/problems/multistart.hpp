// Multi-restart local search shared by the reference-objective proxies
// (reference_cut, qubo_reference_value).
//
// Every restart's random start is drawn from one seeded Rng in restart
// order, exactly as a serial loop would draw them; the descents are then
// independent and run on the util thread pool into per-restart slots, and
// the best value is reduced in restart order.  The result is therefore
// bit-identical for every thread count, for nested calls (which run
// inline) and for forked shard workers (pinned serial).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "ising/spin.hpp"

namespace fecim::problems {

/// Best of `restarts` (> 0) descents from seeded random spin vectors of
/// length `n`: max of the returned values when `maximize`, else min.
/// `descend` improves its spins in place and returns their objective; it
/// runs concurrently on distinct spin vectors, so everything it reads must
/// be safe to share (build lazy caches such as Graph's adjacency first).
double best_of_random_restarts(
    std::size_t n, std::size_t restarts, std::uint64_t seed, bool maximize,
    const std::function<double(ising::SpinVector&)>& descend);

}  // namespace fecim::problems
