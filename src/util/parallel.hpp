// Minimal fork-join helper for embarrassingly parallel experiment campaigns.
//
// Each task index gets its own RNG stream derived outside the loop, so the
// result of a campaign is independent of the thread count.
//
// Workers live in a lazily-initialized persistent pool: the first parallel
// call spawns them, every later call reuses them, so campaign loops that
// issue many parallel_for calls (sweeps, ablation grids) pay thread-creation
// cost once per process instead of once per call.  After a task throws, the
// remaining indices are still claimed (so completion accounting stays exact)
// but their bodies are skipped -- a failed campaign stops doing work
// immediately instead of running every remaining run to completion.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace fecim::util {

/// Composite failure from a parallel_for call in which more than one task
/// threw: carries the total failure count and the first few messages, so no
/// concurrent failure is silently dropped.  A single-failure call rethrows
/// the original exception unchanged.
class parallel_error : public std::runtime_error {
 public:
  /// How many task messages the composite retains (failures beyond this
  /// are counted but their messages dropped).
  static constexpr std::size_t kMaxMessages = 4;

  parallel_error(std::size_t failures, std::vector<std::string> messages);

  std::size_t failures() const noexcept { return failures_; }
  /// Captured messages, at most kMaxMessages, in capture order.
  const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::size_t failures_;
  std::vector<std::string> messages_;
};

/// Run body(i) for i in [0, count) across `threads` workers (0 = use
/// worker_threads()).  Task exceptions are captured: a single failure is
/// rethrown unchanged after the call completes; concurrent failures are
/// aggregated into a parallel_error (count + first messages).  Once a task
/// has thrown, remaining indices are drained as no-ops, so only tasks
/// already in flight can add to the aggregate.  The worker pool stays
/// usable after a throwing call.  Nested calls from inside a task body
/// execute serially inline (and stop at the first exception).  Thread-safe:
/// concurrent top-level calls are serialized against each other.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

/// Number of worker slots parallel_for would use for this request
/// (min(threads or worker_threads(), count), at least 1).
std::size_t resolved_parallel_threads(std::size_t count, std::size_t threads);

/// Irreversibly pin every parallel_for in this process to the inline serial
/// path.  Fork-spawned shard workers call this first thing: the persistent
/// pool's threads do not survive fork, so a child that submitted work to the
/// inherited pool state would block forever.  Serial execution is
/// bit-identical by construction (fixed per-run seeds, disjoint slots), and
/// each child runs its shard's replicas one after another anyway.
void force_serial_parallelism() noexcept;

}  // namespace fecim::util
