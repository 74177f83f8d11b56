// Experiment campaign runner: many independent annealing runs on one
// combinatorial-optimization instance, aggregated into the statistics the
// paper's evaluation reports (domain objective, feasibility and success
// rates, modeled energy and latency).
//
// The runner is problem-agnostic: run_campaign() drives any ProblemInstance
// (problems/instances.hpp builds the six built-in families, Max-Cut
// included) and scores runs through the instance's decode hook.  The shared
// worker pool parallelizes across runs (replicas) only.  Replica execution
// is deterministic -- every run derives its seed up front, binds its own
// engine clone with counter-keyed noise streams inside Annealer::run(), and
// writes into a disjoint result slot, so the campaign outcome is
// bit-identical for every thread count.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/annealer.hpp"
#include "core/problem_instance.hpp"
#include "core/run_lifecycle.hpp"
#include "cost/cost_model.hpp"
#include "util/stats.hpp"

namespace fecim::core {

/// Deterministic fault-injection test hooks: sabotage the listed run
/// indices so every recovery path is exercised in CI rather than trusted.
/// Injection hits attempt 0 only -- a retried run recovers, which is
/// exactly the path worth pinning.
struct FaultInjection {
  std::vector<std::size_t> fail_runs;  ///< throw injected_fault at run start
  std::vector<std::size_t> hang_runs;  ///< pre-expired run deadline: the
                                       ///< annealer's cooperative poll trips
  /// Shard-runner hook (workers >= 1 only): the listed worker processes
  /// _exit abruptly after streaming their first record, so the parent's
  /// dead-worker recovery path (EOF with missing runs -> re-execute) is
  /// exercised in CI rather than trusted.
  std::vector<std::size_t> kill_workers;
};

struct CampaignConfig {
  std::size_t runs = 5;
  std::uint64_t base_seed = 42;
  double success_threshold = 0.9;  ///< paper: within 10 % of the reference
  std::size_t threads = 0;         ///< 0 = util::worker_threads()
  /// Fork-spawned worker processes (docs/sharding.md).  0 (default)
  /// executes in process on the shared thread pool; >= 1 partitions the
  /// runs round-robin across that many forked workers that stream records
  /// back over pipes (core/shard_runner.hpp) -- bit-identical to the
  /// in-process path for every worker count.  Requires a platform with
  /// fork (core::shard_runner_supported()).
  std::size_t workers = 0;
  cost::ComponentCosts costs{};

  // --- run lifecycle (docs/robustness.md) ---
  /// Wall-clock deadline per run [s]; 0 = none.  An expired run is recorded
  /// as kTimedOut and never retried.
  double run_timeout_seconds = 0.0;
  /// Wall-clock limit for the whole campaign [s]; 0 = none.  Runs that
  /// cannot start (or finish) before the limit are recorded as kCancelled.
  double time_limit_seconds = 0.0;
  /// Extra attempts for a kFailed run, reseeded deterministically via
  /// run_attempt_seed(seed, attempt).  Timeouts and cancellations are final.
  std::size_t retries = 0;
  /// Append-only checkpoint journal path; empty = disabled.  See
  /// core/run_journal.hpp for the format.
  std::string journal_path;
  /// Resume from an existing journal: already-journaled runs are installed
  /// without executing, reproducing the uninterrupted CampaignResult
  /// bit-identically (per-run seeds are derived up front).
  bool resume = false;
  FaultInjection inject{};
};

/// Everything one run contributed, in run order.  Kept per run (not merged
/// on the fly) so thread-count determinism is testable record by record and
/// callers can re-decode domain artifacts (colorings, tours, selections)
/// from the winning configuration.
struct RunRecord {
  std::uint64_t seed = 0;          ///< effective seed of the recorded
                                   ///< attempt: run_attempt_seed(base, attempt)
  RunStatus status = RunStatus::kOk;
  std::uint32_t attempt = 0;       ///< winning (or final) attempt index
  std::string error;               ///< captured message; empty when kOk
  double best_energy = 0.0;        ///< best Ising energy of the run
  DecodedSolution solution;        ///< decoded domain outcome; only
                                   ///< meaningful when status == kOk (other
                                   ///< statuses carry objective = NaN,
                                   ///< feasible = false)
  ising::SpinVector best_spins;    ///< configuration achieving best_energy
};

/// Placeholder solution carried by non-kOk records: NaN objective (so an
/// accidental ranking of a failed run fails loudly instead of winning with
/// 0), infeasible, zero violations.
DecodedSolution failed_run_solution() noexcept;

struct CampaignResult {
  std::size_t runs = 0;
  std::size_t completed = 0;      ///< runs with status kOk; every aggregate
                                  ///< below is over completed runs only --
                                  ///< failed runs are recorded in per_run
                                  ///< but never pollute the statistics
  util::RunningStats objective;   ///< domain objective over *feasible* runs
  util::RunningStats normalized;  ///< objective / reference over feasible
                                  ///< runs (empty when the reference is 0)
  util::RunningStats violations;  ///< constraint violations, every run
  util::RunningStats energy;      ///< modeled energy per run [J]
  util::RunningStats time;        ///< modeled latency per run [s]
  util::RunningStats adc_energy;  ///< ADC share of run energy [J]
  util::RunningStats exp_energy;  ///< e^x share of run energy [J]
  double success_rate = 0.0;      ///< fraction of completed runs feasible
                                  ///< AND within threshold (0 when none
                                  ///< completed)
  double feasible_rate = 0.0;     ///< fraction of completed runs satisfying
                                  ///< constraints (0 when none completed)
  double completed_rate = 0.0;    ///< completed / runs
  /// Summed over all runs.  Includes the tile-grid events
  /// (adc_conversions per (tile, column), tile_activations,
  /// partial_sum_updates) when the annealer executes over a bounded
  /// crossbar::TileShape -- see docs/tiling.md.
  crossbar::CostLedger total_ledger;
  std::vector<RunRecord> per_run;     ///< per-run records in run order

  /// Index into per_run of the best feasible run (sense-aware), or
  /// per_run.size() when no run was feasible.
  std::size_t best_run = 0;

  /// Best feasible domain objective (objective.max() for maximization,
  /// objective.min() for minimization).  NaN when no run was feasible -- a
  /// literal 0 would be indistinguishable from a perfect imbalance or tour
  /// for minimization families, so rank-by-objective callers fail loudly
  /// instead of silently preferring fully infeasible campaigns.
  double best_objective(ObjectiveSense sense) const noexcept;
};

// ---------------------------------------------------------------------------
// Campaign execution building blocks -- shared by the in-process thread-pool
// path below and the multi-process shard runner (core/shard_runner.hpp), so
// bit-identity between the two holds by construction instead of by parallel
// maintenance.
// ---------------------------------------------------------------------------

/// Per-run aggregation inputs, written into a disjoint slot by whichever
/// worker (thread or process) executes the run.  One slot per run makes the
/// final reduction byte-identical to a serial campaign for every schedule:
/// reduce_campaign always walks runs in index order, so Welford update
/// order never depends on where a run executed.
struct RunOutcome {
  RunRecord record;
  cost::CostBreakdown breakdown{};
  crossbar::CostLedger ledger{};
};

/// Per-run seeds derived up front from the campaign base seed -- the seed
/// table is what makes the outcome independent of the schedule, of which
/// runs a resume still has to execute, and of which process runs a shard.
std::vector<std::uint64_t> derive_run_seeds(std::uint64_t base_seed,
                                            std::size_t runs);

/// Shared config/problem validation (throws contract_error).
void validate_campaign(const ProblemInstance& problem,
                       const CampaignConfig& config);

/// Execute one run to its terminal status.  Never throws: every failure
/// mode lands on the record, so the campaign degrades gracefully instead of
/// aborting.  The full run lifecycle applies: campaign/run deadlines,
/// deterministic run_attempt_seed retry for kFailed, fault injection at
/// attempt 0.
RunOutcome execute_campaign_run(
    const Annealer& annealer, const ProblemInstance& problem,
    const CampaignConfig& config, std::size_t run, std::uint64_t run_seed,
    const std::optional<CancellationToken::Clock::time_point>&
        campaign_deadline);

/// Single-threaded reduction in run index order: consumes one RunOutcome
/// per run and aggregates into the CampaignResult.  No merge mutex, and the
/// statistics are schedule- and process-topology-independent.
CampaignResult reduce_campaign(const ProblemInstance& problem,
                               const CampaignConfig& config,
                               std::vector<RunOutcome>&& outcomes);

/// Run `config.runs` independent replicas of `annealer` on `problem` and
/// aggregate.  Runs execute in parallel across `config.threads` workers;
/// results are bit-identical for every thread count (fixed per-run seeds,
/// disjoint result slots, reduction in run order).  With config.workers >=
/// 1 the campaign executes on fork-spawned worker processes instead
/// (core/shard_runner.hpp) -- still bit-identical.
///
/// Fault-tolerant: a throwing, timed-out, or cancelled run is recorded on
/// its RunRecord (status + captured error) and excluded from the aggregate
/// statistics instead of aborting the campaign; completed_rate reports how
/// much of the campaign survived.  Only errors outside the run bodies
/// (invalid config, journal corruption) propagate to the caller.
CampaignResult run_campaign(const Annealer& annealer,
                            const ProblemInstance& problem,
                            const CampaignConfig& config);

}  // namespace fecim::core
