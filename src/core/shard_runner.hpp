// The fork stage of core::run_campaign (config.workers >= 1): partition a
// campaign's pending runs round-robin across fork-spawned worker processes
// and stream completed RunRecords back to the parent over pipes.
// Everything else -- validation, seeds, journal and resume, the deadline,
// executing whatever is still missing on the pool, reduction -- is the one
// run_campaign body every worker count shares (docs/sharding.md).
//
// The wire protocol IS the run-journal v1 line format
// (core/run_journal.hpp): one newline-terminated line per finished run,
// with the "end" sentinel / length-prefixed message making a torn record
// (worker died mid-write) detectable as a partial line rather than silently
// installed.  Because per-run seeds are derived up front, every record a
// worker streams is byte-identical to what the in-process pool would have
// produced, and reduce_campaign() walks runs in index order -- so the
// CampaignResult is bit-identical to config.workers = 0 for every worker
// count, including noisy, tiled, SB, and warm-started campaigns.
//
// Failure model (docs/sharding.md): a worker that dies or hangs is detected
// by the parent (pipe EOF / campaign deadline); its unfinished runs stay
// missing and run_campaign executes them in the parent from their
// predetermined seeds, which reproduces the missing records bit-identically.
// With journaling enabled each worker also appends to a per-shard journal
// (shard_journal_path(path, k)); a resumed campaign -- whatever its worker
// count -- unions the main journal with every surviving shard prefix.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/run_journal.hpp"
#include "core/runner.hpp"

namespace fecim::core {

/// True when this platform can fork pipe-connected worker processes.
/// When false, run_campaign with workers >= 1 throws contract_error;
/// callers that want graceful degradation (fecim_solve does) check here
/// first and fall back to workers = 0.
bool shard_runner_supported() noexcept;

/// Per-shard journal path for worker `worker`: "<journal_path>.shard<k>".
std::string shard_journal_path(const std::string& journal_path,
                               std::size_t worker);

/// Fork one worker per shard (config.workers clamped to the run count) that
/// owns a run with have[run] == 0, and hand every record the workers stream
/// to `install` in arrival order until each pipe reaches EOF.  Runs no
/// worker delivered (dead worker, torn final line, deadline kill) are left
/// for the caller.  Workers are never leaked: on any exception they are
/// killed and reaped before it propagates.
void drain_shard_workers(
    const Annealer& annealer, const ProblemInstance& problem,
    const CampaignConfig& config, const std::vector<std::uint64_t>& seeds,
    const std::vector<char>& have,
    const std::optional<CancellationToken::Clock::time_point>&
        campaign_deadline,
    const std::function<void(const JournalEntry&)>& install);

}  // namespace fecim::core
