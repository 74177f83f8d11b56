#include "core/shard_runner.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/run_journal.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/subprocess.hpp"

namespace fecim::core {

namespace {

using Clock = CancellationToken::Clock;

/// One live worker as seen by the parent: its pipe, its pid, and a stream
/// decoder holding any partial line between reads.
struct Worker {
  std::size_t index = 0;
  long pid = -1;
  int read_fd = -1;
  RecordStreamDecoder decoder;
  bool eof = false;
};

bool contains_worker(const std::vector<std::size_t>& list, std::size_t k) {
  return std::find(list.begin(), list.end(), k) != list.end();
}

/// Child body: execute the shard's pending runs serially in increasing run
/// index, journal to the per-shard file, stream each finished record.
/// Runs inside the forked process only.
void run_shard_worker(int write_fd, std::size_t worker, std::size_t workers,
                      const Annealer& annealer, const ProblemInstance& problem,
                      const CampaignConfig& config,
                      const std::vector<std::uint64_t>& seeds,
                      const std::vector<char>& have,
                      const std::optional<Clock::time_point>& deadline) {
  // The parent's pool threads did not survive the fork; pin every
  // parallel_for in this process to the inline serial path.  Runs are
  // bit-identical across thread counts, so serial execution changes
  // nothing but wall time.
  util::force_serial_parallelism();

  RunJournal shard_journal;
  if (!config.journal_path.empty())
    shard_journal.open(shard_journal_path(config.journal_path, worker),
                       /*resume=*/false, config.base_seed, config.runs);

  const bool kill_after_first =
      contains_worker(config.inject.kill_workers, worker);
  std::size_t streamed = 0;
  for (std::size_t run = worker; run < config.runs; run += workers) {
    if (have[run]) continue;  // resumed before the fork
    const RunOutcome outcome = execute_campaign_run(
        annealer, problem, config, run, seeds[run], deadline);
    const JournalEntry entry{run, outcome.record, outcome.ledger};
    shard_journal.append(entry);  // skips kCancelled by contract
    // Wire format = journal line format; cancelled records DO travel (the
    // parent needs them for per_run) even though they are never journaled.
    const std::string line = encode_journal_entry(entry) + "\n";
    if (!util::write_all(write_fd, line.data(), line.size())) return;
    ++streamed;
    // Fault injection: die abruptly (no journal close, no stream flush)
    // so the parent's recovery path is exercised against a real dead pipe.
    if (kill_after_first && streamed == 1) util::exit_child_now(42);
  }
}

}  // namespace

bool shard_runner_supported() noexcept {
  return util::subprocess_supported();
}

std::string shard_journal_path(const std::string& journal_path,
                               std::size_t worker) {
  return journal_path + ".shard" + std::to_string(worker);
}

CampaignResult run_sharded_campaign(const Annealer& annealer,
                                    const ProblemInstance& problem,
                                    const CampaignConfig& config) {
  validate_campaign(problem, config);
  FECIM_EXPECTS(config.workers > 0);
  FECIM_EXPECTS(shard_runner_supported() &&
                "shard runner: this platform cannot fork worker processes "
                "(use workers = 0)");

  const std::size_t workers = std::min(config.workers, config.runs);
  const auto seeds = derive_run_seeds(config.base_seed, config.runs);

  std::vector<RunOutcome> outcomes(config.runs);
  std::vector<char> have(config.runs, 0);

  // The breakdown is a pure function of the ledger; recomputing it on the
  // parent side keeps both the journal and the wire free of derived
  // quantities.
  const auto install = [&](const JournalEntry& entry) {
    auto& slot = outcomes[entry.run];
    slot.record = entry.record;
    slot.ledger = entry.ledger;
    if (entry.record.status == RunStatus::kOk)
      slot.breakdown = cost::compute_cost(entry.ledger, config.costs,
                                          annealer.exp_unit());
    have[entry.run] = 1;
  };
  const auto check_entry = [&](const JournalEntry& entry) {
    FECIM_EXPECTS(entry.run < config.runs &&
                  "shard: run index out of range for this campaign");
    FECIM_EXPECTS(!have[entry.run] && "shard: duplicate run record");
    FECIM_EXPECTS(entry.record.seed ==
                      run_attempt_seed(seeds[entry.run],
                                       entry.record.attempt) &&
                  "shard: seed mismatch (record from another campaign?)");
  };

  // Resume: union the main journal with every surviving per-shard prefix
  // from the interrupted execution, then persist the union into the main
  // journal so shard files become redundant.
  RunJournal journal;
  if (!config.journal_path.empty()) {
    const auto entries = journal.open(config.journal_path, config.resume,
                                      config.base_seed, config.runs);
    for (const auto& entry : entries) {
      check_entry(entry);
      install(entry);
    }
    if (config.resume) {
      for (std::size_t k = 0;; ++k) {
        const auto shard_path = shard_journal_path(config.journal_path, k);
        if (!std::filesystem::exists(shard_path)) break;
        for (const auto& entry :
             read_journal_file(shard_path, config.base_seed, config.runs)) {
          if (have[entry.run]) continue;  // already in the main journal
          check_entry(entry);
          install(entry);
          journal.append(entry);
        }
      }
    }
  }

  std::optional<Clock::time_point> campaign_deadline;
  if (config.time_limit_seconds > 0.0)
    campaign_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               config.time_limit_seconds));

  // Spawn one worker per shard that still has pending runs.  fork()
  // snapshots the parent's memory, so children read the annealer, problem,
  // seed table, and resume mask directly -- only records cross a pipe.
  std::vector<Worker> live;
  for (std::size_t k = 0; k < workers; ++k) {
    bool pending = false;
    for (std::size_t run = k; run < config.runs && !pending; run += workers)
      pending = !have[run];
    if (!pending) continue;
    auto child = util::spawn_pipe_child([&, k](int write_fd) {
      run_shard_worker(write_fd, k, workers, annealer, problem, config,
                       seeds, have, campaign_deadline);
    });
    FECIM_EXPECTS(child.has_value() &&
                  "shard runner: fork/pipe failed spawning worker");
    live.push_back(Worker{k, child->pid, child->read_fd, {}, false});
  }

  // Drain records until every worker's pipe reaches EOF.  Pipe contents
  // survive a child's death, so even a killed worker's already-streamed
  // records are installed; a torn final line stays in the decoder's
  // partial buffer and is simply re-executed below.  Past the campaign
  // deadline (plus a short grace for workers busy writing their cancelled
  // records) stragglers are SIGKILLed -- a hung worker cannot hang the
  // campaign.
  try {
    bool deadline_killed = false;
    while (std::any_of(live.begin(), live.end(),
                       [](const Worker& w) { return !w.eof; })) {
      int timeout_ms = -1;
      if (campaign_deadline) {
        const auto grace = std::chrono::milliseconds(500);
        const auto remain =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                *campaign_deadline + grace - Clock::now())
                .count();
        if (remain <= 0) {
          if (!deadline_killed) {
            for (const auto& w : live)
              if (!w.eof) util::kill_child(w.pid);
            deadline_killed = true;
          }
          timeout_ms = 100;  // drain what the pipes still hold
        } else {
          timeout_ms = static_cast<int>(
              std::min<long long>(remain, 1000));
        }
      }
      std::vector<int> fds;
      std::vector<std::size_t> fd_owner;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].eof) continue;
        fds.push_back(live[i].read_fd);
        fd_owner.push_back(i);
      }
      for (const auto ready : util::poll_readable(fds, timeout_ms)) {
        auto& worker = live[fd_owner[ready]];
        char buffer[4096];
        const long n = util::read_some(worker.read_fd, buffer, sizeof buffer);
        if (n > 0) {
          std::vector<JournalEntry> entries;
          worker.decoder.feed(buffer, static_cast<std::size_t>(n), entries);
          for (const auto& entry : entries) {
            check_entry(entry);
            FECIM_EXPECTS(entry.run % workers == worker.index &&
                          "shard: record from a run this worker does not own");
            install(entry);
            journal.append(entry);  // skips kCancelled by contract
          }
        } else {  // EOF or read error: the worker is done (or dead)
          util::close_fd(worker.read_fd);
          util::wait_child(worker.pid);
          worker.eof = true;
        }
      }
    }
  } catch (...) {
    // Corrupt stream or journal failure: never leak worker processes.
    for (const auto& w : live) {
      if (w.eof) continue;
      util::kill_child(w.pid);
      util::close_fd(w.read_fd);
      util::wait_child(w.pid);
    }
    throw;
  }

  // Recovery: any run without an installed record (dead worker, torn final
  // line, worker killed at the deadline) is re-executed in the parent from
  // its predetermined seed -- bit-identical to what the worker would have
  // streamed.  Past the deadline this instantly produces the same
  // kCancelled records the worker itself would have emitted.
  std::vector<std::size_t> missing;
  for (std::size_t run = 0; run < config.runs; ++run)
    if (!have[run]) missing.push_back(run);
  if (!missing.empty()) {
    util::parallel_for(
        missing.size(),
        [&](std::size_t i) {
          const std::size_t run = missing[i];
          outcomes[run] = execute_campaign_run(
              annealer, problem, config, run, seeds[run], campaign_deadline);
          journal.append({run, outcomes[run].record, outcomes[run].ledger});
        },
        config.threads);
  }

  // Success: the main journal now holds every journalable record, so the
  // per-shard files are redundant -- remove them.
  if (!config.journal_path.empty()) {
    for (std::size_t k = 0;; ++k) {
      const auto shard_path = shard_journal_path(config.journal_path, k);
      std::error_code ec;
      if (!std::filesystem::remove(shard_path, ec)) break;
    }
  }

  return reduce_campaign(problem, config, std::move(outcomes));
}

}  // namespace fecim::core
