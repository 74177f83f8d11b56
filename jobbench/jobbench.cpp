// jobbench -- whole-job benchmark of the fecim_solve job path.
//
// usage:
//   jobbench --workload NAME --seed N --seconds S --trace 0|1
//            [--heldout-seed M] [--work-dir DIR]
//   jobbench --selftest [--work-dir DIR]
//
// Each job calls the public functions tools/fecim_solve.cpp's job path
// calls, in the same order and with the same auto budgets, gain and
// variation policy:
//   problems::read_gset_file -> problems::make_maxcut_problem ->
//   core::make_annealer -> core::run_campaign.
// Inputs (Gset files) are generated from the workload seed before any clock
// starts, so ingest is timed the way a user pays it.  Passes repeat for
// --seconds; every reported time is built from each job's median over passes
// (a pass's time is their sum, job percentiles are taken over them).
// After every job, outside the timed region, each completed run is
// re-checked independently of the engine (Ising energy, cut from the edge
// list, cut/energy identity), and the pass's result digest must agree across
// passes, between the traced and the untraced pipeline, and with the pinned
// table below.  Any failed check prints "correct": false and exits 1.
//
// --trace 1 alternates untraced passes with traced ones.  The traced pass
// puts spans around the same public calls from outside the library and
// replaces run_campaign's in-process path with its public building blocks
// (derive_run_seeds -> execute_campaign_run on benchmark threads ->
// reduce_campaign) so each run is timed; afterwards it probes the layers the
// annealer constructor hides (reference, quantize, program, IR-drop solve)
// on the same inputs, outside the job's span.
//
// --selftest checks that this pipeline reproduces the fecim_solve --csv row
// for one job per workload (parity of the job policy) and that seed 1 still
// yields the pinned digests.  NOTES.md explains the workloads and metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/annealer_factory.hpp"
#include "core/bifurcation_annealer.hpp"
#include "core/insitu_annealer.hpp"
#include "core/runner.hpp"
#include "core/shard_runner.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/array_cache.hpp"
#include "problems/generators.hpp"
#include "problems/gset_io.hpp"
#include "problems/instances.hpp"
#include "problems/maxcut.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace fecim;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kSuccessThreshold = 0.9;  // fecim_solve default

// ---------------------------------------------------------------------------
// Job policy, mirrored from tools/fecim_solve.cpp (maxcut family only).
// --selftest pins it against the CLI's --csv row.
// ---------------------------------------------------------------------------

/// One job as a fecim_solve user submits it:
///   fecim_solve --file PATH --seed SEED --runs RUNS [--algorithm sb-ballistic]
///               [--tile-rows R] [--workers W]
struct JobSpec {
  std::string path;
  std::uint64_t seed = 1;
  std::size_t runs = 10;
  bool sb = false;  ///< --algorithm sb-ballistic (else insitu this-work)
  std::size_t tile_rows = 0;
  std::size_t workers = 0;  ///< 0 = in-process pool
};

std::size_t auto_iterations(std::size_t num_spins) {
  if (num_spins <= 800) return 700;
  if (num_spins <= 1000) return 1000;
  if (num_spins <= 2000) return 10000;
  return 100000;
}

constexpr std::size_t kAutoSbSteps = 200;
constexpr std::size_t kReferenceRestarts = 48;

core::StandardSetup job_setup(const core::ProblemInstance& problem,
                              const JobSpec& job,
                              std::shared_ptr<crossbar::ArrayCache> cache) {
  core::StandardSetup setup;
  setup.iterations =
      job.sb ? kAutoSbSteps : auto_iterations(problem.model->num_spins());
  setup.flips_per_iteration = 2;
  setup.acceptance_gain = 16.0;  // unconstrained family
  setup.bits = 8;
  setup.tiles = crossbar::TileShape{job.tile_rows, 0};
  setup.array_cache = std::move(cache);
  return setup;
}

core::AnnealerKind job_kind(const JobSpec& job) {
  return job.sb ? core::AnnealerKind::kSbBallistic
                : core::AnnealerKind::kThisWork;
}

core::CampaignConfig job_campaign(const JobSpec& job) {
  core::CampaignConfig campaign;
  campaign.runs = job.runs;
  campaign.base_seed = job.seed;
  campaign.success_threshold = kSuccessThreshold;
  campaign.threads = 0;
  std::size_t workers = std::min(job.workers, util::worker_threads());
  if (!core::shard_runner_supported()) workers = 0;
  campaign.workers = workers;
  return campaign;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<JobSpec> jobs;  ///< submission order
  bool shared_cache = false;  ///< serve stream: one ArrayCache per pass
  std::size_t distinct_instances = 0;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64(state);
}

/// Generate the workload's Gset files under `dir` and its job list.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const fs::path& dir) {
  fs::create_directories(dir);
  Workload workload;
  workload.name = name;
  workload.seed = seed;
  auto write = [&](std::size_t nodes, std::uint64_t instance_seed,
                   const std::string& file) {
    const auto path = (dir / file).string();
    problems::write_gset_file(
        problems::gset_like_instance(nodes, instance_seed), path);
    return path;
  };
  if (name == "anneal-large") {
    // Two anneal-bound jobs per pass.  First the paper's largest Max-Cut
    // group at its budget: a G48-class 3000-node torus (certified optimum),
    // in-situ on the thread pool.  Then an n=2048 Gset-like random graph,
    // sb-ballistic on 256-row tiles over fork workers.
    JobSpec paper;
    paper.path = write(3000, seed, "torus-3000.gset");
    paper.seed = seed;
    paper.runs = 96;
    workload.jobs.push_back(paper);
    JobSpec sb;
    sb.path = write(2048, seed, "random-2048.gset");
    sb.seed = seed;
    sb.runs = 8;
    sb.sb = true;
    sb.tile_rows = 256;
    sb.workers = util::worker_threads();
    workload.jobs.push_back(sb);
    workload.distinct_instances = 2;
  } else if (name == "serve-small") {
    // 50 distinct G1-density instances (half n=800, half n=1000), each
    // submitted twice under different --seed values, in a seeded shuffle.
    // Salts: instance i -> i, its submissions -> 1000 + 2i + k, shuffle ->
    // 2000, so no two streams share a seed.
    constexpr std::size_t kInstances = 50;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const std::size_t nodes = i % 2 == 0 ? 800 : 1000;
      char file[64];
      std::snprintf(file, sizeof file, "g%zu-%zu.gset", nodes, i);
      const auto path = write(nodes, mix_seed(seed, i), file);
      for (std::uint64_t k = 0; k < 2; ++k) {
        JobSpec job;
        job.path = path;
        job.seed = mix_seed(seed, 1000 + 2 * i + k) & 0xffffffffULL;
        job.runs = 8;
        workload.jobs.push_back(job);
      }
    }
    util::Rng rng(mix_seed(seed, 2000));
    for (std::size_t i = workload.jobs.size(); i > 1; --i)
      std::swap(workload.jobs[i - 1], workload.jobs[rng.uniform_index(i)]);
    workload.shared_cache = true;
    workload.distinct_instances = kInstances;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

/// Result digests of seed 1, pinned when the benchmark was written; checked
/// whenever a run uses seed 1 (and by --selftest).
struct PinnedDigest {
  const char* workload;
  std::uint64_t digest;
};
constexpr PinnedDigest kPinnedSeed1[] = {
    {"anneal-large", 0x645961d9eedc93abULL},
    {"serve-small", 0x0a56a4ef83921757ULL},
};

// ---------------------------------------------------------------------------
// Independent output checks.
// ---------------------------------------------------------------------------

struct Edge {
  std::uint32_t u, v;
  double w;
};

/// Minimal Gset reader, independent of problems::read_gset: header
/// "<n> <m>", then m lines "<u> <v> <w>" (1-indexed), as write_gset_file
/// writes them.
std::vector<Edge> read_edges(const std::string& path, std::size_t& nodes) {
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const char* p = text.c_str();
  char* end = nullptr;
  auto number = [&] {
    const double value = std::strtod(p, &end);
    if (end == p) throw std::runtime_error("verify: malformed " + path);
    p = end;
    return value;
  };
  nodes = static_cast<std::size_t>(number());
  const auto edges = static_cast<std::size_t>(number());
  std::vector<Edge> out(edges);
  for (auto& e : out) {
    e.u = static_cast<std::uint32_t>(number() - 1);
    e.v = static_cast<std::uint32_t>(number() - 1);
    e.w = number();
    if (e.u >= nodes || e.v >= nodes)
      throw std::runtime_error("verify: vertex out of range in " + path);
  }
  return out;
}

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(a));
}

/// FNV-1a over each run's (seed, status, best energy, objective).
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      value ^= bytes[i];
      value *= 0x100000001b3ULL;
    }
  }
  void add_run(const core::RunRecord& record) {
    const auto status = static_cast<std::uint8_t>(record.status);
    add(&record.seed, sizeof record.seed);
    add(&status, sizeof status);
    add(&record.best_energy, sizeof record.best_energy);
    add(&record.solution.objective, sizeof record.solution.objective);
  }
};

// ---------------------------------------------------------------------------
// Pass execution.
// ---------------------------------------------------------------------------

/// Return freed heap to the kernel and restart its peak-RSS (VmHWM)
/// watermark, so each pass reports its own peak rather than what earlier
/// passes left behind; without /proc support the process-lifetime peak is
/// used.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMiB;  // kB
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB
}

/// Per-layer sums of one traced pass (every value summed over its jobs).
struct LayerSums {
  double ingest_s = 0, ingest_bytes = 0, build_s = 0, annealer_build_s = 0;
  double campaign_s = 0, reduce_s = 0, busy_s = 0, capacity_s = 0;
  double reference_s = 0, quantize_s = 0, program_s = 0, ir_drop_s = 0;
  std::vector<double> run_s;
  std::size_t private_arrays = 0;  ///< arrays programmed outside any cache
  double private_array_bytes = 0;  ///< largest privately programmed array
};

struct PassStats {
  double wall_s = 0;   ///< summed job latencies (closed loop, one client)
  double setup_s = 0;  ///< summed time before each job's first run
  std::vector<double> job_s;        ///< per job, submission order
  std::vector<double> job_setup_s;  ///< per job, submission order
  std::size_t attempted = 0, failed = 0, completed = 0, successes = 0;
  util::RunningStats normalized, energy, time;
  crossbar::CostLedger ledger;
  crossbar::ArrayCacheStats cache;
  std::uint64_t digest = 0;
  double peak_rss_mib = 0;  ///< this pass's resident-set peak
  LayerSums layers;  ///< traced passes only
};

struct Checks {
  std::vector<std::string> errors;
  void fail(std::string message) {
    if (errors.size() < 20) std::fprintf(stderr, "jobbench: CHECK FAILED: %s\n",
                                         message.c_str());
    errors.push_back(std::move(message));
  }
};

/// run_campaign's in-process path rebuilt from its public building blocks,
/// with a span around every run.  Benchmark threads claim runs in index
/// order; the result is bit-identical to run_campaign by construction.
core::CampaignResult traced_campaign(const core::Annealer& annealer,
                                     const core::ProblemInstance& problem,
                                     const core::CampaignConfig& config,
                                     LayerSums& layers) {
  const auto start = Clock::now();
  core::validate_campaign(problem, config);
  const auto seeds = core::derive_run_seeds(config.base_seed, config.runs);
  std::vector<core::RunOutcome> outcomes(config.runs);
  std::vector<double> run_s(config.runs, 0.0);
  const std::size_t threads =
      config.workers > 0 ? std::min(config.workers, config.runs)
                         : util::resolved_parallel_threads(config.runs,
                                                           config.threads);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  auto worker = [&] {
    try {
      for (std::size_t run; (run = next.fetch_add(1)) < config.runs;) {
        const auto run_start = Clock::now();
        outcomes[run] = core::execute_campaign_run(annealer, problem, config,
                                                   run, seeds[run],
                                                   std::nullopt);
        run_s[run] = seconds_since(run_start);
      }
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
  const auto reduce_start = Clock::now();
  auto result = core::reduce_campaign(problem, config, std::move(outcomes));
  layers.reduce_s += seconds_since(reduce_start);
  const double campaign_s = seconds_since(start);
  layers.campaign_s += campaign_s;
  layers.capacity_s += static_cast<double>(threads) * campaign_s;
  for (const double s : run_s) {
    layers.busy_s += s;
    layers.run_s.push_back(s);
  }
  return result;
}

/// The programmed array behind a crossbar-driving annealer.
std::shared_ptr<const crossbar::ProgrammedArray> annealer_array(
    const core::Annealer& annealer) {
  if (const auto* insitu =
          dynamic_cast<const core::InSituCimAnnealer*>(&annealer))
    return insitu->array();
  if (const auto* sb =
          dynamic_cast<const core::BifurcationAnnealer*>(&annealer))
    return sb->array();
  return nullptr;
}

/// Layers the annealer constructor runs internally, re-run on the job's own
/// inputs after the job (outside its span).
void probe_layers(const JobSpec& job, const core::ProblemInstance& problem,
                  const core::StandardSetup& setup,
                  const crossbar::ProgrammedArray& array, LayerSums& layers) {
  {
    auto graph = problems::read_gset_file(job.path);
    const auto start = Clock::now();
    const double reference =
        problems::reference_cut(graph, kReferenceRestarts, job.seed);
    layers.reference_s += seconds_since(start);
    if (reference != problem.reference_objective)
      throw std::runtime_error("reference probe disagrees with the job");
  }
  auto start = Clock::now();
  const crossbar::QuantizedCouplings quantized(problem.model->couplings(),
                                               setup.bits);
  layers.quantize_s += seconds_since(start);
  start = Clock::now();
  const auto programmed = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, array.mapping(), array.device_params(),
      array.variation_params(), 0x5eed, array.tile_shape());
  layers.program_s += seconds_since(start);
  start = Clock::now();
  const crossbar::AnalogCrossbarEngine engine(programmed,
                                              crossbar::AnalogEngineConfig{});
  layers.ir_drop_s += seconds_since(start);
}

/// Re-check every completed run of one job independently of the engine.
void verify_job(const JobSpec& job, const core::ProblemInstance& problem,
                const core::CampaignResult& result, Checks& checks) {
  std::size_t nodes = 0;
  const auto edges = read_edges(job.path, nodes);
  double total_weight = 0.0;
  for (const auto& e : edges) total_weight += e.w;
  for (std::size_t r = 0; r < result.per_run.size(); ++r) {
    const auto& record = result.per_run[r];
    if (record.status != core::RunStatus::kOk) continue;
    const auto& spins = record.best_spins;
    const std::string where = job.path + " run " + std::to_string(r);
    if (spins.size() != nodes) {
      checks.fail(where + ": best_spins has wrong length");
      continue;
    }
    const double energy = problem.model->energy(spins);
    double cut = 0.0;
    for (const auto& e : edges)
      if (spins[e.u] != spins[e.v]) cut += e.w;
    if (!close(energy, record.best_energy))
      checks.fail(where + ": best_energy " +
                  std::to_string(record.best_energy) + " != recomputed " +
                  std::to_string(energy));
    if (!close(cut, record.solution.objective))
      checks.fail(where + ": objective " +
                  std::to_string(record.solution.objective) +
                  " != recomputed cut " + std::to_string(cut));
    if (!close(cut, (total_weight - energy) / 2.0))
      checks.fail(where + ": cut != (W - E) / 2");
  }
}

void tally(const core::ProblemInstance& problem,
           const core::CampaignResult& result, PassStats& pass,
           Digest& digest) {
  pass.attempted += result.runs;
  for (const auto& record : result.per_run) {
    digest.add_run(record);
    if (record.status != core::RunStatus::kOk) {
      ++pass.failed;
      continue;
    }
    ++pass.completed;
    if (problem.success(record.solution, kSuccessThreshold)) ++pass.successes;
    if (record.solution.feasible && problem.reference_objective != 0.0)
      pass.normalized.add(problem.normalized(record.solution.objective));
  }
  pass.energy.merge(result.energy);
  pass.time.merge(result.time);
  pass.ledger.merge(result.total_ledger);
}

/// What a finished job hands to the untimed checks and probes.
struct FinishedJob {
  core::ProblemInstance problem;
  core::StandardSetup setup;
  std::unique_ptr<core::Annealer> annealer;
  core::CampaignResult result;
};

/// One pass over the workload's job stream.  Untraced jobs run exactly the
/// CLI's calls; the clock covers hand-off to result of each job only.
PassStats run_pass(const Workload& workload, bool traced, Checks& checks) {
  reset_peak_rss();
  PassStats pass;
  Digest digest;
  const auto cache = workload.shared_cache
                         ? std::make_shared<crossbar::ArrayCache>()
                         : nullptr;
  auto& layers = pass.layers;
  for (const auto& job : workload.jobs) {
    std::optional<FinishedJob> done;
    const auto start = Clock::now();
    double setup_s = 0.0;
    try {
      auto span = Clock::now();
      auto graph = problems::read_gset_file(job.path);
      if (traced) {
        layers.ingest_s += seconds_since(span);
        layers.ingest_bytes += static_cast<double>(fs::file_size(job.path));
        span = Clock::now();
      }
      auto problem = problems::make_maxcut_problem(
          job.path, std::move(graph), kReferenceRestarts, job.seed);
      if (traced) {
        layers.build_s += seconds_since(span);
        span = Clock::now();
      }
      auto setup = job_setup(problem, job, cache);
      auto annealer = core::make_annealer(job_kind(job), problem.model, setup);
      setup_s = seconds_since(start);
      if (traced) layers.annealer_build_s += seconds_since(span);
      const auto campaign = job_campaign(job);
      auto result = traced
                        ? traced_campaign(*annealer, problem, campaign, layers)
                        : core::run_campaign(*annealer, problem, campaign);
      done = FinishedJob{std::move(problem), std::move(setup),
                         std::move(annealer), std::move(result)};
    } catch (const std::exception& error) {
      // A thrown job fails all of its runs; the stream keeps going, as the
      // serve loop does.
      std::fprintf(stderr, "jobbench: job %s failed: %s\n", job.path.c_str(),
                   error.what());
      pass.attempted += job.runs;
      pass.failed += job.runs;
      const std::uint8_t thrown = 0xff;
      digest.add(&thrown, 1);
    }
    const double job_s = seconds_since(start);
    if (!done) setup_s = job_s;
    pass.setup_s += setup_s;
    pass.wall_s += job_s;
    pass.job_s.push_back(job_s);
    pass.job_setup_s.push_back(setup_s);
    if (!done) continue;

    // Untimed: independent checks, then (traced) the layer probes.
    tally(done->problem, done->result, pass, digest);
    try {
      verify_job(job, done->problem, done->result, checks);
      if (traced) {
        const auto array = annealer_array(*done->annealer);
        if (!array) throw std::runtime_error("annealer has no array");
        if (!cache) {
          ++layers.private_arrays;
          layers.private_array_bytes =
              std::max(layers.private_array_bytes,
                       static_cast<double>(array->approx_bytes()));
        }
        probe_layers(job, done->problem, done->setup, *array, layers);
      }
    } catch (const std::exception& error) {
      checks.fail(job.path + ": " + error.what());
    }
  }
  pass.digest = digest.value;
  pass.peak_rss_mib = peak_rss_mib();
  if (cache) {
    pass.cache = cache->stats();
    const std::size_t distinct = workload.distinct_instances;
    const std::size_t hits = workload.jobs.size() - distinct;
    if (pass.cache.misses != distinct || pass.cache.hits != hits)
      checks.fail(workload.name + ": array cache saw " +
                  std::to_string(pass.cache.misses) + " misses / " +
                  std::to_string(pass.cache.hits) + " hits, expected " +
                  std::to_string(distinct) + " / " + std::to_string(hits));
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

template <typename F>
double median_of(const std::vector<PassStats>& passes, F&& field) {
  std::vector<double> values;
  for (const auto& pass : passes) values.push_back(field(pass));
  return util::median(std::move(values));
}

/// Each job's median over passes, in submission order; robust to transient
/// host interference.  Their sum is a pass's total.
std::vector<double> job_medians(const std::vector<PassStats>& passes,
                                std::vector<double> PassStats::*field) {
  std::vector<double> medians;
  for (std::size_t j = 0; j < (passes.front().*field).size(); ++j)
    medians.push_back(
        median_of(passes, [&](auto& p) { return (p.*field)[j]; }));
  return medians;
}

double sum_of_job_medians(const std::vector<PassStats>& passes,
                          std::vector<double> PassStats::*field) {
  const auto medians = job_medians(passes, field);
  return std::accumulate(medians.begin(), medians.end(), 0.0);
}

std::vector<Metric> end_to_end_metrics(const std::vector<PassStats>& passes) {
  const auto jobs = job_medians(passes, &PassStats::job_s);
  util::RunningStats normalized, energy, time;
  std::size_t attempted = 0, failed = 0, completed = 0, successes = 0;
  for (const auto& pass : passes) {
    normalized.merge(pass.normalized);
    energy.merge(pass.energy);
    time.merge(pass.time);
    attempted += pass.attempted;
    failed += pass.failed;
    completed += pass.completed;
    successes += pass.successes;
  }
  const double wall_s = std::accumulate(jobs.begin(), jobs.end(), 0.0);
  const double completed_d =
      static_cast<double>(std::max<std::size_t>(completed, 1));
  return {
      {"wall_s", wall_s, "s"},
      {"setup_s", sum_of_job_medians(passes, &PassStats::job_setup_s), "s"},
      {"job_p50_s", util::percentile(jobs, 50.0), "s"},
      {"job_p90_s", util::percentile(jobs, 90.0), "s"},
      {"jobs_per_s", static_cast<double>(jobs.size()) / wall_s, "1/s"},
      {"conversions_per_s",
       static_cast<double>(passes.front().ledger.adc_conversions) / wall_s,
       "1/s"},
      {"peak_rss_mib",
       median_of(passes, [](auto& p) { return p.peak_rss_mib; }), "MiB"},
      {"completed_frac",
       static_cast<double>(attempted - failed) /
           static_cast<double>(std::max<std::size_t>(attempted, 1)),
       "ratio"},
      {"success_rate", static_cast<double>(successes) / completed_d, "ratio"},
      {"normalized_mean", normalized.mean(), "ratio"},
      {"model_energy_j", energy.mean(), "J"},
      {"model_time_sim", time.mean(), "sim_s"},
      // Informational (not in BENCHMARK.json): sample counts and failures.
      {"jobs", static_cast<double>(jobs.size()), "count"},
      {"passes", static_cast<double>(passes.size()), "count"},
      {"failed_frac",
       static_cast<double>(failed) /
           static_cast<double>(std::max<std::size_t>(attempted, 1)),
       "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<PassStats>& traced,
                                      const std::vector<PassStats>& untraced,
                                      const Workload& workload) {
  auto med = [&](auto&& field) { return median_of(traced, field); };
  std::vector<double> runs;
  for (const auto& pass : traced)
    runs.insert(runs.end(), pass.layers.run_s.begin(),
                pass.layers.run_s.end());
  const auto& first = traced.front();
  const auto& ledger = first.ledger;
  const double hits = static_cast<double>(first.cache.hits);
  const double misses = workload.shared_cache
                            ? static_cast<double>(first.cache.misses)
                            : static_cast<double>(first.layers.private_arrays);
  const double resident_bytes =
      workload.shared_cache ? static_cast<double>(first.cache.bytes)
                            : first.layers.private_array_bytes;
  const double traced_wall = sum_of_job_medians(traced, &PassStats::job_s);
  const double untraced_wall =
      sum_of_job_medians(untraced, &PassStats::job_s);
  return {
      {"problems.ingest_s", med([](auto& p) { return p.layers.ingest_s; }),
       "s"},
      {"problems.ingest_mb_per_s",
       med([](auto& p) {
         return p.layers.ingest_bytes / 1e6 / p.layers.ingest_s;
       }),
       "MB/s"},
      {"problems.build_s", med([](auto& p) { return p.layers.build_s; }), "s"},
      {"problems.reference_s",
       med([](auto& p) { return p.layers.reference_s; }), "s"},
      {"crossbar.quantize_s", med([](auto& p) { return p.layers.quantize_s; }),
       "s"},
      {"crossbar.program_s", med([](auto& p) { return p.layers.program_s; }),
       "s"},
      {"crossbar.cache_hits", hits, "count"},
      {"crossbar.cache_misses", misses, "count"},
      {"crossbar.cache_hit_ratio", hits / std::max(hits + misses, 1.0),
       "ratio"},
      {"crossbar.cache_resident_mib", resident_bytes / kMiB, "MiB"},
      {"circuit.ir_drop_s", med([](auto& p) { return p.layers.ir_drop_s; }),
       "s"},
      {"core.annealer_build_s",
       med([](auto& p) { return p.layers.annealer_build_s; }), "s"},
      {"core.campaign_s", med([](auto& p) { return p.layers.campaign_s; }),
       "s"},
      {"core.run_s.p50", util::percentile(runs, 50.0), "s"},
      {"core.run_s.p90", util::percentile(runs, 90.0), "s"},
      {"core.run_s.max", util::percentile(runs, 100.0), "s"},
      {"core.iterations_per_s",
       med([](auto& p) {
         return static_cast<double>(p.ledger.iterations) / p.layers.campaign_s;
       }),
       "1/s"},
      {"core.spin_updates_per_iteration",
       static_cast<double>(ledger.spin_updates) /
           static_cast<double>(std::max<std::uint64_t>(ledger.iterations, 1)),
       "ratio"},
      {"crossbar.ns_per_conversion",
       med([](auto& p) {
         return p.layers.busy_s * 1e9 /
                static_cast<double>(
                    std::max<std::uint64_t>(p.ledger.adc_conversions, 1));
       }),
       "ns"},
      {"util.pool_efficiency",
       med([](auto& p) { return p.layers.busy_s / p.layers.capacity_s; }),
       "ratio"},
      {"core.reduce_s", med([](auto& p) { return p.layers.reduce_s; }), "s"},
      {"crossbar.adc_conversions",
       static_cast<double>(ledger.adc_conversions), "count"},
      {"crossbar.tile_activations",
       static_cast<double>(ledger.tile_activations), "count"},
      {"crossbar.partial_sum_updates",
       static_cast<double>(ledger.partial_sum_updates), "count"},
      {"trace.overhead_frac", traced_wall / untraced_wall - 1.0, "ratio"},
      {"trace.setup_frac",
       med([](auto& p) { return p.setup_s / p.wall_s; }), "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Fingerprint and output.
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool contracts_on() {
#ifdef FECIM_DISABLE_CONTRACTS
  return false;
#else
  return true;
#endif
}

void print_fingerprint(const std::string& workload, std::uint64_t seed,
                       const std::optional<std::uint64_t>& heldout,
                       bool trace, double seconds) {
  std::printf(
      "fingerprint {\"cpu\": \"%s\", \"nproc\": %u, \"worker_threads\": %zu, "
      "\"compiler\": \"%s\", \"march_native\": %s, \"contracts\": %s, "
      "\"workload\": \"%s\", \"seed\": %llu, \"heldout_seed\": %s, "
      "\"trace\": %d, \"seconds\": %g}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      util::worker_threads(), json_escape(compiler()).c_str(),
      JOBBENCH_NATIVE_ARCH ? "true" : "false",
      contracts_on() ? "true" : "false", workload.c_str(),
      static_cast<unsigned long long>(seed),
      heldout ? std::to_string(*heldout).c_str() : "null", trace ? 1 : 0,
      seconds);
}

void print_metrics(const std::string& prefix,
                   const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("%s%-34s %.9g %s\n", prefix.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
}

/// The contract's result line: every metric named in `keep`.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<std::string>& keep) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& name : keep)
    for (const auto& m : metrics) {
      if (m.name != name) continue;
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      out += std::string(first ? "" : ", ") + "\"" + m.name +
             "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

const std::vector<std::string> kEndToEnd = {
    "wall_s",        "setup_s",          "job_p50_s",       "job_p90_s",
    "jobs_per_s",    "conversions_per_s", "peak_rss_mib",   "completed_frac",
    "success_rate",  "normalized_mean",  "model_energy_j", "model_time_sim"};

const std::vector<std::string> kPerLayer = {
    "problems.ingest_s",       "problems.ingest_mb_per_s",
    "problems.build_s",        "problems.reference_s",
    "crossbar.quantize_s",     "crossbar.program_s",
    "crossbar.cache_hits",     "crossbar.cache_misses",
    "crossbar.cache_hit_ratio", "crossbar.cache_resident_mib",
    "circuit.ir_drop_s",       "core.annealer_build_s",
    "core.campaign_s",         "core.run_s.p50",
    "core.run_s.p90",          "core.run_s.max",
    "core.iterations_per_s",   "core.spin_updates_per_iteration",
    "crossbar.ns_per_conversion", "util.pool_efficiency",
    "core.reduce_s",           "crossbar.adc_conversions",
    "crossbar.tile_activations", "crossbar.partial_sum_updates",
    "trace.overhead_frac",     "trace.setup_frac"};

// ---------------------------------------------------------------------------
// Measurement loop.
// ---------------------------------------------------------------------------

struct Measurement {
  Workload workload;
  std::vector<PassStats> untraced, traced;
};

/// Every pass of one workload must produce the same digest (traced or not),
/// and seed 1 must reproduce the pinned digest.
void check_digests(const Measurement& m, Checks& checks) {
  std::vector<std::uint64_t> digests;
  for (const auto& pass : m.untraced) digests.push_back(pass.digest);
  for (const auto& pass : m.traced) digests.push_back(pass.digest);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(digests.front()));
  std::printf("%s seed %llu result digest %s\n", m.workload.name.c_str(),
              static_cast<unsigned long long>(m.workload.seed), hex);
  for (std::size_t i = 1; i < digests.size(); ++i)
    if (digests[i] != digests.front())
      checks.fail(m.workload.name + ": pass " + std::to_string(i) +
                  (i >= m.untraced.size() ? " (traced)" : "") +
                  " digest differs from pass 0");
  if (m.workload.seed != 1) return;
  for (const auto& pinned : kPinnedSeed1)
    if (m.workload.name == pinned.workload &&
        pinned.digest != digests.front())
      checks.fail(m.workload.name + ": seed 1 digest " + hex +
                  " differs from the pinned digest");
}

int run_benchmark(const std::string& name, std::uint64_t seed,
                  const std::optional<std::uint64_t>& heldout, double seconds,
                  bool trace, const fs::path& work_dir) {
  print_fingerprint(name, seed, heldout, trace, seconds);
  std::fflush(stdout);
  std::vector<Measurement> measurements;
  measurements.push_back(
      {make_workload(name, seed, work_dir / "primary"), {}, {}});
  if (heldout)
    measurements.push_back(
        {make_workload(name, *heldout, work_dir / "heldout"), {}, {}});

  // Passes alternate (untraced, traced; primary, held-out) so slow drift of
  // the host affects every series alike.  A round starts only if one more
  // round like the last still ends within --seconds.
  Checks checks;
  const auto start = Clock::now();
  double round_s = 0.0;
  do {
    const auto round_start = Clock::now();
    for (auto& m : measurements) {
      m.untraced.push_back(run_pass(m.workload, false, checks));
      if (trace) m.traced.push_back(run_pass(m.workload, true, checks));
    }
    round_s = seconds_since(round_start);
  } while (seconds_since(start) + round_s <= seconds);

  std::size_t attempted = 0, failed = 0;
  std::vector<Metric> primary;
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const auto& m = measurements[i];
    check_digests(m, checks);
    for (const auto* series : {&m.untraced, &m.traced})
      for (std::size_t k = 0; k < series->size(); ++k)
        std::printf("%spass %zu %s wall_s %.6f setup_s %.6f "
                    "peak_rss_mib %.2f\n",
                    i == 0 ? "" : "heldout.", k,
                    series == &m.untraced ? "untraced" : "traced",
                    (*series)[k].wall_s, (*series)[k].setup_s,
                    (*series)[k].peak_rss_mib);
    auto metrics = end_to_end_metrics(m.untraced);
    if (trace) {
      const auto layers = per_layer_metrics(m.traced, m.untraced, m.workload);
      metrics.insert(metrics.end(), layers.begin(), layers.end());
    }
    print_metrics(i == 0 ? "" : "heldout.", metrics);
    if (i == 0) {
      primary = metrics;
      for (const auto* series : {&m.untraced, &m.traced})
        for (const auto& pass : *series) {
          attempted += pass.attempted;
          failed += pass.failed;
        }
    }
  }
  const bool correct = checks.errors.empty();
  print_result(correct, attempted, failed, primary,
               trace ? kPerLayer : kEndToEnd);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test: parity with the fecim_solve CLI, and the pinned digests.
// ---------------------------------------------------------------------------

std::string run_command(const std::string& command) {
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  if (!pipe) throw std::runtime_error("cannot run " + command);
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe)) out += buffer;
  if (pclose(pipe) != 0) throw std::runtime_error("command failed: " + command);
  return out;
}

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> fields;
  std::stringstream stream(text);
  for (std::string field; std::getline(stream, field, separator);)
    fields.push_back(field);
  return fields;
}

/// The CLI's CSV columns this pipeline must reproduce, formatted as
/// tools/fecim_solve.cpp's print_csv_row formats them.
std::vector<std::string> csv_columns(const core::ProblemInstance& problem,
                                     const core::StandardSetup& setup,
                                     const core::CampaignResult& result) {
  auto fmt = [](const char* format, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, format, value);
    return std::string(buffer);
  };
  const double mean = result.objective.empty()
                          ? std::nan("")
                          : result.objective.mean();
  return {std::to_string(result.runs),
          std::to_string(setup.iterations),
          fmt("%.6g", result.best_objective(problem.sense)),
          fmt("%.6g", mean),
          fmt("%.6g", problem.reference_objective),
          fmt("%.3f", result.completed_rate),
          fmt("%.3f", result.success_rate),
          fmt("%.6g", result.energy.mean()),
          fmt("%.6g", result.time.mean())};
}

std::vector<std::string> cli_columns(const std::string& row) {
  const auto f = split(row, ',');
  if (f.size() < 16) throw std::runtime_error("short CSV row: " + row);
  // runs, iterations, best, mean, reference, completed, success, J, s
  return {f[4], f[5], f[7], f[8], f[9], f[10], f[12], f[13], f[14]};
}

std::string job_flags(const JobSpec& job) {
  std::string flags = " --seed " + std::to_string(job.seed) + " --runs " +
                      std::to_string(job.runs);
  if (job.sb) flags += " --algorithm sb-ballistic";
  if (job.tile_rows) flags += " --tile-rows " + std::to_string(job.tile_rows);
  if (job.workers) flags += " --workers " + std::to_string(job.workers);
  return flags;
}

int run_selftest(const fs::path& work_dir) {
  Checks checks;
  for (const std::string name : {"anneal-large", "serve-small"}) {
    auto workload = make_workload(name, 1, work_dir / name);
    // Every job, or for the serve stream the first two submissions of one
    // instance (a cache miss, then a hit) through one shared cache.
    std::vector<JobSpec> jobs = workload.jobs;
    if (workload.shared_cache) {
      jobs = {workload.jobs.front()};
      for (const auto& job : workload.jobs)
        if (job.path == jobs.front().path && job.seed != jobs.front().seed)
          jobs.push_back(job);
    }
    const auto cache = workload.shared_cache
                           ? std::make_shared<crossbar::ArrayCache>()
                           : nullptr;
    std::vector<std::vector<std::string>> mine;
    for (const auto& job : jobs) {
      const auto problem = problems::make_maxcut_problem(
          job.path, problems::read_gset_file(job.path), kReferenceRestarts,
          job.seed);
      const auto setup = job_setup(problem, job, cache);
      const auto annealer =
          core::make_annealer(job_kind(job), problem.model, setup);
      const auto result =
          core::run_campaign(*annealer, problem, job_campaign(job));
      mine.push_back(csv_columns(problem, setup, result));
    }
    std::string output;
    const std::string solve = JOBBENCH_FECIM_SOLVE;
    if (workload.shared_cache) {
      const auto jobs_file = (work_dir / name / "jobs.txt").string();
      std::ofstream out(jobs_file);
      for (const auto& job : jobs)
        out << "maxcut " << job.path << job_flags(job) << "\n";
      out.close();
      const auto log_file = (work_dir / name / "serve.log").string();
      output = run_command(solve + " --serve " + jobs_file + " 2>" + log_file);
      // The serve loop's final stderr line reports its array cache.
      std::ifstream log(log_file);
      std::string last, line;
      while (std::getline(log, line)) last = line;
      const auto stats = cache->stats();
      const std::string expected =
          "array cache: " + std::to_string(stats.misses) + " built, " +
          std::to_string(stats.hits) + " hits";
      if (last.find(expected) == std::string::npos)
        checks.fail(name + ": fecim_solve reported '" + last +
                    "', expected '" + expected + "'");
    } else {
      // One CLI process per job: its header, then its row.
      for (const auto& job : jobs) {
        const auto lines = split(run_command(solve + " --csv --file " +
                                             job.path + job_flags(job)),
                                 '\n');
        if (lines.size() < 2)
          throw std::runtime_error("fecim_solve printed no CSV row");
        if (output.empty()) output = lines[0] + "\n";
        output += lines[1] + "\n";
      }
    }
    const auto lines = split(output, '\n');
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const auto cli = j + 1 < lines.size()
                           ? cli_columns(lines[j + 1])
                           : std::vector<std::string>{};
      if (cli != mine[j]) {
        std::string a, b;
        for (const auto& s : mine[j]) a += s + " ";
        for (const auto& s : cli) b += s + " ";
        checks.fail(name + " job " + std::to_string(j) +
                    ": pipeline [" + a + "] != fecim_solve [" + b + "]");
      } else {
        std::printf("parity %-17s job %zu ok\n", name.c_str(), j);
      }
    }

    Measurement m{workload, {run_pass(workload, false, checks)}, {}};
    check_digests(m, checks);
  }
  std::printf("selftest %s\n", checks.errors.empty() ? "PASSED" : "FAILED");
  return checks.errors.empty() ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: jobbench --workload anneal-large|serve-small --seed N "
               "--seconds S --trace 0|1\n"
               "                [--heldout-seed M] [--work-dir DIR]\n"
               "       jobbench --selftest [--work-dir DIR]\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  errno = 0;
  const auto value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || *text == '-') usage();
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::optional<std::uint64_t> heldout;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  fs::path work_dir = fs::path(".bench_build") / "jobbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") workload = next();
    else if (arg == "--seed") seed = parse_u64(next());
    else if (arg == "--heldout-seed") heldout = parse_u64(next());
    else if (arg == "--seconds")
      seconds = static_cast<double>(parse_u64(next()));
    else if (arg == "--trace") trace = parse_u64(next()) != 0;
    else if (arg == "--work-dir") work_dir = next();
    else if (arg == "--selftest") selftest = true;
    else usage();
  }
  // A private directory per process; removed on the way out.
  work_dir /= std::to_string(::getpid());
  int status = 1;
  try {
    if (selftest) {
      status = run_selftest(work_dir);
    } else {
      if (workload.empty()) usage();
      status = run_benchmark(workload, seed, heldout, seconds, trace,
                             work_dir);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "jobbench: %s\n", error.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(work_dir, ignored);
  return status;
}
