// Hot-path throughput benchmark: optimized simulation kernels vs the seed
// algorithms preserved in crossbar/reference_kernels.hpp.
//
//   1. Analog engine evaluations/sec at N in {256, 1024, 4096}, in two
//      regimes: "analog" (deterministic device: ideal cells, noiseless ADC)
//      isolates the restructured arithmetic -- bit-plane column cache,
//      segment-class dedup, flip bitmask, V_BG memoization -- while
//      "analog-noisy" (Vth spread + read noise + ADC noise) tracks the
//      stochastic path: counter-keyed ziggurat streams (batched per column)
//      vs the reference kernel computing the identical keyed draws
//      scalar-wise.  "analog-noisy-tiled" (schema v5) runs the same noisy
//      regime over a 4-tile row grid (n/4-row tiles), timing the per-tile
//      conversion walk with digital partial-sum accumulation against the
//      tile-aware reference.
//   2. Normal-sampler throughput: the counter-keyed ziggurat
//      (NoiseStream::normal_fill) vs the sequential Box-Muller in
//      Rng::normal() it replaced on the noisy hot path.
//   3. In-situ annealer iterations/sec on the ideal engine (local-field
//      cache + zero-allocation loop vs seed loop with per-call n-byte
//      bitmap zero-fills and per-iteration allocations).
//   4. Campaign wall-clock at N in {256, 1024}: one table of rows
//      (campaign_specs), each timing a reference and an optimized campaign
//      on the same workload and requiring the two to agree run by run.
//      "analog" pits run_campaign (persistent pool, zero-allocation inner
//      loops, mutex-free reduction) against a faithful legacy campaign
//      (reference kernels, per-iteration allocations, thread spawn per
//      call, merge mutex); "analog-lifecycle" arms a never-tripping run
//      deadline against the token-free path, pinning the amortized
//      cancellation poll's overhead at ~1.0x (PERF.md invariant);
//      "analog-batch-cached" replays one short campaign through a shared
//      array cache vs per-construction programming.  Every row times code
//      against code on one topology: bit-identity across thread and worker
//      counts is pinned by tests (test_campaign, test_bifurcation,
//      test_shard_runner), and the wall time of the pool and of fork
//      workers by jobbench.  The n=256 rows run in every mode so check.sh
//      smoke passes always have baseline rows to gate on.
//
// Emits machine-readable JSON (default BENCH_hotpath.json; FECIM_BENCH_OUT
// overrides) so the perf trajectory is tracked across PRs.
// FECIM_BENCH_SMOKE=1 runs a seconds-scale subset; it skips the default
// JSON rewrite but honors an explicit FECIM_BENCH_OUT, which is how
// tools/check.sh captures smoke numbers for its regression gate.
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/acceptance.hpp"
#include "core/insitu_annealer.hpp"
#include "core/runner.hpp"
#include "core/schedule.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/array_cache.hpp"
#include "crossbar/ideal_engine.hpp"
#include "crossbar/reference_kernels.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/timer.hpp"

namespace {

using namespace fecim;

/// Determinism and sanity checks fail the bench: each mismatch is reported
/// and counted, and main() exits non-zero when any fired.
std::size_t g_mismatches = 0;

void report_mismatch(const std::string& what) {
  std::fprintf(stderr, "bench_hotpath: %s mismatch\n", what.c_str());
  ++g_mismatches;
}

struct EngineRow {
  std::size_t n = 0;
  std::string engine;
  double optimized_per_sec = 0.0;
  double reference_per_sec = 0.0;
  double speedup = 0.0;
};

struct CampaignRow {
  std::size_t n = 0;
  std::string kind;  ///< CampaignSpec::kind
  std::size_t runs = 0;
  std::size_t iterations = 0;
  std::size_t threads = 0;
  double optimized_seconds = 0.0;
  double legacy_seconds = 0.0;
  double speedup = 0.0;
};

ising::IsingModel bench_model(std::size_t n, std::uint64_t seed) {
  // Average degree 24: Gset-like density, so per-cell decoding work is
  // representative of the paper's Max-Cut groups.
  return problems::maxcut_to_ising(problems::random_graph(
      n, 24.0, problems::WeightScheme::kPlusMinusOne, seed));
}

core::InSituConfig analog_config(bool noisy) {
  core::InSituConfig config;  // defaults: 8-bit weights, IR drop modeled
  if (noisy) {
    config.variation.vth_sigma = 0.03;
    config.variation.read_noise_rel = 0.02;
  } else {
    config.analog.adc.noise_lsb_rms = 0.0;  // deterministic readout
  }
  return config;
}

/// Minimum wall time over three repetitions: smoke-scale timed regions are
/// milliseconds long, where single samples scatter by tens of percent on a
/// busy machine; the minimum is the standard noise-robust estimator and
/// keeps the bench_gate rows stable run to run.
template <typename Body>
double best_of_three_seconds(const Body& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int repeat = 0; repeat < 3; ++repeat) {
    util::WallTimer timer;
    body();
    best = std::min(best, timer.seconds());
  }
  return best;
}

// ---------------------------------------------------------------------------
// 1. Analog engine evaluations/sec.
// ---------------------------------------------------------------------------

struct AnalogWorkload {
  core::InSituConfig config;
  std::shared_ptr<const crossbar::ProgrammedArray> array;
  core::BgAnnealingSchedule schedule;
  ising::SpinVector spins;
  std::size_t flips_per_iteration = 2;
};

AnalogWorkload make_analog_workload(const ising::IsingModel& model,
                                    std::size_t iterations, bool noisy,
                                    const crossbar::TileShape& tiles = {}) {
  auto config = analog_config(noisy);
  config.tiles = tiles;
  const crossbar::QuantizedCouplings quantized(model.couplings(),
                                               config.mapping.bits);
  const crossbar::CrossbarMapping mapping(
      model.num_spins(), quantized.has_negative() ? 2 : 1, config.mapping);
  AnalogWorkload workload{
      config,
      std::make_shared<const crossbar::ProgrammedArray>(
          quantized, mapping, config.device, config.variation,
          core::kArraySeed, tiles),
      core::BgAnnealingSchedule([&] {
        auto schedule_config = config.schedule;
        schedule_config.total_iterations = iterations;
        return schedule_config;
      }()),
      {},
      2};
  util::Rng spin_rng(7);
  workload.spins = ising::random_spins(model.num_spins(), spin_rng);
  return workload;
}

template <typename Evaluate>
double measure_analog(const AnalogWorkload& workload, std::size_t iterations,
                      const Evaluate& evaluate) {
  util::Rng rng(42);
  const std::size_t n = workload.spins.size();
  const std::size_t t = workload.flips_per_iteration;

  // Pre-generate the proposal/signal stream so the timed region contains
  // engine evaluations only (both variants get the identical workload).
  std::vector<std::uint32_t> flip_stream(iterations * t);
  std::vector<crossbar::AnnealSignal> signals(iterations);
  {
    ising::FlipSet scratch;
    for (std::size_t it = 0; it < iterations; ++it) {
      ising::random_flip_set_into(scratch, n, t, rng);
      std::copy(scratch.begin(), scratch.end(),
                flip_stream.begin() + static_cast<std::ptrdiff_t>(it * t));
      const auto point = workload.schedule.at(it);
      signals[it] = {point.factor, point.vbg};
    }
  }

  // Best of three timed passes: smoke-scale iteration counts measure
  // milliseconds, where single samples scatter enough to trip the bench
  // gate on a loaded machine.
  ising::FlipSet flips(t);
  double checksum = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (int repeat = 0; repeat < 3; ++repeat) {
    util::WallTimer timer;
    for (std::size_t it = 0; it < iterations; ++it) {
      for (std::size_t k = 0; k < t; ++k) flips[k] = flip_stream[it * t + k];
      checksum += evaluate(flips, signals[it]);
    }
    best = std::min(best, timer.seconds());
  }
  if (checksum == 0.12345) std::printf("(unreachable checksum)\n");
  return static_cast<double>(iterations) / best;
}

EngineRow bench_analog_engine(std::size_t n, std::size_t iterations,
                              bool noisy,
                              const crossbar::TileShape& tiles = {}) {
  const auto model = bench_model(n, 1000 + n);
  auto workload = make_analog_workload(model, iterations, noisy, tiles);

  crossbar::AnalogCrossbarEngine engine(workload.array,
                                        workload.config.analog);
  const double i_on_max =
      workload.array->on_current(workload.array->device_params().vbg_max);

  std::string name = noisy ? "analog-noisy" : "analog";
  if (!tiles.monolithic()) name += "-tiled";
  EngineRow row{n, std::move(name), 0.0, 0.0, 0.0};
  engine.begin_run(42);
  row.optimized_per_sec = measure_analog(
      workload, iterations,
      [&](const ising::FlipSet& flips, const crossbar::AnnealSignal& signal) {
        return engine.evaluate(workload.spins, flips, signal).e_inc;
      });
  auto noise = crossbar::ReadoutNoise::for_run(42);
  row.reference_per_sec = measure_analog(
      workload, iterations,
      [&](const ising::FlipSet& flips, const crossbar::AnnealSignal& signal) {
        return crossbar::reference::analog_evaluate(
                   *workload.array, engine.adc(), engine.ir_attenuation(),
                   engine.band_attenuations(),
                   i_on_max, workload.spins, flips, signal, noise)
            .e_inc;
      });
  row.speedup = row.optimized_per_sec / row.reference_per_sec;
  return row;
}

// ---------------------------------------------------------------------------
// 2. Normal-sampler throughput: counter-keyed ziggurat vs sequential
//    Box-Muller.  The noisy-analog regime consumes one normal per ADC
//    conversion (total input-referred sigma, see crossbar::ReadoutNoise),
//    so per-draw cost directly scales its stochastic overhead.
// ---------------------------------------------------------------------------

struct SamplerRow {
  double ziggurat_per_sec = 0.0;
  double box_muller_per_sec = 0.0;
  double speedup = 0.0;
};

SamplerRow bench_sampler(std::size_t draws) {
  SamplerRow row;
  constexpr std::size_t kBatch = 1024;
  std::vector<double> buffer(kBatch);
  double checksum = 0.0;
  {
    const util::NoiseStream stream(99, util::stream_site::kReadNoise);
    const double elapsed = best_of_three_seconds([&] {
      for (std::size_t base = 0; base < draws; base += kBatch) {
        stream.normal_fill(base, buffer);
        checksum += buffer[0];
      }
    });
    row.ziggurat_per_sec = static_cast<double>(draws) / elapsed;
  }
  {
    const double elapsed = best_of_three_seconds([&] {
      util::Rng rng(99);
      for (std::size_t i = 0; i < draws; ++i) checksum += rng.normal();
    });
    row.box_muller_per_sec = static_cast<double>(draws) / elapsed;
  }
  if (checksum == 0.12345) std::printf("(unreachable checksum)\n");
  row.speedup = row.ziggurat_per_sec / row.box_muller_per_sec;
  return row;
}

// ---------------------------------------------------------------------------
// 3. In-situ annealer iterations/sec on the ideal engine.
// ---------------------------------------------------------------------------

EngineRow bench_ideal_annealer(std::size_t n, std::size_t iterations) {
  const auto model =
      std::make_shared<const ising::IsingModel>(bench_model(n, 2000 + n));
  core::InSituConfig config;
  config.iterations = iterations;
  config.flips_per_iteration = 2;
  config.flip_selection = core::InSituConfig::FlipSelection::kRandom;
  config.engine = core::InSituConfig::EngineKind::kIdeal;
  const core::InSituCimAnnealer annealer(model, config);

  EngineRow row{n, "ideal-annealer", 0.0, 0.0, 0.0};
  {
    const double elapsed = best_of_three_seconds([&] {
      const auto result = annealer.run(99);
      if (result.ledger.iterations != iterations)
        report_mismatch("iteration");
    });
    row.optimized_per_sec = static_cast<double>(iterations) / elapsed;
  }
  {
    // Seed loop: cache-less engine (stateless CSR row walks with an n-byte
    // bitmap zero-fill per call), freshly-allocated flip sets, delta_energy
    // row walk on every accept.  State re-initializes inside the repeat so
    // every timed pass runs the identical workload.
    const double elapsed = best_of_three_seconds([&] {
      util::Rng rng(99);
      crossbar::IdealCrossbarEngine engine(*model, annealer.mapping(),
                                           crossbar::Accounting::kInSitu);
      auto spins = ising::random_spins(model->num_spins(), rng);
      double energy = model->energy(spins);
      double best = energy;
      const core::FractionalAcceptance acceptance;
      for (std::size_t it = 0; it < iterations; ++it) {
        const auto point = annealer.schedule().at(it);
        const auto flips = ising::random_flip_set(model->num_flippable(),
                                                  config.flips_per_iteration,
                                                  rng);
        // The seed engine evaluated through the reference VMV (fresh bitmap
        // allocation + zero-fill per call).
        crossbar::EincResult evaluation;
        evaluation.raw_vmv =
            crossbar::reference::incremental_vmv(*model, spins, flips);
        evaluation.e_inc = evaluation.raw_vmv * point.factor;
        if (acceptance.accept(config.acceptance_gain * evaluation.e_inc,
                              rng)) {
          energy += model->delta_energy(spins, flips);
          ising::flip_in_place(spins, flips);
          if (energy < best) best = energy;
        }
      }
      if (best > energy) std::printf("(unreachable)\n");
    });
    row.reference_per_sec = static_cast<double>(iterations) / elapsed;
  }
  row.speedup = row.optimized_per_sec / row.reference_per_sec;
  return row;
}

// ---------------------------------------------------------------------------
// 5. Campaign wall-clock: optimized runner vs faithful legacy campaign.
// ---------------------------------------------------------------------------

/// The seed fork-join helper: spawn `threads` std::threads per call, shared
/// atomic claim counter (no pool, no early-stop).
void legacy_parallel_for(std::size_t count,
                         const std::function<void(std::size_t)>& body,
                         std::size_t threads) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      body(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
}

/// The seed in-situ analog run loop: reference engine kernel, freshly
/// allocated flip sets, delta_energy CSR row walks.
double legacy_insitu_run(const ising::IsingModel& model,
                         const AnalogWorkload& workload,
                         const crossbar::AnalogCrossbarEngine& probe,
                         double i_on_max, std::size_t iterations,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  auto noise = crossbar::ReadoutNoise::for_run(seed);
  auto spins = ising::random_spins(model.num_spins(), rng);
  double energy = model.energy(spins);
  double best = energy;
  const core::FractionalAcceptance acceptance;
  for (std::size_t it = 0; it < iterations; ++it) {
    const auto point = workload.schedule.at(it);
    const auto flips = ising::random_flip_set(model.num_flippable(), 2, rng);
    const auto evaluation = crossbar::reference::analog_evaluate(
        *workload.array, probe.adc(), probe.ir_attenuation(), probe.band_attenuations(), i_on_max, spins,
        flips, {point.factor, point.vbg}, noise);
    if (acceptance.accept(4.0 * evaluation.e_inc, rng)) {
      energy += model.delta_energy(spins, flips);
      ising::flip_in_place(spins, flips);
      if (energy < best) best = energy;
    }
  }
  return best;
}

core::ProblemInstance campaign_instance(std::size_t n) {
  return problems::make_maxcut_problem(
      "hotpath-n" + std::to_string(n),
      problems::random_graph(n, 24.0, problems::WeightScheme::kPlusMinusOne,
                             3000 + n),
      8, 3000 + n);
}

/// What one side of a campaign row produced on its last timed pass, in run
/// order.  Empty for the seed-era legacy loop, which has no CampaignResult.
using CampaignResults = std::vector<core::CampaignResult>;
using CampaignBody = std::function<CampaignResults()>;

/// One campaign row: the same workload run by a reference body and an
/// optimized body, each call of a body being one full timed pass.
struct CampaignSpec {
  const char* kind;             ///< JSON "kind"
  const char* reference_label;  ///< console name of the reference side
  std::size_t runs = 0;         ///< runs per pass, summed over repeats
  std::size_t iterations = 0;
  CampaignBody reference;
  CampaignBody optimized;
};

/// The seed-era reference of the "analog" row: the legacy run loop over
/// the annealer's own programmed weights, engine config and per-run seeds,
/// on one spawned thread per run slot, merging through a mutex.  It yields
/// no CampaignResult, so it checks its run count itself.
CampaignBody legacy_analog_campaign(
    std::shared_ptr<const core::ProblemInstance> instance,
    const core::InSituCimAnnealer& annealer, std::size_t runs,
    std::size_t iterations) {
  auto workload = std::make_shared<AnalogWorkload>(
      make_analog_workload(*instance->model, iterations, /*noisy=*/false));
  workload->array = annealer.array();  // identical programmed weights
  auto probe = std::make_shared<const crossbar::AnalogCrossbarEngine>(
      workload->array, workload->config.analog);
  const double i_on_max =
      workload->array->on_current(workload->array->device_params().vbg_max);
  util::Rng seeder(core::CampaignConfig{}.base_seed);
  std::vector<std::uint64_t> seeds(runs);
  for (auto& s : seeds) s = seeder();
  const std::size_t threads = std::min(util::worker_threads(), runs);

  return [=] {
    util::RunningStats best;
    std::mutex merge_mutex;  // the seed runner's serialization point
    legacy_parallel_for(
        runs,
        [&](std::size_t run) {
          const double b = legacy_insitu_run(*instance->model, *workload,
                                             *probe, i_on_max, iterations,
                                             seeds[run]);
          const std::lock_guard<std::mutex> lock(merge_mutex);
          best.add(b);
        },
        threads);
    if (best.count() != runs) report_mismatch("legacy run count");
    return CampaignResults{};
  };
}

/// The campaign rows at size n, in JSON order.  The deterministic in-situ
/// rows run `runs` x `iterations`; the batch row a quarter of the
/// iterations.  Every optimized side must reproduce its reference run
/// for run (checked by run_campaign_row).
std::vector<CampaignSpec> campaign_specs(std::size_t n, std::size_t runs,
                                         std::size_t iterations) {
  const auto instance =
      std::make_shared<const core::ProblemInstance>(campaign_instance(n));
  const auto insitu = [](std::size_t budget) {
    auto config = analog_config(/*noisy=*/false);
    config.iterations = budget;
    config.flips_per_iteration = 2;
    config.flip_selection = core::InSituConfig::FlipSelection::kRandom;
    return config;
  };
  const auto campaign = [instance](
                            std::shared_ptr<const core::Annealer> annealer,
                            core::CampaignConfig config) -> CampaignBody {
    return [instance, annealer, config] {
      return CampaignResults{
          core::run_campaign(*annealer, *instance, config)};
    };
  };

  const auto deterministic = std::make_shared<const core::InSituCimAnnealer>(
      instance->model, insitu(iterations));

  core::CampaignConfig pooled;  // threads = 0: the whole pool
  pooled.runs = runs;
  core::CampaignConfig with_deadlines = pooled;
  with_deadlines.run_timeout_seconds = 3600.0;  // never trips; polls stay hot

  // Duplicate-heavy batch: 6 fresh annealers replaying one 4-run campaign,
  // the way run_batch and the serve loop replay a repeated manifest entry.
  // The cached side shares one digest-keyed array cache, created inside the
  // pass so its first repeat pays the cold build.
  constexpr std::size_t kBatchRepeats = 6;
  core::CampaignConfig batch_campaign;
  batch_campaign.runs = 4;
  const auto batch = [instance, batch_campaign,
                      config = insitu(iterations / 4)](
                         bool cached) -> CampaignBody {
    return [=] {
      auto pass_config = config;
      if (cached)
        pass_config.array_cache = std::make_shared<crossbar::ArrayCache>();
      CampaignResults results;
      for (std::size_t repeat = 0; repeat < kBatchRepeats; ++repeat) {
        const core::InSituCimAnnealer annealer(instance->model, pass_config);
        results.push_back(
            core::run_campaign(annealer, *instance, batch_campaign));
      }
      return results;
    };
  };

  return {
      // Persistent pool, zero-allocation loops, mutex-free reduction vs the
      // seed-era campaign.
      {"analog", "legacy", runs, iterations,
       legacy_analog_campaign(instance, *deterministic, runs, iterations),
       campaign(deterministic, pooled)},
      // An armed, never-tripping run deadline vs the token-free path: the
      // amortized cancellation poll's overhead, pinned at ~1.0x (PERF.md).
      {"analog-lifecycle", "no-token", runs, iterations,
       campaign(deterministic, pooled),
       campaign(deterministic, with_deadlines)},
      // Shared array cache vs per-construction programming.
      {"analog-batch-cached", "uncached", kBatchRepeats * batch_campaign.runs,
       iterations / 4, batch(false), batch(true)},
  };
}

/// Run-by-run equality of the two sides' last passes: seed, status, best
/// energy and best configuration of every run, and each campaign's ADC
/// conversion count.  Runs outside the timed regions.
void check_campaign(const CampaignSpec& spec, const CampaignResults& reference,
                    const CampaignResults& optimized) {
  const std::string row = std::string("campaign ") + spec.kind;
  std::size_t runs = 0;
  for (const auto& result : optimized) runs += result.per_run.size();
  if (runs != spec.runs) return report_mismatch(row + " run count");
  if (reference.empty()) return;  // the legacy loop checked itself
  if (reference.size() != optimized.size())
    return report_mismatch(row + " campaign count");
  for (std::size_t c = 0; c < reference.size(); ++c) {
    const auto& expected = reference[c];
    const auto& actual = optimized[c];
    if (expected.total_ledger.adc_conversions !=
        actual.total_ledger.adc_conversions)
      return report_mismatch(row + " ADC conversion count");
    if (expected.per_run.size() != actual.per_run.size())
      return report_mismatch(row + " run count");
    for (std::size_t r = 0; r < expected.per_run.size(); ++r) {
      const auto& a = expected.per_run[r];
      const auto& b = actual.per_run[r];
      if (a.seed != b.seed || a.status != b.status ||
          a.best_energy != b.best_energy || a.best_spins != b.best_spins)
        return report_mismatch(row + " run " + std::to_string(r));
    }
  }
}

/// Times both sides best-of-three, checks them against each other and
/// prints the row.
CampaignRow run_campaign_row(std::size_t n, const CampaignSpec& spec) {
  CampaignRow row{n, spec.kind, spec.runs, spec.iterations,
                  util::worker_threads()};
  CampaignResults reference;
  CampaignResults optimized;
  row.legacy_seconds =
      best_of_three_seconds([&] { reference = spec.reference(); });
  row.optimized_seconds =
      best_of_three_seconds([&] { optimized = spec.optimized(); });
  check_campaign(spec, reference, optimized);
  row.speedup = row.legacy_seconds / row.optimized_seconds;
  std::printf(
      "campaign n=%zu %s runs=%zu iters=%zu threads=%zu: "
      "optimized %.3fs, %s %.3fs, speedup %.2fx\n",
      row.n, row.kind.c_str(), row.runs, row.iterations, row.threads,
      row.optimized_seconds, spec.reference_label,
      row.legacy_seconds, row.speedup);
  return row;
}

// ---------------------------------------------------------------------------

/// Returns false (after saying why) when the file cannot be opened, written
/// or closed, so a lost result fails the bench instead of passing silently.
bool write_json(const std::string& path, const std::string& mode,
                const SamplerRow& sampler,
                const std::vector<EngineRow>& engines,
                const std::vector<CampaignRow>& campaigns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_hotpath: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"fecim-bench-hotpath-v10\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", mode.c_str());
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", util::worker_threads());
  std::fprintf(f,
               "  \"sampler\": {\"normals_per_sec_ziggurat\": %.1f, "
               "\"normals_per_sec_box_muller\": %.1f, \"speedup\": %.2f},\n",
               sampler.ziggurat_per_sec, sampler.box_muller_per_sec,
               sampler.speedup);
  std::fprintf(f, "  \"engine_eval\": [\n");
  for (std::size_t i = 0; i < engines.size(); ++i) {
    const auto& row = engines[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"engine\": \"%s\", "
                 "\"evals_per_sec_optimized\": %.1f, "
                 "\"evals_per_sec_reference\": %.1f, \"speedup\": %.2f}%s\n",
                 row.n, row.engine.c_str(), row.optimized_per_sec,
                 row.reference_per_sec, row.speedup,
                 i + 1 < engines.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"campaign\": [\n");
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const auto& row = campaigns[i];
    // %.6f: the smoke campaign completes in milliseconds, and the gate
    // derives a throughput signal from this value -- %.3f quantization
    // would inject up to +-50 % error into it.
    std::fprintf(f,
                 "    {\"n\": %zu, \"kind\": \"%s\", \"runs\": %zu, "
                 "\"iterations\": %zu, "
                 "\"threads\": %zu, "
                 "\"wall_seconds_optimized\": %.6f, "
                 "\"wall_seconds_legacy\": %.6f, \"speedup\": %.2f}%s\n",
                 row.n, row.kind.c_str(), row.runs, row.iterations,
                 row.threads, row.optimized_seconds,
                 row.legacy_seconds, row.speedup,
                 i + 1 < campaigns.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool written = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "bench_hotpath: error writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main() {
  const bool smoke = util::env_flag("FECIM_BENCH_SMOKE", false);
  const bool full = util::full_reproduction_mode();
  bench::print_header("hot-path throughput: optimized kernels vs seed reference");

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{256}
            : std::vector<std::size_t>{256, 1024, 4096};
  // Smoke needs enough iterations that even the slowest regime (noisy
  // reference, iterations / 4) times a multi-millisecond region.
  const std::size_t engine_iterations = smoke ? 8000 : (full ? 200000 : 50000);

  const SamplerRow sampler = bench_sampler(smoke ? 2'000'000 : 20'000'000);
  std::printf(
      "normal sampler: ziggurat %.1f M/s vs Box-Muller %.1f M/s (%.2fx)\n",
      sampler.ziggurat_per_sec / 1e6, sampler.box_muller_per_sec / 1e6,
      sampler.speedup);

  util::Table table({"n", "engine", "opt evals/s", "ref evals/s", "speedup"});
  std::vector<EngineRow> engines;
  for (const auto n : sizes) {
    engines.push_back(bench_analog_engine(n, engine_iterations, false));
    engines.push_back(bench_analog_engine(n, engine_iterations / 4, true));
    // Tile-partitioned noisy sweep: 4 row bands (n/4-row tiles) exercise
    // the per-tile conversion walk the TilePlan execution model added --
    // n=1024 is the tracked size class, the n=256 smoke row gives check.sh
    // a baseline row to gate against.
    engines.push_back(bench_analog_engine(n, engine_iterations / 4, true,
                                          crossbar::TileShape{n / 4, 0}));
    engines.push_back(bench_ideal_annealer(n, engine_iterations));
    for (auto it = engines.end() - 4; it != engines.end(); ++it)
      table.row()
          .add(it->n)
          .add(it->engine)
          .add(it->optimized_per_sec, 0)
          .add(it->reference_per_sec, 0)
          .add(it->speedup, 2);
  }
  std::printf("%s\n", table.str().c_str());

  std::vector<CampaignRow> campaigns;
  {
    // n=256 rows run in every mode so the check.sh smoke pass always has a
    // baseline row to gate against; non-smoke modes add the n=1024 rows.
    const std::vector<std::size_t> campaign_sizes =
        smoke ? std::vector<std::size_t>{256}
              : std::vector<std::size_t>{256, 1024};
    // The smoke campaign runs the same workload as the reduced-mode
    // baseline row: an identical (runs, iterations) pair removes the
    // amortization bias a shorter campaign would carry, and the tens of
    // milliseconds it takes are what the gate's throughput signal needs to
    // sit clear of timer noise.
    const std::size_t runs = full ? 64 : 16;
    const std::size_t iterations = full ? 20000 : 5000;
    for (const auto n : campaign_sizes)
      for (const auto& spec : campaign_specs(n, runs, iterations))
        campaigns.push_back(run_campaign_row(n, spec));
  }

  // Smoke runs never overwrite the tracked baseline, but an explicit
  // FECIM_BENCH_OUT still captures their numbers (tools/check.sh compares
  // the smoke speedups against BENCH_hotpath.json to gate regressions).
  const char* out = std::getenv("FECIM_BENCH_OUT");
  bool written = true;
  if (!smoke || out != nullptr) {
    written = write_json(out != nullptr ? out : "BENCH_hotpath.json",
                         smoke ? "smoke" : (full ? "full" : "reduced"),
                         sampler, engines, campaigns);
  }
  if (g_mismatches > 0) {
    std::fprintf(stderr, "bench_hotpath: %zu check(s) failed\n",
                 g_mismatches);
    return 1;
  }
  return written ? 0 : 1;
}
