// Randomized differential layer over the analog readout sweep: ~200 seeded
// configurations drawn across the whole contract surface -- problem size
// N in [3, 257], tile shapes down to 1-row bands, weight schemes (single-
// and two-plane), bit widths, variation seeds, Vth spread and stuck-fault
// masks -- each evaluated in one of the four readout regimes (deterministic,
// ADC-noise-only, read-noise-only, both).  For every configuration the
// vectorized engine must match the per-cell reference kernel bit for bit
// (e_inc, raw_vmv, the conversion ledger) with the keyed-noise conversion
// cursors in lockstep after every evaluation.
//
// This suite is the fuzzing counterpart of the hand-picked pins in
// tests/test_perf_equivalence.cpp and tests/test_tiled_engine.cpp: those
// freeze known-interesting cases; this one walks the configuration space so
// a data-parallel rewrite of the sweep (batched draws, lane-major
// conversion) cannot quietly change results on a
// shape nobody pinned.  Every configuration derives from a single counter
// seed, so a failure report ("config 137") reproduces in isolation.
//
// Labeled `differential` (and excluded from the tier-1 fast loop) in
// CMakeLists.txt; tools/check.sh --sanitize runs it under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "core/insitu_annealer.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/reference_kernels.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/rng.hpp"

namespace {

using namespace fecim;

struct DifferentialConfig {
  std::size_t n = 0;
  int bits = 8;
  problems::WeightScheme weights = problems::WeightScheme::kPlusMinusOne;
  crossbar::TileShape tiles{};
  device::VariationParams variation{};
  double adc_noise_lsb = 0.0;
  std::uint64_t graph_seed = 0;
  std::uint64_t array_seed = 0;
  std::uint64_t run_seed = 0;
};

/// Configuration `index` of the deterministic schedule: every field derives
/// from Rng(index), so any failing case reproduces standalone.
DifferentialConfig make_config(std::uint64_t index) {
  util::Rng rng(0xd1ffe4e57ULL ^ (index * 0x9e3779b97f4a7c15ULL));
  DifferentialConfig cfg;
  cfg.n = 3 + rng.uniform_index(255);  // [3, 257]
  cfg.bits = 2 + static_cast<int>(rng.uniform_index(7));  // [2, 8]
  // kUnit quantizes to a single weight plane (no negative couplings), so the
  // negative-plane segments are absent end to end -- a sparsity class of its
  // own.
  cfg.weights = rng.bernoulli(0.25) ? problems::WeightScheme::kUnit
                                    : problems::WeightScheme::kPlusMinusOne;
  switch (rng.uniform_index(4)) {
    case 0:  // monolithic logical array
      cfg.tiles = {};
      break;
    case 1:  // degenerate 1-row bands: every cell is its own tile row
      cfg.tiles = crossbar::TileShape{1, 0};
      break;
    case 2:  // short bands (2..8 rows): many partially-present tiles
      cfg.tiles = crossbar::TileShape{2 + rng.uniform_index(7), 0};
      break;
    default:  // anything up to (and beyond) the full height
      cfg.tiles = crossbar::TileShape{1 + rng.uniform_index(cfg.n + 8), 0};
      break;
  }
  cfg.variation.vth_sigma = rng.bernoulli(0.7) ? rng.uniform(0.0, 0.08) : 0.0;
  // Stuck-fault masks: stuck-off cells make individual (bit, plane) segments
  // vanish per band, stuck-on cells pin full-drive multipliers -- both
  // reshape the present-segment map the sweep and the cursor walk.
  if (rng.bernoulli(0.5)) cfg.variation.stuck_off_rate = rng.uniform(0.0, 0.1);
  if (rng.bernoulli(0.3)) cfg.variation.stuck_on_rate = rng.uniform(0.0, 0.05);
  // Four readout regimes, round-robin so each gets ~50 configurations:
  // deterministic, ADC-noise-only (the track_sq=false fast path),
  // read-noise-only, and both noise sources in quadrature.
  switch (index % 4) {
    case 0:
      break;
    case 1:
      cfg.adc_noise_lsb = rng.uniform(0.1, 1.0);
      break;
    case 2:
      cfg.variation.read_noise_rel = rng.uniform(0.005, 0.04);
      break;
    default:
      cfg.adc_noise_lsb = rng.uniform(0.1, 1.0);
      cfg.variation.read_noise_rel = rng.uniform(0.005, 0.04);
      break;
  }
  cfg.graph_seed = rng();
  cfg.array_seed = rng();
  cfg.run_seed = rng();
  return cfg;
}

/// Runs one configuration: a handful of random (spins, flips, signal)
/// evaluations, each checked engine-vs-reference bit for bit with the
/// conversion cursors compared after every call.
void run_config(const DifferentialConfig& cfg, std::uint64_t index) {
  const double degree =
      std::min(static_cast<double>(cfg.n - 1), 6.0);
  const auto model = problems::maxcut_to_ising(problems::random_graph(
      cfg.n, degree, cfg.weights, cfg.graph_seed));

  core::InSituConfig config;
  config.mapping.bits = cfg.bits;
  config.analog.adc.noise_lsb_rms = cfg.adc_noise_lsb;

  const crossbar::QuantizedCouplings quantized(model.couplings(), cfg.bits);
  const crossbar::CrossbarMapping mapping(
      model.num_spins(), quantized.has_negative() ? 2 : 1, config.mapping);
  const auto array = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, config.device, cfg.variation, cfg.array_seed,
      cfg.tiles);

  crossbar::AnalogCrossbarEngine engine(array, config.analog);
  const double i_on_max = array->on_current(array->device_params().vbg_max);
  const double vbg_max = array->device_params().vbg_max;

  engine.begin_run(cfg.run_seed);
  auto noise_ref = crossbar::ReadoutNoise::for_run(cfg.run_seed);

  util::Rng trial_rng(cfg.run_seed ^ 0x7a1a15ULL);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(::testing::Message() << "config " << index << " trial "
                                      << trial << " n=" << cfg.n
                                      << " tiles.rows=" << cfg.tiles.rows);
    const std::size_t t =
        1 + trial_rng.uniform_index(std::min<std::size_t>(cfg.n, 5));
    const auto flips =
        ising::random_flip_set(model.num_spins(), t, trial_rng);
    const auto spins = ising::random_spins(model.num_spins(), trial_rng);
    const crossbar::AnnealSignal signal{trial_rng.uniform01(),
                                        trial_rng.uniform(0.3, vbg_max)};

    const auto optimized = engine.evaluate(spins, flips, signal);
    const auto reference = crossbar::reference::analog_evaluate(
        *array, engine.adc(), engine.ir_attenuation(),
        engine.band_attenuations(), i_on_max, spins, flips, signal,
        noise_ref);

    // Bit identity, not tolerance: the sweep's regrouping must be exact.
    ASSERT_EQ(optimized.e_inc, reference.e_inc);
    ASSERT_EQ(optimized.raw_vmv, reference.raw_vmv);
    ASSERT_EQ(optimized.trace.adc_conversions,
              reference.trace.adc_conversions);
    ASSERT_EQ(optimized.trace.partial_sum_updates,
              reference.trace.partial_sum_updates);
    ASSERT_EQ(optimized.trace.tile_activations,
              reference.trace.tile_activations);
    ASSERT_EQ(optimized.trace.mux_slot_cycles,
              reference.trace.mux_slot_cycles);
    // Cursor lockstep: both sides assigned the same keyed index to every
    // conversion, so the *next* evaluation starts aligned too.
    ASSERT_EQ(engine.readout_noise().next_conversion,
              noise_ref.next_conversion);
  }
}

constexpr std::uint64_t kNumConfigs = 200;

TEST(SweepDifferential, EngineMatchesReferenceAcrossRandomizedConfigs) {
  for (std::uint64_t index = 0; index < kNumConfigs; ++index) {
    const auto cfg = make_config(index);
    run_config(cfg, index);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "first divergence at config " << index;
      return;
    }
  }
}

}  // namespace
