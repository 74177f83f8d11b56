// Tile-partitioned crossbar execution: the equivalence suite pinning the
// TilePlan contract end to end.
//
//  * Deterministic readout is partition-invariant: for every tile shape the
//    engine's e_inc / raw_vmv are bit-identical to the monolithic engine
//    (integer regrouping -- the per-tile partial sums are exact, so the
//    digital merge reconstructs the logical conversion), while the
//    trace/ledger reports the genuinely larger physical conversion count
//    and the milder per-tile IR attenuation.
//  * Stochastic readout is a pure function of (run seed, tile shape): one
//    keyed draw + one quantization per (tile, present column) in the
//    canonical cursor order, bit-identical to the tile-aware reference
//    kernel and reproducible across engine instances.
#include <gtest/gtest.h>

#include "core/insitu_annealer.hpp"
#include "core/runner.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/ideal_engine.hpp"
#include "crossbar/reference_kernels.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "problems/maxcut.hpp"

namespace {

using namespace fecim;

ising::IsingModel make_model(std::size_t n, problems::WeightScheme weights,
                             std::uint64_t seed) {
  return problems::maxcut_to_ising(
      problems::random_graph(n, 6.0, weights, seed));
}

std::shared_ptr<const crossbar::ProgrammedArray> make_array(
    const ising::IsingModel& model, int bits,
    const device::VariationParams& variation, std::uint64_t seed,
    const crossbar::TileShape& tiles) {
  const crossbar::QuantizedCouplings quantized(model.couplings(), bits);
  const crossbar::CrossbarMapping mapping(
      model.num_spins(), quantized.has_negative() ? 2 : 1,
      crossbar::MappingConfig{bits, 8, true});
  return std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, device::DgFefetParams{}, variation, seed, tiles);
}

// ---------------------------------------------------------------------------
// Band-partitioned cache structure.
// ---------------------------------------------------------------------------

TEST(TiledArray, BandCellRangesPartitionEveryColumn) {
  const auto model = make_model(60, problems::WeightScheme::kPlusMinusOne, 3);
  device::VariationParams variation;
  variation.vth_sigma = 0.04;
  variation.stuck_off_rate = 0.02;
  const auto array = make_array(model, 8, variation, 5,
                                crossbar::TileShape{13, 0});
  const auto bands = array->bands();
  ASSERT_EQ(bands.size(), 5u);  // 60 rows / cap 13 -> 5 bands of 12

  for (std::size_t j = 0; j < model.num_spins(); ++j) {
    const auto view = array->column(j);
    std::size_t cursor = 0;
    std::uint32_t total = 0;
    std::uint32_t active = 0;
    for (std::size_t b = 0; b < bands.size(); ++b) {
      const auto range = array->column_band_cells(b, j);
      EXPECT_EQ(range.begin, cursor);
      cursor = range.end;
      for (std::uint32_t k = range.begin; k < range.end; ++k) {
        EXPECT_GE(view.rows[k], bands[b].row_begin);
        EXPECT_LT(view.rows[k], bands[b].row_end);
      }
      // Band-local segment classes index band-relative rows.
      for (const auto& cls : array->column_classes(b, j))
        for (std::uint32_t k = cls.begin; k < cls.end; ++k)
          EXPECT_LT(array->cache_rows()[k], bands[b].rows());
      const auto present = array->column_present_segments(b, j);
      total += present;
      if (present > 0) ++active;
    }
    EXPECT_EQ(cursor, view.rows.size());
    EXPECT_EQ(total, array->column_total_present_segments(j));
    EXPECT_EQ(active, array->column_active_bands(j));
    EXPECT_LE(array->column_union_present_segments(j), total);
  }
}

TEST(TiledArray, MonolithicShapeKeepsOneBand) {
  const auto model = make_model(48, problems::WeightScheme::kUnit, 4);
  const auto array = make_array(model, 4, {}, 7, crossbar::TileShape{});
  EXPECT_EQ(array->num_bands(), 1u);
  EXPECT_EQ(array->bands()[0].rows(), 48u);
  for (std::size_t j = 0; j < model.num_spins(); ++j)
    EXPECT_EQ(array->column_total_present_segments(j),
              array->column_union_present_segments(j));
}

// ---------------------------------------------------------------------------
// Deterministic readout: bit-identical across every tile shape.
// ---------------------------------------------------------------------------

void expect_deterministic_partition_invariance(
    const ising::IsingModel& model, const device::VariationParams& variation,
    std::uint64_t seed) {
  core::InSituConfig config;
  config.analog.adc.noise_lsb_rms = 0.0;  // deterministic readout

  const std::vector<crossbar::TileShape> shapes = {
      {},                                    // monolithic
      {model.num_spins() / 2, 0},            // two bands
      {17, 256},                             // many uneven bands
      {1, 0},                                // degenerate one-row tiles
  };

  std::vector<crossbar::AnalogCrossbarEngine> engines;
  engines.reserve(shapes.size());
  for (const auto& shape : shapes)
    engines.emplace_back(make_array(model, 8, variation, seed, shape),
                         config.analog);
  for (auto& engine : engines) engine.begin_run(seed + 1);

  util::Rng selector(seed ^ 0x71135);
  const double vbg_max = device::DgFefetParams{}.vbg_max;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t t = 1 + selector.uniform_index(4);
    const auto flips = ising::random_flip_set(model.num_spins(), t, selector);
    const auto spins = ising::random_spins(model.num_spins(), selector);
    const crossbar::AnnealSignal signal{
        selector.uniform01(), selector.uniform(0.3, vbg_max)};

    const auto monolithic = engines[0].evaluate(spins, flips, signal);
    for (std::size_t s = 1; s < engines.size(); ++s) {
      const auto tiled = engines[s].evaluate(spins, flips, signal);
      ASSERT_EQ(tiled.e_inc, monolithic.e_inc) << "shape " << s;
      ASSERT_EQ(tiled.raw_vmv, monolithic.raw_vmv) << "shape " << s;
      // The physical walk differs: a >1-band grid converts at least as
      // often and never merges fewer partial sums.
      ASSERT_GE(tiled.trace.adc_conversions, monolithic.trace.adc_conversions);
      ASSERT_GE(tiled.trace.tile_activations,
                monolithic.trace.tile_activations);
    }
  }
}

TEST(TiledEngine, DeterministicIdealCellsPartitionInvariant) {
  const auto model = make_model(48, problems::WeightScheme::kUnit, 100);
  expect_deterministic_partition_invariance(model, {}, 11);
}

TEST(TiledEngine, DeterministicWeightedGraphPartitionInvariant) {
  const auto model =
      make_model(48, problems::WeightScheme::kPlusMinusOne, 101);
  expect_deterministic_partition_invariance(model, {}, 13);
}

TEST(TiledEngine, DeterministicStuckFaultsPartitionInvariant) {
  // Stuck-at faults keep every multiplier in {0, 1}: partial sums stay
  // integers, so the regrouping argument holds with faulted cells too.
  const auto model = make_model(48, problems::WeightScheme::kUnit, 102);
  device::VariationParams faults;
  faults.stuck_off_rate = 0.05;
  faults.stuck_on_rate = 0.02;
  expect_deterministic_partition_invariance(model, faults, 17);
}

// ---------------------------------------------------------------------------
// Stochastic readout: engine == tile-aware reference, bit for bit, for any
// tile shape; cursors in lockstep.
// ---------------------------------------------------------------------------

void expect_tiled_reference_equivalence(const ising::IsingModel& model,
                                        const device::VariationParams& variation,
                                        const crossbar::TileShape& shape,
                                        std::uint64_t seed,
                                        double adc_noise_lsb) {
  crossbar::AnalogEngineConfig config;
  config.adc.noise_lsb_rms = adc_noise_lsb;
  const auto array = make_array(model, 8, variation, seed, shape);
  crossbar::AnalogCrossbarEngine engine(array, config);
  const double i_on_max = array->on_current(array->device_params().vbg_max);

  util::Rng selector(seed ^ 0xf11b5);
  engine.begin_run(seed + 1);
  auto noise_ref = crossbar::ReadoutNoise::for_run(seed + 1);

  const double vbg_max = array->device_params().vbg_max;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t t = 1 + selector.uniform_index(4);
    const auto flips = ising::random_flip_set(model.num_spins(), t, selector);
    const auto spins = ising::random_spins(model.num_spins(), selector);
    const crossbar::AnnealSignal signal{
        selector.uniform01(), selector.uniform(0.3, vbg_max)};

    const auto optimized = engine.evaluate(spins, flips, signal);
    const auto reference = crossbar::reference::analog_evaluate(
        *array, engine.adc(), engine.ir_attenuation(),
        engine.band_attenuations(), i_on_max, spins, flips, signal, noise_ref);

    ASSERT_EQ(optimized.e_inc, reference.e_inc);
    ASSERT_EQ(optimized.raw_vmv, reference.raw_vmv);
    ASSERT_EQ(optimized.trace.adc_conversions,
              reference.trace.adc_conversions);
    ASSERT_EQ(optimized.trace.tile_activations,
              reference.trace.tile_activations);
    ASSERT_EQ(optimized.trace.partial_sum_updates,
              reference.trace.partial_sum_updates);
    ASSERT_EQ(optimized.trace.mux_slot_cycles, reference.trace.mux_slot_cycles);
    ASSERT_EQ(optimized.trace.tile_ir_attenuation,
              reference.trace.tile_ir_attenuation);
    // Both sides assigned the same indices to the same conversions.
    ASSERT_EQ(engine.readout_noise().next_conversion,
              noise_ref.next_conversion);
  }
}

TEST(TiledEngine, NoisyMatchesReferenceAcrossShapes) {
  const auto model =
      make_model(48, problems::WeightScheme::kPlusMinusOne, 200);
  device::VariationParams variation;
  variation.vth_sigma = 0.04;
  variation.read_noise_rel = 0.02;
  variation.stuck_off_rate = 0.01;
  for (const auto& shape : std::vector<crossbar::TileShape>{
           {}, {16, 0}, {7, 128}, {1, 0}}) {
    expect_tiled_reference_equivalence(model, variation, shape, 23, 0.5);
  }
}

TEST(TiledEngine, AdcNoiseOnlyMatchesReferenceAcrossShapes) {
  const auto model = make_model(48, problems::WeightScheme::kUnit, 201);
  for (const auto& shape :
       std::vector<crossbar::TileShape>{{}, {12, 0}, {5, 0}}) {
    expect_tiled_reference_equivalence(model, {}, shape, 29, 0.5);
  }
}

TEST(TiledEngine, DeterministicTiledMatchesReference) {
  // The reference kernel encodes the shared-conversion contract too: the
  // deterministic tiled walk must agree with it bit for bit (and with the
  // monolithic result, by the partition-invariance tests above).
  const auto model = make_model(48, problems::WeightScheme::kUnit, 202);
  for (const auto& shape :
       std::vector<crossbar::TileShape>{{}, {16, 0}, {9, 0}}) {
    expect_tiled_reference_equivalence(model, {}, shape, 31, 0.0);
  }
}

TEST(TiledEngine, NoisyReproduciblePerSeedAndShape) {
  const auto model =
      make_model(48, problems::WeightScheme::kPlusMinusOne, 300);
  device::VariationParams variation;
  variation.read_noise_rel = 0.03;
  const crossbar::TileShape shape{12, 0};
  crossbar::AnalogEngineConfig config;  // default ADC noise on

  const auto array = make_array(model, 8, variation, 41, shape);
  crossbar::AnalogCrossbarEngine first(array, config);
  crossbar::AnalogCrossbarEngine second(array, config);
  const auto mono_array = make_array(model, 8, variation, 41, {});
  crossbar::AnalogCrossbarEngine monolithic(mono_array, config);
  first.begin_run(77);
  second.begin_run(77);
  monolithic.begin_run(77);

  util::Rng selector(91);
  double tiled_sum = 0.0;
  double mono_sum = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto flips = ising::random_flip_set(
        model.num_spins(), 1 + selector.uniform_index(3), selector);
    const auto spins = ising::random_spins(model.num_spins(), selector);
    const crossbar::AnnealSignal signal{selector.uniform01(),
                                        selector.uniform(0.3, 0.7)};
    const auto a = first.evaluate(spins, flips, signal);
    const auto b = second.evaluate(spins, flips, signal);
    // Same (seed, shape) -> the same noisy result, instance by instance.
    ASSERT_EQ(a.e_inc, b.e_inc);
    tiled_sum += a.e_inc;
    mono_sum += monolithic.evaluate(spins, flips, signal).e_inc;
  }
  // Different tile shapes perform different physical conversion walks, so
  // their noisy trajectories deliberately differ.
  EXPECT_NE(tiled_sum, mono_sum);
}

// ---------------------------------------------------------------------------
// Annealer- and ledger-level behaviour.
// ---------------------------------------------------------------------------

core::ProblemInstance tiled_instance(std::size_t n, std::uint64_t seed) {
  return problems::make_maxcut_problem(
      "tiled", problems::random_graph(n, 6.0, problems::WeightScheme::kUnit,
                                      seed),
      16, seed);
}

TEST(TiledAnnealer, DeterministicRunsMatchMonolithicAndReportTileEvents) {
  const auto instance = tiled_instance(96, 501);
  core::InSituConfig base;
  base.iterations = 300;
  base.flips_per_iteration = 2;
  base.flip_selection = core::InSituConfig::FlipSelection::kRandom;
  base.analog.adc.noise_lsb_rms = 0.0;  // deterministic readout

  auto tiled = base;
  tiled.tiles = crossbar::TileShape{24, 512};

  const core::InSituCimAnnealer monolithic(instance.model, base);
  const core::InSituCimAnnealer partitioned(instance.model, tiled);
  ASSERT_EQ(partitioned.array()->num_bands(), 4u);

  const auto mono = monolithic.run(7);
  const auto part = partitioned.run(7);
  // Same physics, same proposals, partition-invariant deterministic
  // readout: the annealing trajectory is bit-identical.
  EXPECT_EQ(part.best_energy, mono.best_energy);
  EXPECT_EQ(part.final_energy, mono.final_energy);
  EXPECT_EQ(part.best_spins, mono.best_spins);
  EXPECT_EQ(part.accepted_moves, mono.accepted_moves);
  // ...while the hardware events are honestly tiled: more conversions,
  // per-tile partial-sum merges, and >1 tile activations per evaluation.
  EXPECT_GT(part.ledger.adc_conversions, mono.ledger.adc_conversions);
  EXPECT_GT(part.ledger.partial_sum_updates, 0u);
  EXPECT_EQ(mono.ledger.partial_sum_updates, 0u);
  EXPECT_GT(part.ledger.tile_activations, mono.ledger.tile_activations);
}

TEST(TiledAnnealer, TileAttenuationIsMilderThanMonolithic) {
  const auto instance = tiled_instance(512, 502);
  core::InSituConfig base;
  base.iterations = 1;

  auto tiled = base;
  tiled.tiles = crossbar::TileShape{128, 1024};

  const core::InSituCimAnnealer mono_annealer(instance.model, base);
  const core::InSituCimAnnealer tiled_annealer(instance.model, tiled);
  const crossbar::AnalogCrossbarEngine mono_engine(mono_annealer.array(),
                                                   base.analog);
  const crossbar::AnalogCrossbarEngine tiled_engine(tiled_annealer.array(),
                                                    tiled.analog);
  // Shorter per-tile lines lose strictly less current than the monolithic
  // 512-row line (attenuation factor closer to 1).
  EXPECT_GT(tiled_engine.tile_attenuation(), mono_engine.tile_attenuation());
  EXPECT_LE(tiled_engine.tile_attenuation(), 1.0);
  EXPECT_EQ(tiled_engine.band_attenuations().size(), 4u);
  // The logical calibration point is the same array either way.
  EXPECT_EQ(tiled_engine.ir_attenuation(), mono_engine.ir_attenuation());

  // The per-evaluation trace carries the per-tile factor.
  auto engine = crossbar::AnalogCrossbarEngine(tiled_annealer.array(),
                                               tiled.analog);
  engine.begin_run(1);
  util::Rng rng(3);
  const auto spins = ising::random_spins(instance.model->num_spins(), rng);
  const auto flips = ising::random_flip_set(instance.model->num_spins(), 2, rng);
  const auto result = engine.evaluate(spins, flips, {1.0, 0.7});
  EXPECT_EQ(result.trace.tile_ir_attenuation, engine.tile_attenuation());
  EXPECT_GT(result.trace.tile_ir_attenuation,
            mono_engine.tile_attenuation());
}

TEST(TiledAnnealer, IdealEngineScalesConversionAccounting) {
  const auto instance = tiled_instance(64, 503);
  core::InSituConfig base;
  base.iterations = 100;
  base.flips_per_iteration = 2;
  base.flip_selection = core::InSituConfig::FlipSelection::kRandom;
  base.engine = core::InSituConfig::EngineKind::kIdeal;

  auto tiled = base;
  tiled.tiles = crossbar::TileShape{16, 0};  // 4 row bands

  const core::InSituCimAnnealer monolithic(instance.model, base);
  const core::InSituCimAnnealer partitioned(instance.model, tiled);
  const auto mono = monolithic.run(9);
  const auto part = partitioned.run(9);
  // Exact arithmetic either way -> identical trajectory...
  EXPECT_EQ(part.best_energy, mono.best_energy);
  EXPECT_EQ(part.final_energy, mono.final_energy);
  // ...with dense-tile accounting: 4x the conversions, 3/4 of them merged.
  EXPECT_EQ(part.ledger.adc_conversions, 4 * mono.ledger.adc_conversions);
  EXPECT_EQ(part.ledger.partial_sum_updates,
            3 * mono.ledger.adc_conversions);
  EXPECT_EQ(part.ledger.tile_activations, 4 * mono.ledger.tile_activations);
}

TEST(TiledAnnealer, NoisyCampaignReproduciblePerShape) {
  const auto instance = tiled_instance(64, 504);
  core::InSituConfig config;
  config.iterations = 200;
  config.flips_per_iteration = 2;
  config.variation.vth_sigma = 0.03;
  config.variation.read_noise_rel = 0.02;
  config.tiles = crossbar::TileShape{16, 0};

  const core::InSituCimAnnealer annealer(instance.model, config);
  core::CampaignConfig campaign;
  campaign.runs = 4;
  const auto first = core::run_campaign(annealer, instance, campaign);
  const auto second = core::run_campaign(annealer, instance, campaign);
  ASSERT_EQ(first.per_run.size(), second.per_run.size());
  for (std::size_t r = 0; r < first.per_run.size(); ++r) {
    EXPECT_EQ(first.per_run[r].best_energy, second.per_run[r].best_energy);
    EXPECT_EQ(first.per_run[r].best_spins, second.per_run[r].best_spins);
  }
  EXPECT_GT(first.total_ledger.partial_sum_updates, 0u);
  EXPECT_GT(first.total_ledger.tile_activations, 0u);
}

}  // namespace
