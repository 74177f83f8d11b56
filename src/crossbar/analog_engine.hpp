// Analog DG FeFET crossbar E_inc engine (paper Sec. 3.3, Fig. 6(d)).
//
// For each flipped logical column j (driven at DL with sigma_c_j) the engine
// senses the k bit-slice columns in both weight planes across the two
// row-polarity passes; each sensed current is
//
//   I_col = I_on(V_BG) * att * sum_{active cells} multiplier_cell + noise,
//
// digitized by the shared SAR ADC, shifted by its bit weight, and
// accumulated with the pass polarity sign.  Because every conducting cell's
// current carries the factor I_on(V_BG), the product with the fractional
// annealing factor f(T) happens *in situ*; the digital back end only scales
// by the fixed calibration constant  scale * LSB / I_on(V_BG_max).
//
// Tiled execution: the array realizes its logical rows as a grid of
// physical tiles (ProgrammedArray::bands()); the engine sweeps the row
// bands, senses each band's partial column currents with that band's own
// IR-drop attenuation, and accumulates the per-tile results digitally into
// per-logical-column sums.  Stochastic readout performs one genuine ADC
// conversion (one keyed draw, one quantization, per-tile calibration) per
// (tile, present physical column) in the canonical cursor order, so noisy
// results are a pure function of (run seed, tile shape).  Deterministic
// readout accumulates the exact per-tile partial sums digitally and
// evaluates the shared quantizer once per logical segment at the
// logical-array calibration point -- the tile-grid counterpart of the
// per-class shared conversion below -- which makes the deterministic result
// partition-invariant (bit-identical across tile shapes whenever the
// partial sums regroup exactly, i.e. integer multiplier sums) while the
// ledger still counts every physical per-tile conversion.
//
// Hot path: the engine walks the array's precomputed per-band bit-plane
// column cache (one pass over each distinct segment class accumulates both
// row polarities) instead of decoding magnitudes per cell per call, and
// tracks flip membership through a reusable per-engine workspace bitmask.
// Readout noise comes from counter-keyed streams (ReadoutNoise) indexed by
// the canonical conversion order, batched per (column, tile) through the
// ziggurat sampler -- no sequential RNG anywhere in the sensing chain.  All
// of it is floating-point-identical to the direct per-cell evaluation;
// tests/test_perf_equivalence.cpp and tests/test_tiled_engine.cpp pin that
// equivalence against crossbar/reference_kernels.hpp.
#pragma once

#include <memory>
#include <vector>

#include "circuit/parasitics.hpp"
#include "circuit/sar_adc.hpp"
#include "crossbar/engine.hpp"
#include "crossbar/programmed_array.hpp"

namespace fecim::crossbar {

struct AnalogEngineConfig {
  circuit::SarAdcParams adc{};
  /// ADC full scale expressed in full-drive cell currents at V_BG max; the
  /// absolute full_scale_current is derived at construction.
  double full_scale_cells = 64.0;
  bool model_ir_drop = true;
  circuit::WireTech wire{};
};

class AnalogCrossbarEngine final : public EincEngine {
 public:
  /// Solves the IR-drop MNA ladders of the logical array and of each
  /// distinct tile height.  Per-run engines over one array are copies of a
  /// constructed prototype (core/crossbar_backend.hpp), so the solves run
  /// once per array, not once per run.
  AnalogCrossbarEngine(std::shared_ptr<const ProgrammedArray> array,
                       const AnalogEngineConfig& config = {});

  /// Re-keys the readout noise streams to `run_seed` and resets the
  /// conversion counter.  Without a call the engine behaves as run 0.
  void begin_run(std::uint64_t run_seed) override;

  EincResult evaluate(std::span<const ising::Spin> spins,
                      const ising::FlipSet& flips,
                      const AnnealSignal& signal) override;

  std::size_t num_spins() const noexcept override {
    return array_->mapping().num_spins();
  }

  const circuit::SarAdc& adc() const noexcept { return adc_; }
  /// IR-drop attenuation of the logical (monolithic) array -- the fixed
  /// digital calibration point.
  double ir_attenuation() const noexcept { return attenuation_; }
  /// Per-row-band (tile) IR-drop attenuations; band_attenuations()[0] is
  /// the nominal (full-height) tile and equals ir_attenuation() for a
  /// monolithic array.
  std::span<const double> band_attenuations() const noexcept {
    return band_attenuation_;
  }
  /// Nominal per-tile attenuation (the full-height band).
  double tile_attenuation() const noexcept { return band_attenuation_[0]; }
  /// Current stochastic readout state (streams + conversion cursor); the
  /// equivalence tests use it to check cursor lockstep with the reference.
  const ReadoutNoise& readout_noise() const noexcept { return noise_; }

 private:
  /// Reusable per-engine scratch so evaluate() performs no heap allocation.
  /// Deterministic readout accumulates per segment class (`sum`, index 0 =
  /// +1 row-polarity pass, 1 = -1; a (band, column) has at most
  /// bits * 2 <= 32 distinct classes) and, on >1-band grids, merges the
  /// band partial sums into `det_sum` before the shared conversion.
  /// Stochastic readout works per (flip, band) unit out of `unit` (below);
  /// `z` holds the whole evaluation's batched per-conversion draws (one
  /// widened ziggurat fill), `conv_base` the per-(flip, band) offsets into
  /// it in canonical cursor order, and `band_acc` accumulates each band's
  /// signed code sums for the per-tile calibration.
  struct EvalWorkspace {
    std::vector<std::uint8_t> flip_mask;
    double sum[2][32];
    double det_sum[2][2][16];  ///< [bank][plane][bit] cross-band totals
    std::vector<double> z;     ///< batched standard-normal conversion draws
    std::vector<std::uint32_t> conv_base;  ///< [flip * bands + band] -> z offset
    std::vector<double> band_acc;  ///< per-band signed code accumulators
    /// Per-flip invariants hoisted out of the (flip, band) sweep units:
    /// the column view (ProgrammedArray::column is out of line, so calling
    /// it once per flip instead of once per unit matters on tiled grids)
    /// and the column-polarity sign q.
    std::vector<ProgrammedArray::ColumnView> flip_view;
    std::vector<int> flip_q;
  };

  /// Stochastic scratch of one (flip, band) unit, reused by every unit of
  /// the serial sweep (each unit zeroes its sums first): current sums /
  /// squared-multiplier sums packed [bank * 2bits + plane * bits + bit]
  /// (4 * bits live lanes) so the bank-selecting per-cell sweep's inner bit
  /// loop is branch-free and unit-stride -- and so the conversion lane
  /// order (polarity pass, then plane, then bit; pass selects its bank)
  /// walks the scratch contiguously: a fully-present unit converts both
  /// passes in one gather-free vector loop.  `zt` holds the unit's draws
  /// de-interleaved from cursor order into that lane order, `terms` the
  /// signed weighted codes.  64 lanes cover one unit at the maximum bit
  /// width (4 * bits <= 64).
  struct alignas(64) UnitScratch {
    double nsum[64];
    double nsq[64];
    double zt[64];
    double terms[64];
  };

  std::shared_ptr<const ProgrammedArray> array_;
  circuit::SarAdc adc_;
  double attenuation_ = 1.0;              ///< logical-array calibration
  std::vector<double> band_attenuation_;  ///< per row band (tile)
  /// scale * LSB / (I_on(vbg_max) * band_attenuation): the per-tile digital
  /// calibration of the stochastic readout, precomputed so the per-eval
  /// merge avoids a divide per band.
  std::vector<double> band_to_einc_;
  double i_on_max_ = 0.0;
  // on_current() evaluates the EKV transistor model; the DAC-quantized V_BG
  // schedule repeats levels for long stretches, so memoize the last level.
  double cached_vbg_ = -1.0;
  double cached_i_on_ = 0.0;
  ReadoutNoise noise_;
  EvalWorkspace workspace_;
  UnitScratch unit_;
  /// Signed digital weight of each conversion lane of a fully-present unit,
  /// [pass * 2bits + plane * bits + bit] = pass_sign * plane_sign * 2^bit.
  /// Folding the pass polarity into the weights lets the dense path sum
  /// both passes' (exact integer) terms in one reduction.
  std::vector<double> lane_weight_;
};

}  // namespace fecim::crossbar
