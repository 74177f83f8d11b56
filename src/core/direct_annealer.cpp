#include "core/direct_annealer.hpp"

#include <cmath>

#include "core/acceptance.hpp"
#include "core/run_driver.hpp"
#include "crossbar/bit_slicing.hpp"
#include "crossbar/ideal_engine.hpp"
#include "ising/flipset.hpp"
#include "util/assert.hpp"

namespace fecim::core {

namespace {

/// Final temperature of every ladder, as a fraction of its start.
constexpr double kTEndFraction = 1e-3;
/// Per-iteration factor of the kFixedDecay ladder [9, 10].
constexpr double kDecayPerIteration = 0.999;
/// Starting-temperature factor between consecutive MESA epochs.
constexpr double kEpochReheat = 0.5;

/// Mean |dE| of random moves from random states: the conventional SA
/// starting-temperature scale (initial uphill acceptance ~ e^-1/3 with
/// t_start = 3x this estimate).
double estimate_move_scale(const ising::IsingModel& model,
                           std::size_t flips_per_iteration) {
  util::Rng rng(0xca11b7a7e);
  constexpr int kSamples = 128;
  double sum = 0.0;
  auto spins = ising::random_spins(model.num_spins(), rng);
  for (int s = 0; s < kSamples; ++s) {
    const auto flips = ising::random_flip_set(model.num_flippable(),
                                              flips_per_iteration, rng);
    sum += std::fabs(model.delta_energy(spins, flips));
    ising::flip_in_place(spins, flips);  // drift so samples decorrelate
  }
  return std::max(1e-12, sum / kSamples);
}

}  // namespace

DirectEAnnealer::DirectEAnnealer(std::shared_ptr<const ising::IsingModel> model,
                                 DirectEConfig config)
    : model_(std::move(model)),
      config_(std::move(config)),
      mapping_(model_->num_spins(),
               crossbar::QuantizedCouplings(model_->couplings(),
                                            config_.mapping.bits)
                       .has_negative()
                   ? 2
                   : 1,
               config_.mapping) {
  FECIM_EXPECTS(model_ != nullptr);
  FECIM_EXPECTS(config_.flips_per_iteration >= 1);
  FECIM_EXPECTS(config_.flips_per_iteration <= model_->num_flippable());
  FECIM_EXPECTS(config_.iterations >= 1);
  FECIM_EXPECTS(config_.epochs >= 1);
  t_start_ = 3.0 * estimate_move_scale(*model_, config_.flips_per_iteration);
}

AnnealResult DirectEAnnealer::run(std::uint64_t seed,
                                  const CancellationToken& token) const {
  crossbar::IdealCrossbarEngine engine(*model_, mapping_,
                                       crossbar::Accounting::kDirectFullArray,
                                       config_.tiles);
  // Every applied flip set is reported back via on_flips_applied(), so the
  // engine serves each evaluation from its local-field cache instead of
  // re-walking CSR rows.
  engine.enable_local_field_cache();

  // Multi-epoch runs record no trajectory: the MESA golden in
  // tests/test_bifurcation.cpp pins zero points, and a restart's jump back
  // to the incumbent has no encoding in the trace format.
  RunDriver driver(*model_, seed, token,
                   {config_.iterations,
                    config_.epochs == 1 ? config_.trace : TraceOptions{},
                    config_.initial_spins.get()});
  auto& rng = driver.rng;
  auto& spins = driver.spins;

  const MetropolisAcceptance acceptance;

  // Reused proposal buffer: the loop below performs no heap allocations
  // after this point (plus the engine's lazy per-epoch cache build).
  ising::FlipSet flips;
  flips.reserve(config_.flips_per_iteration);

  // One counter across epochs drives the cancellation poll and the trace.
  std::uint64_t global_it = 0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Early epochs absorb the division remainder so the exact budget runs.
    const std::size_t per_epoch = config_.iterations / config_.epochs +
                                  (epoch < config_.iterations % config_.epochs);
    if (per_epoch == 0) continue;
    // Restart from the incumbent best (a no-op for epoch 0).
    spins = driver.result.best_spins;
    driver.energy = driver.result.best_energy;
    engine.invalidate_local_field_cache();
    const double epoch_t_start =
        t_start_ * std::pow(kEpochReheat, static_cast<double>(epoch));
    const ClassicSchedule schedule({epoch_t_start,
                                    epoch_t_start * kTEndFraction, per_epoch,
                                    config_.schedule_kind,
                                    kDecayPerIteration});

    for (std::size_t it = 0; it < per_epoch; ++it, ++global_it) {
      driver.poll(global_it);
      const double temperature = schedule.temperature(it);
      ising::random_flip_set_into(flips, model_->num_flippable(),
                                  config_.flips_per_iteration, rng);

      // The hardware computes E_new via the full-array VMV; dE follows
      // digitally.  Numerically dE = 4 sigma_r^T J sigma_c (+ field terms).
      const auto evaluation = engine.evaluate(spins, flips, {1.0, 0.0});
      crossbar::merge_trace(driver.result.ledger, evaluation.trace);
      ++driver.result.ledger.iterations;
      double delta_e = 4.0 * evaluation.raw_vmv;
      for (const auto i : flips)
        delta_e += -2.0 * model_->fields()[i] * static_cast<double>(spins[i]);

      const auto decision = acceptance.accept(delta_e, temperature, rng);
      if (config_.pipelined_exp_unit || decision.exp_evaluated)
        ++driver.result.ledger.exp_evaluations;
      if (decision.accepted) {
        driver.energy += delta_e;
        ising::flip_in_place(spins, flips);
        engine.on_flips_applied(spins, flips);
        driver.count_accept(flips.size(), delta_e > 0.0);
        driver.track_best();
      }

      driver.record(global_it, temperature);
    }
  }

  return driver.finish();
}

}  // namespace fecim::core
