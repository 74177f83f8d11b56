// Peripheral circuit models: SAR ADC, BG DAC, line drivers, MUX, parasitics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"
#include "circuit/drivers.hpp"
#include "circuit/mna.hpp"
#include "circuit/parasitics.hpp"
#include "circuit/sar_adc.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace fecim::circuit;

TEST(SarAdc, IdealTransferIsMonotoneStaircase) {
  SarAdc adc({8, 1e-6, 0.0});
  std::uint32_t previous = 0;
  for (double i = 0.0; i <= 1e-6; i += 1e-9) {
    const auto code = adc.convert_ideal(i);
    EXPECT_GE(code, previous);
    previous = code;
  }
  EXPECT_EQ(adc.max_code(), 255u);
}

TEST(SarAdc, ClampsOutOfRange) {
  SarAdc adc({8, 1e-6, 0.0});
  EXPECT_EQ(adc.convert_ideal(-1e-7), 0u);
  EXPECT_EQ(adc.convert_ideal(5e-6), 255u);
}

TEST(SarAdc, QuantizationErrorBounded) {
  SarAdc adc({13, 1e-5, 0.0});
  for (double i = 0.0; i < 1e-5; i += 1.7e-8) {
    const auto code = adc.convert_ideal(i);
    EXPECT_NEAR(adc.current_from_code(code), i, adc.lsb_current());
  }
}

TEST(SarAdc, LsbMatchesResolution) {
  SarAdc adc({13, 8.192e-6, 0.0});
  EXPECT_NEAR(adc.lsb_current(), 8.192e-6 / 8192.0, 1e-15);
}

TEST(SarAdc, NoiseIsUnbiasedWithRequestedSigma) {
  SarAdc adc({13, 1e-5, 0.5});
  const fecim::util::NoiseStream stream(3, fecim::util::stream_site::kAdcNoise);
  const double input = 5e-6;
  fecim::util::RunningStats stats;
  for (std::uint64_t i = 0; i < 20000; ++i)
    stats.add(adc.current_from_code(adc.convert(input, stream.normal(i))));
  EXPECT_NEAR(stats.mean(), input, adc.lsb_current());
  // Total sigma ~ sqrt(noise^2 + quantization^2) LSB ~ 0.58 LSB.
  EXPECT_NEAR(stats.stddev(), 0.58 * adc.lsb_current(),
              0.15 * adc.lsb_current());
}

TEST(SarAdc, RejectsInvalidConfig) {
  EXPECT_THROW(SarAdc({0, 1e-6, 0.0}), fecim::contract_error);
  EXPECT_THROW(SarAdc({8, -1.0, 0.0}), fecim::contract_error);
}

TEST(BgDac, QuantizesToGridAndClamps) {
  const BgDac dac;  // 0..0.7 V, 10 mV steps
  EXPECT_NEAR(dac.quantize(0.333), 0.33, 1e-12);
  EXPECT_NEAR(dac.quantize(0.336), 0.34, 1e-12);
  EXPECT_DOUBLE_EQ(dac.quantize(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(dac.quantize(1.2), 0.7);
}

TEST(BgDac, LevelCountMatchesPaper) {
  const BgDac dac;
  EXPECT_EQ(dac.num_levels(), 71u);  // 0.00, 0.01, ..., 0.70
  EXPECT_DOUBLE_EQ(dac.level_voltage(0), 0.0);
  EXPECT_NEAR(dac.level_voltage(70), 0.7, 1e-12);
}

TEST(LineDriver, PolarityGating) {
  const LineDriver driver;
  EXPECT_DOUBLE_EQ(driver.drive(+1, +1), 1.0);
  EXPECT_DOUBLE_EQ(driver.drive(-1, +1), 0.0);
  EXPECT_DOUBLE_EQ(driver.drive(0, +1), 0.0);
  EXPECT_DOUBLE_EQ(driver.drive(-1, -1), 1.0);
}

TEST(ColumnMux, Grouping) {
  const ColumnMux mux;  // 8:1
  EXPECT_EQ(mux.group_of_column(0), 0u);
  EXPECT_EQ(mux.group_of_column(7), 0u);
  EXPECT_EQ(mux.group_of_column(8), 1u);
  EXPECT_EQ(mux.num_groups(17), 3u);
}

TEST(Parasitics, EstimateScalesWithLineLength) {
  const auto short_line = estimate_line_parasitics(64, 1e-6, 1.0);
  const auto long_line = estimate_line_parasitics(1024, 1e-6, 1.0);
  EXPECT_NEAR(long_line.line_resistance / short_line.line_resistance, 16.0,
              1e-9);
  EXPECT_GT(long_line.elmore_delay, short_line.elmore_delay * 200.0);
  // More cells -> more IR drop -> lower attenuation factor.
  EXPECT_LT(long_line.ir_attenuation, short_line.ir_attenuation);
}

TEST(Parasitics, AttenuationInUnitRange) {
  for (const std::size_t cells : {8u, 64u, 512u, 3000u}) {
    const double att = ir_attenuation_factor(cells, 1.0, 1e-5, 1.0);
    EXPECT_GT(att, 0.0);
    EXPECT_LE(att, 1.0);
  }
}

TEST(Parasitics, ZeroWireResistanceIsLossless) {
  EXPECT_DOUBLE_EQ(ir_attenuation_factor(100, 0.0, 1e-5, 1.0), 1.0);
}

TEST(Parasitics, MemoizedAttenuationEqualsDirectLadderSolve) {
  struct Case {
    std::size_t cells;
    double r, i, v;
  };
  const Case cases[] = {{64, 1.0, 1e-5, 1.0},
                        {800, 1.0, 1e-5, 0.1},
                        {1000, 1.0, 1e-5, 0.1},
                        {256, 0.5, 3e-6, 0.2}};
  for (const auto& c : cases) {
    const std::vector<double> currents(c.cells, c.i);
    const double direct = std::min(
        1.0, sense_column_current(currents, c.v, c.r) /
                 (c.i * static_cast<double>(c.cells)));
    const double first = ir_attenuation_factor(c.cells, c.r, c.i, c.v);
    EXPECT_EQ(first, direct) << c.cells;
    EXPECT_EQ(ir_attenuation_factor(c.cells, c.r, c.i, c.v), first);
  }
}

TEST(Parasitics, MemoDoesNotConflateDistinctInputs) {
  // Same ladder height and current; only the drive voltage or only the
  // wire resistance differs, so each must be its own solve.
  const double base = ir_attenuation_factor(512, 1.0, 1e-5, 1.0);
  const double low_drive = ir_attenuation_factor(512, 1.0, 1e-5, 0.25);
  const double high_r = ir_attenuation_factor(512, 2.0, 1e-5, 1.0);
  EXPECT_NE(base, low_drive);
  EXPECT_NE(base, high_r);
  EXPECT_EQ(ir_attenuation_factor(512, 1.0, 1e-5, 0.25), low_drive);
  EXPECT_EQ(ir_attenuation_factor(512, 2.0, 1e-5, 1.0), high_r);
  EXPECT_EQ(ir_attenuation_factor(512, 0.0, 1e-5, 1.0), 1.0);
}

TEST(Parasitics, ConcurrentMemoCallsAgreeWithSerial) {
  // Pool tasks hit the memo concurrently on shared and fresh keys.
  const std::size_t heights[] = {96, 160, 224};
  double serial[3];
  for (std::size_t k = 0; k < 3; ++k)
    serial[k] = ir_attenuation_factor(heights[k], 1.5, 2e-5, 0.5);
  std::vector<double> pooled(12, 0.0);
  fecim::util::parallel_for(
      pooled.size(),
      [&](std::size_t t) {
        pooled[t] = ir_attenuation_factor(heights[t % 3], 1.5, 2e-5, 0.5);
        // Fresh keys make the tasks insert concurrently.
        ir_attenuation_factor(300 + t, 1.5, 2e-5, 0.5);
      },
      4);
  for (std::size_t t = 0; t < pooled.size(); ++t)
    EXPECT_EQ(pooled[t], serial[t % 3]) << t;
}

TEST(Parasitics, AttenuationWorsensWithCurrentDensity) {
  const double light = ir_attenuation_factor(256, 1.0, 1e-7, 1.0);
  const double heavy = ir_attenuation_factor(256, 1.0, 1e-4, 1.0);
  EXPECT_GT(light, heavy);
  EXPECT_GT(light, 0.99);  // light loading ~ lossless
}

}  // namespace
