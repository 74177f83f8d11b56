// Programming fan-out identity (crossbar/programmed_array.cpp).  The
// per-cell variation draw and the band-local column cache are built on the
// util pool; every accessor must equal the serial build they replaced, bit
// for bit:
//
//  * multipliers() and num_faulted_bit_cells() against a serial replica of
//    the per-cell draw (one scalar fault roll and V_TH normal per cell);
//  * every column-cache accessor against the serial build_column_cache loop
//    kept below, rebuilt from the public column(), bit_multiplier() and
//    bands() -- over ideal devices (classes dedup), the default variation,
//    both stuck-at rates above zero, two weight planes, several tile
//    heights (including bands with empty slots) and two bit widths;
//  * an array programmed inside a pool task (nested, so serial inline)
//    against one programmed with the top-level fan-out.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "crossbar/programmed_array.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace fecim;
using crossbar::ProgrammedArray;

struct Inputs {
  crossbar::QuantizedCouplings quantized;
  crossbar::CrossbarMapping mapping;
};

Inputs make_inputs(std::size_t n, problems::WeightScheme weights, int bits) {
  const auto model = problems::maxcut_to_ising(
      problems::random_graph(n, 9.0, weights, 1000 + n));
  crossbar::QuantizedCouplings quantized(model.couplings(), bits);
  const bool negative = quantized.has_negative();
  crossbar::CrossbarMapping mapping(model.num_spins(), negative ? 2 : 1,
                                    crossbar::MappingConfig{bits, 8, true});
  return Inputs{std::move(quantized), std::move(mapping)};
}

/// The serial per-cell variation draw, followed by the absent-bit zeroing.
std::vector<float> serial_multipliers(const ProgrammedArray& array,
                                      std::uint64_t seed,
                                      std::size_t& faulted) {
  const auto bits = static_cast<std::size_t>(array.couplings().bits());
  const auto& variation = array.variation_params();
  std::vector<float> mults(array.num_programmed_entries() * bits, 1.0F);
  faulted = 0;
  if (!variation.ideal()) {
    const util::NoiseStream fault(seed, util::stream_site::kCellFault);
    const util::NoiseStream vth(seed, util::stream_site::kCellVth);
    const auto& transistor = array.device_params().transistor;
    const double v_slope = transistor.slope_factor * transistor.thermal_voltage;
    for (std::size_t cell = 0; cell < mults.size(); ++cell) {
      const double roll = fault.uniform01(cell);
      if (roll < variation.stuck_off_rate) {
        mults[cell] = 0.0F;
        ++faulted;
        continue;
      }
      if (roll < variation.stuck_off_rate + variation.stuck_on_rate) {
        mults[cell] = 1.0F;
        ++faulted;
        continue;
      }
      if (variation.vth_sigma > 0.0) {
        const double dvth = vth.normal(cell, 0.0, variation.vth_sigma);
        mults[cell] = static_cast<float>(std::exp(-dvth / v_slope));
      }
    }
  }
  for (std::size_t j = 0; j < array.couplings().num_spins(); ++j) {
    const auto view = array.column(j);
    for (std::size_t k = 0; k < view.rows.size(); ++k) {
      const auto abs_mag =
          static_cast<std::uint32_t>(std::abs(view.magnitudes[k]));
      for (std::size_t b = 0; b < bits; ++b)
        if (!(abs_mag & (1u << b))) mults[(view.first_entry + k) * bits + b] = 0;
    }
  }
  return mults;
}

/// The column cache as the serial build laid it out.
struct SerialCache {
  std::vector<ProgrammedArray::SegmentRef> segments;
  std::vector<ProgrammedArray::SegmentClass> classes;
  std::vector<std::uint32_t> class_ptr;
  std::vector<std::uint32_t> cache_rows;
  std::vector<float> cache_mults;
  std::vector<double> class_weights;
  std::vector<std::uint32_t> present_count;
  std::vector<std::uint32_t> present_total;
  std::vector<std::uint32_t> present_union;
  std::vector<std::uint32_t> active_bands;
  std::vector<std::uint32_t> band_cell_ptr;
  std::vector<std::uint8_t> slot_src;
  std::vector<double> slot_weight;
  std::vector<std::uint32_t> slot_ptr;
};

SerialCache serial_column_cache(const ProgrammedArray& array) {
  const auto bits = static_cast<std::size_t>(array.couplings().bits());
  const std::size_t n = array.couplings().num_spins();
  const auto bands = array.bands();
  const std::size_t num_bands = bands.size();
  SerialCache c;
  c.segments.assign(num_bands * n * bits * 2, {});
  c.class_ptr.assign(num_bands * n + 1, 0);
  c.slot_ptr.assign(num_bands * n + 1, 0);
  c.present_count.assign(num_bands * n, 0);
  c.present_total.assign(n, 0);
  c.present_union.assign(n, 0);
  c.active_bands.assign(n, 0);
  c.band_cell_ptr.assign(n * (num_bands + 1), 0);

  for (std::size_t j = 0; j < n; ++j) {
    const auto view = array.column(j);
    auto* ptr = c.band_cell_ptr.data() + j * (num_bands + 1);
    std::size_t k = 0;
    for (std::size_t b = 0; b < num_bands; ++b) {
      ptr[b] = static_cast<std::uint32_t>(k);
      while (k < view.rows.size() && view.rows[k] < bands[b].row_end) ++k;
    }
    ptr[num_bands] = static_cast<std::uint32_t>(k);
  }

  std::vector<std::uint32_t> stage_rows;
  std::vector<float> stage_mults;
  std::vector<std::uint32_t> union_mask(n, 0);
  for (std::size_t band = 0; band < num_bands; ++band) {
    const std::uint32_t row0 = bands[band].row_begin;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t slot = band * n + j;
      const auto view = array.column(j);
      const auto* ptr = c.band_cell_ptr.data() + j * (num_bands + 1);
      const std::size_t class_base = c.classes.size();
      bool band_active = false;
      for (std::size_t b = 0; b < bits; ++b) {
        for (int plane = 0; plane < 2; ++plane) {
          stage_rows.clear();
          stage_mults.clear();
          bool present = false;
          bool all_unit = true;
          for (std::size_t k = ptr[band]; k < ptr[band + 1]; ++k) {
            const std::int32_t mag = view.magnitudes[k];
            const auto abs_mag = static_cast<std::uint32_t>(std::abs(mag));
            if (!(abs_mag & (1u << b))) continue;
            if ((mag < 0 ? 1 : 0) != plane) continue;
            present = true;
            const auto m = static_cast<float>(
                array.bit_multiplier(view.first_entry + k, static_cast<int>(b)));
            if (m == 0.0F) continue;
            stage_rows.push_back(view.rows[k] - row0);
            stage_mults.push_back(m);
            all_unit &= m == 1.0F;
          }
          auto& seg =
              c.segments[(slot * bits + b) * 2 + static_cast<std::size_t>(plane)];
          seg.present = present ? 1 : 0;
          if (!present) continue;
          band_active = true;
          union_mask[j] |= 1u << (b * 2 + static_cast<std::size_t>(plane));
          std::size_t cls = c.classes.size();
          for (std::size_t ci = class_base; ci < c.classes.size(); ++ci) {
            const auto& cand = c.classes[ci];
            const std::size_t len = cand.end - cand.begin;
            if (len != stage_rows.size()) continue;
            bool match = true;
            for (std::size_t e = 0; e < len && match; ++e)
              match = c.cache_rows[cand.begin + e] == stage_rows[e] &&
                      c.cache_mults[cand.begin + e] == stage_mults[e];
            if (match) {
              cls = ci;
              break;
            }
          }
          if (cls == c.classes.size()) {
            ProgrammedArray::SegmentClass fresh;
            fresh.begin = static_cast<std::uint32_t>(c.cache_rows.size());
            c.cache_rows.insert(c.cache_rows.end(), stage_rows.begin(),
                                stage_rows.end());
            c.cache_mults.insert(c.cache_mults.end(), stage_mults.begin(),
                                 stage_mults.end());
            fresh.end = static_cast<std::uint32_t>(c.cache_rows.size());
            fresh.all_unit = all_unit ? 1 : 0;
            c.classes.push_back(fresh);
            c.class_weights.push_back(0.0);
          }
          seg.cls = static_cast<std::uint8_t>(cls - class_base);
          c.class_weights[cls] +=
              (plane == 0 ? 1.0 : -1.0) * static_cast<double>(1u << b);
          ++c.present_count[slot];
          c.slot_src.push_back(static_cast<std::uint8_t>(
              static_cast<std::size_t>(plane) * bits + b));
          c.slot_weight.push_back((plane == 0 ? 1.0 : -1.0) *
                                  static_cast<double>(1u << b));
        }
      }
      c.class_ptr[slot + 1] = static_cast<std::uint32_t>(c.classes.size());
      c.slot_ptr[slot + 1] = static_cast<std::uint32_t>(c.slot_src.size());
      c.present_total[j] += c.present_count[slot];
      if (band_active) ++c.active_bands[j];
    }
  }
  for (std::size_t j = 0; j < n; ++j)
    c.present_union[j] =
        static_cast<std::uint32_t>(std::popcount(union_mask[j]));
  return c;
}

template <class T>
std::uint64_t bits_of(T value) {
  if constexpr (sizeof(T) == 4)
    return std::bit_cast<std::uint32_t>(value);
  else
    return std::bit_cast<std::uint64_t>(value);
}

void expect_multipliers_identical(const ProgrammedArray& array,
                                  std::uint64_t seed) {
  std::size_t faulted = 0;
  const auto expected = serial_multipliers(array, seed, faulted);
  const auto actual = array.multipliers();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(bits_of(actual[i]), bits_of(expected[i])) << "cell " << i;
  EXPECT_EQ(array.num_faulted_bit_cells(), faulted);
}

void expect_cache_identical(const ProgrammedArray& array) {
  const SerialCache c = serial_column_cache(array);
  const auto bits = static_cast<std::size_t>(array.couplings().bits());
  const std::size_t n = array.couplings().num_spins();
  const std::size_t num_bands = array.num_bands();

  ASSERT_EQ(array.cache_rows().size(), c.cache_rows.size());
  ASSERT_EQ(array.cache_multipliers().size(), c.cache_mults.size());
  for (std::size_t e = 0; e < c.cache_rows.size(); ++e) {
    ASSERT_EQ(array.cache_rows()[e], c.cache_rows[e]) << "entry " << e;
    ASSERT_EQ(bits_of(array.cache_multipliers()[e]), bits_of(c.cache_mults[e]))
        << "entry " << e;
  }
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(array.column_total_present_segments(j), c.present_total[j]);
    EXPECT_EQ(array.column_union_present_segments(j), c.present_union[j]);
    EXPECT_EQ(array.column_active_bands(j), c.active_bands[j]);
  }
  for (std::size_t band = 0; band < num_bands; ++band) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t slot = band * n + j;
      SCOPED_TRACE(::testing::Message() << "band " << band << " column " << j);
      const auto range = array.column_band_cells(band, j);
      const auto* ptr = c.band_cell_ptr.data() + j * (num_bands + 1);
      EXPECT_EQ(range.begin, ptr[band]);
      EXPECT_EQ(range.end, ptr[band + 1]);
      EXPECT_EQ(array.column_present_segments(band, j), c.present_count[slot]);

      const auto segments = array.column_segments(band, j);
      ASSERT_EQ(segments.size(), bits * 2);
      for (std::size_t s = 0; s < segments.size(); ++s) {
        EXPECT_EQ(segments[s].present, c.segments[slot * bits * 2 + s].present);
        EXPECT_EQ(segments[s].cls, c.segments[slot * bits * 2 + s].cls);
      }

      const auto classes = array.column_classes(band, j);
      const auto weights = array.column_class_weights(band, j);
      ASSERT_EQ(classes.size(), c.class_ptr[slot + 1] - c.class_ptr[slot]);
      ASSERT_EQ(weights.size(), classes.size());
      for (std::size_t ci = 0; ci < classes.size(); ++ci) {
        const auto& want = c.classes[c.class_ptr[slot] + ci];
        EXPECT_EQ(classes[ci].begin, want.begin);
        EXPECT_EQ(classes[ci].end, want.end);
        EXPECT_EQ(classes[ci].all_unit, want.all_unit);
        EXPECT_EQ(bits_of(weights[ci]),
                  bits_of(c.class_weights[c.class_ptr[slot] + ci]));
      }

      const auto src = array.column_slot_src(band, j);
      const auto slot_weights = array.column_slot_weights(band, j);
      ASSERT_EQ(src.size(), c.slot_ptr[slot + 1] - c.slot_ptr[slot]);
      ASSERT_EQ(slot_weights.size(), src.size());
      for (std::size_t s = 0; s < src.size(); ++s) {
        EXPECT_EQ(src[s], c.slot_src[c.slot_ptr[slot] + s]);
        EXPECT_EQ(bits_of(slot_weights[s]),
                  bits_of(c.slot_weight[c.slot_ptr[slot] + s]));
      }
    }
  }
}

struct Case {
  const char* name;
  problems::WeightScheme weights;
  int bits;
  device::VariationParams variation;
};

const Case kCases[] = {
    {"ideal unit", problems::WeightScheme::kUnit, 8, {0.0, 0.0, 0.0, 0.0}},
    {"ideal signed", problems::WeightScheme::kPlusMinusOne, 4,
     {0.0, 0.0, 0.0, 0.0}},
    {"default variation", problems::WeightScheme::kPlusMinusOne, 8,
     {0.03, 0.02, 0.0, 0.0}},
    {"stuck cells", problems::WeightScheme::kPlusMinusOne, 8,
     {0.03, 0.02, 0.2, 0.1}},
    {"stuck cells, no vth spread", problems::WeightScheme::kUnit, 4,
     {0.0, 0.02, 0.3, 0.05}},
};

// Monolithic, a height that leaves a remainder band, and bands so short
// that many (band, column) slots hold no cell.
const crossbar::TileShape kTiles[] = {{0, 0}, {96, 96}, {7, 7}};

TEST(ProgrammedArray, FanOutMatchesSerialBuild) {
  constexpr std::size_t kNodes = 520;
  constexpr std::uint64_t kSeed = 0xc0ffee;
  for (const auto& c : kCases) {
    const auto in = make_inputs(kNodes, c.weights, c.bits);
    for (const auto& tiles : kTiles) {
      SCOPED_TRACE(::testing::Message() << c.name << ", tile rows "
                                        << tiles.rows);
      const ProgrammedArray array(in.quantized, in.mapping,
                                  device::DgFefetParams{}, c.variation, kSeed,
                                  tiles);
      ASSERT_EQ(array.couplings().has_negative(),
                c.weights == problems::WeightScheme::kPlusMinusOne);
      expect_multipliers_identical(array, kSeed);
      expect_cache_identical(array);
    }
  }
}

TEST(ProgrammedArray, NestedBuildMatchesTopLevelFanOut) {
  const auto& c = kCases[3];  // stuck cells and V_TH spread, two planes
  const auto in = make_inputs(520, c.weights, c.bits);
  const crossbar::TileShape tiles{96, 96};
  const ProgrammedArray top(in.quantized, in.mapping, device::DgFefetParams{},
                            c.variation, 17, tiles);
  std::unique_ptr<ProgrammedArray> nested[2];
  util::parallel_for(
      2,
      [&](std::size_t i) {
        nested[i] = std::make_unique<ProgrammedArray>(
            in.quantized, in.mapping, device::DgFefetParams{}, c.variation, 17,
            tiles);
      },
      2);
  for (const auto& array : nested) {
    ASSERT_TRUE(array);
    ASSERT_EQ(array->multipliers().size(), top.multipliers().size());
    for (std::size_t i = 0; i < top.multipliers().size(); ++i)
      ASSERT_EQ(bits_of(array->multipliers()[i]), bits_of(top.multipliers()[i]));
    EXPECT_EQ(array->num_faulted_bit_cells(), top.num_faulted_bit_cells());
    expect_cache_identical(*array);
  }
  expect_cache_identical(top);
}

}  // namespace
