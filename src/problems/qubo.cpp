#include "problems/qubo.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "problems/instance_io.hpp"
#include "problems/multistart.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fecim::problems {

namespace {

/// The optional directives and the "<n> <nnz>" header ahead of the triplets.
struct QuboHeader {
  bool maximize = false;
  double constant = 0.0;
  std::size_t n = 0;
  std::size_t nnz = 0;
};

QuboHeader read_header(io::LineParser& parser, const std::string& context) {
  // Optional directives ahead of the header, in any order.
  QuboHeader header;
  for (;;) {
    if (!parser.next())
      throw contract_error(context + ": empty input (expected '<n> <nnz>')");
    if (parser.field(0) == "minimize" || parser.field(0) == "maximize") {
      parser.require_fields(1, 1);
      header.maximize = parser.field(0) == "maximize";
      continue;
    }
    if (parser.field(0) == "constant") {
      parser.require_fields(2, 2);
      header.constant = parser.number(1);
      continue;
    }
    break;
  }

  parser.require_fields(2, 2);
  header.n = parser.index(0);
  header.nnz = parser.index(1);
  if (header.n == 0) parser.fail("QUBO must have at least one variable");
  return header;
}

/// One triplet, 0-indexed and canonicalized onto the upper triangle.
struct QuboEntry {
  std::size_t i;
  std::size_t j;
  double q;
};

/// Reads triplet `k` of `header.nnz`, leaving the parser on its line.
QuboEntry read_entry(io::LineParser& parser, const QuboHeader& header,
                     std::size_t k) {
  if (!parser.next())
    parser.fail_truncated(std::to_string(header.nnz) + " triplets, got " +
                          std::to_string(k));
  parser.require_fields(3, 3);
  std::size_t i = parser.index(0);
  std::size_t j = parser.index(1);
  const double q = parser.number(2);
  if (i < 1 || i > header.n || j < 1 || j > header.n)
    parser.fail("variable index out of range [1, " +
                std::to_string(header.n) + "]");
  // Duplicates and mirrored entries accumulate (the Builder merges by
  // summation).
  if (i > j) std::swap(i, j);
  return {i - 1, j - 1, q};
}

/// Called when merging `text`'s triplets into `q` overflowed: re-reads them,
/// summing each coordinate in insertion order as CsrMatrix::Builder does,
/// and fails on the line whose entry first makes a sum non-finite.  Only
/// the failure path pays for the second pass.
[[noreturn]] void fail_on_overflowing_entry(std::string_view text,
                                            const std::string& context,
                                            const linalg::CsrMatrix& q) {
  io::LineParser parser(text, context);
  const auto header = read_header(parser, context);
  // One running sum per stored nonzero of q, in CSR order.  A coordinate
  // missing from q cancelled to exactly 0, so it never overflowed.
  std::vector<double> sums(q.nonzeros(), 0.0);
  const double* const first_value = q.row_values(0).data();
  for (std::size_t k = 0; k < header.nnz; ++k) {
    const auto entry = read_entry(parser, header, k);
    const auto cols = q.row_cols(entry.i);
    const auto col = std::lower_bound(cols.begin(), cols.end(), entry.j);
    if (col == cols.end() || *col != entry.j) continue;
    double& sum = sums[static_cast<std::size_t>(
        q.row_values(entry.i).data() - first_value + (col - cols.begin()))];
    sum += entry.q;
    if (!std::isfinite(sum))
      parser.fail("entries at (" + std::to_string(entry.i + 1) + ", " +
                  std::to_string(entry.j + 1) +
                  ") sum to a non-finite value");
  }
  throw contract_error(context + ": QUBO entries sum to a non-finite value");
}

QuboInstance read_qubo_impl(std::string_view text,
                            const std::string& context) {
  io::LineParser parser(text, context);
  const auto header = read_header(parser, context);
  linalg::CsrMatrix::Builder builder(header.n, header.n);
  for (std::size_t k = 0; k < header.nnz; ++k) {
    const auto entry = read_entry(parser, header, k);
    builder.add(entry.i, entry.j, entry.q);
  }
  if (parser.next())
    parser.fail("trailing content after " + std::to_string(header.nnz) +
                " triplets");

  auto q = builder.build();
  // Every entry is finite (LineParser::number), so a non-finite value is a
  // merge that overflowed.
  for (std::size_t r = 0; r < q.rows(); ++r)
    for (const double v : q.row_values(r))
      if (!std::isfinite(v)) fail_on_overflowing_entry(text, context, q);
  return QuboInstance{ising::QuboModel(std::move(q), header.constant),
                      header.maximize};
}

}  // namespace

QuboInstance read_qubo(std::istream& in, const std::string& context) {
  // Buffered whole: an overflow diagnostic re-reads the triplets.
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  return read_qubo_impl(text, context);
}

QuboInstance read_qubo(std::string_view text, const std::string& context) {
  return read_qubo_impl(text, context);
}

QuboInstance read_qubo_file(const std::string& path) {
  return io::read_file(path, "qubo",
                       [](auto&& in, const std::string& context) {
                         return read_qubo(in, context);
                       });
}

void write_qubo(const QuboInstance& instance, std::ostream& out) {
  const auto previous =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << (instance.maximize ? "maximize" : "minimize") << '\n';
  if (instance.model.constant() != 0.0)
    out << "constant " << instance.model.constant() << '\n';
  const auto& q = instance.model.q();
  out << q.rows() << ' ' << q.nonzeros() << '\n';
  for (std::size_t r = 0; r < q.rows(); ++r) {
    const auto cols = q.row_cols(r);
    const auto values = q.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      out << (r + 1) << ' ' << (cols[k] + 1) << ' ' << values[k] << '\n';
  }
  out.precision(previous);
}

void write_qubo_file(const QuboInstance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw contract_error("qubo: cannot open " + path + " for write");
  write_qubo(instance, out);
}

QuboInstance random_qubo(std::size_t variables, double avg_degree,
                         std::uint64_t seed) {
  FECIM_EXPECTS(variables > 0);
  FECIM_EXPECTS(avg_degree >= 0.0);
  util::Rng rng(seed);
  linalg::CsrMatrix::Builder builder(variables, variables);
  for (std::size_t i = 0; i < variables; ++i)
    builder.add(i, i, rng.uniform(-1.0, 1.0));

  const auto target = static_cast<std::size_t>(
      std::min(avg_degree * static_cast<double>(variables) / 2.0,
               static_cast<double>(variables) *
                   static_cast<double>(variables - 1) / 2.0));
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(target * 2);
  while (seen.size() < target) {
    auto u = rng.uniform_index(variables);
    auto v = rng.uniform_index(variables);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert((u << 32) | v).second) continue;
    builder.add(static_cast<std::size_t>(u), static_cast<std::size_t>(v),
                rng.uniform(-1.0, 1.0));
  }
  return QuboInstance{ising::QuboModel(builder.build()), false};
}

double qubo_reference_value(const ising::QuboModel& model, bool maximize,
                            std::size_t restarts, std::uint64_t seed) {
  // value(x) == to_ising().energy(spins_from_binary(x)) exactly, so the
  // descent runs on the Ising form's O(degree) delta_energy.
  const auto ising_model = model.to_ising();
  const std::size_t n = ising_model.num_spins();
  return best_of_random_restarts(
      n, restarts, seed, maximize, [&](ising::SpinVector& spins) {
        double energy = ising_model.energy(spins);
        bool improved = true;
        for (std::size_t pass = 0; improved && pass < 200; ++pass) {
          improved = false;
          for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t flip[1] = {i};
            const double delta = ising_model.delta_energy(spins, flip);
            if (maximize ? delta > 1e-12 : delta < -1e-12) {
              spins[i] = static_cast<ising::Spin>(-spins[i]);
              energy += delta;
              improved = true;
            }
          }
        }
        return energy;
      });
}

}  // namespace fecim::problems
