#include "sparse/mmio.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hspmv::sparse {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw MatrixMarketError("matrix market, line " + std::to_string(line) +
                          ": " + message);
}

/// How many of `declared` entries the rest of `in` can hold: every entry
/// line takes at least "i j\n", 4 bytes. A stream that cannot report its
/// length gets a fixed cap; the builder grows past it if the entries are
/// really there.
std::int64_t entries_that_fit(std::istream& in, std::int64_t declared) {
  constexpr std::int64_t kMinEntryBytes = 4;
  constexpr std::int64_t kUnsizedCap = std::int64_t{1} << 20;
  const std::istream::pos_type unknown(-1);
  const std::istream::pos_type here = in.tellg();
  std::istream::pos_type end = unknown;
  if (here != unknown) {
    in.seekg(0, std::ios::end);
    end = in.tellg();
    in.clear();
    in.seekg(here);
  }
  in.clear();
  if (end == unknown) return std::min(declared, kUnsizedCap);
  const std::int64_t left = static_cast<std::int64_t>(end - here);
  return std::min(declared, left / kMinEntryBytes + 1);
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  std::size_t line_number = 0;

  if (!std::getline(in, line)) fail(1, "empty stream");
  ++line_number;
  std::istringstream banner(line);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (tag != "%%MatrixMarket") fail(line_number, "missing banner");
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  if (object != "matrix" || format != "coordinate") {
    fail(line_number, "only 'matrix coordinate' is supported");
  }
  const bool pattern = field == "pattern";
  if (field != "real" && field != "integer" && !pattern) {
    fail(line_number, "unsupported field: " + field);
  }
  const bool symmetric = symmetry == "symmetric";
  if (symmetry != "general" && !symmetric) {
    fail(line_number, "unsupported symmetry: " + symmetry);
  }

  // Skip comments, read the size line.
  index_t rows = 0, cols = 0;
  std::int64_t entries = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line[0] == '%') continue;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream sizes(line);
    if (!(sizes >> rows >> cols >> entries)) {
      fail(line_number, "malformed size line");
    }
    break;
  }
  if (rows <= 0 || cols <= 0 || entries < 0) {
    fail(line_number, "invalid dimensions");
  }
  if (rows > kMatrixMarketMaxDim || cols > kMatrixMarketMaxDim) {
    fail(line_number, "dimensions " + std::to_string(rows) + " x " +
                          std::to_string(cols) + " exceed the limit of " +
                          std::to_string(kMatrixMarketMaxDim));
  }

  CooBuilder builder(rows, cols);
  const std::int64_t fit = entries_that_fit(in, entries);
  builder.reserve(static_cast<std::size_t>(symmetric ? 2 * fit : fit));
  std::int64_t seen = 0;
  while (seen < entries) {
    if (!std::getline(in, line)) {
      fail(line_number, "unexpected end of stream (" + std::to_string(seen) +
                            "/" + std::to_string(entries) + " entries)");
    }
    ++line_number;
    if (!line.empty() && line[0] == '%') continue;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream entry(line);
    std::int64_t i = 0, j = 0;
    double v = 1.0;
    if (!(entry >> i >> j)) fail(line_number, "malformed entry");
    if (!pattern && !(entry >> v)) fail(line_number, "missing value");
    if (i < 1 || i > rows || j < 1 || j > cols) {
      fail(line_number, "entry index out of range");
    }
    const auto r = static_cast<index_t>(i - 1);
    const auto c = static_cast<index_t>(j - 1);
    if (symmetric) {
      builder.add_symmetric(r, c, v);
    } else {
      builder.add(r, c, v);
    }
    ++seen;
  }
  return CsrMatrix(rows, cols, builder.finish());
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by hspmv\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto val = a.val();
  out.precision(17);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (offset_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      out << (i + 1) << ' ' << (col_idx[static_cast<std::size_t>(k)] + 1)
          << ' ' << val[static_cast<std::size_t>(k)] << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_matrix_market(out, a);
}

}  // namespace hspmv::sparse
