// Matrix Market (coordinate) I/O — the interchange format of the sparse
// matrix collections the related work benchmarks against.
//
// Supported: `matrix coordinate (real|integer|pattern) (general|symmetric)`.
// Pattern entries read as 1.0; symmetric inputs are expanded to full
// storage on read. Writing always emits `real general`.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "sparse/csr.hpp"

namespace hspmv::sparse {

/// Malformed Matrix Market input; the message carries the line number.
class MatrixMarketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Largest row or column count read_matrix_market() accepts: 2^28
/// (268 M), about 12x the paper's largest matrix (sAMG, 22.8 M rows).
/// A CSR row pointer of this many rows takes 2 GiB.
inline constexpr index_t kMatrixMarketMaxDim = index_t{1} << 28;

/// Parse a Matrix Market stream. Throws MatrixMarketError with a
/// line-numbered message on malformed input. The size line is not
/// trusted for allocation: rows or columns above kMatrixMarketMaxDim
/// are rejected before anything is sized by them, and storage is
/// reserved only for as many entries as the rest of the stream can hold.
CsrMatrix read_matrix_market(std::istream& in);

/// Convenience file wrapper; throws on unopenable paths.
CsrMatrix read_matrix_market_file(const std::string& path);

/// Serialize as `matrix coordinate real general` with 1-based indices.
void write_matrix_market(std::ostream& out, const CsrMatrix& a);

void write_matrix_market_file(const std::string& path, const CsrMatrix& a);

}  // namespace hspmv::sparse
