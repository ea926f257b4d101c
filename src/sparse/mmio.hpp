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

/// Parse a Matrix Market stream. Throws MatrixMarketError with a
/// line-numbered message on malformed input. The entry count of the size
/// line is not trusted for allocation: storage is reserved only for as
/// many entries as the rest of the stream can hold.
CsrMatrix read_matrix_market(std::istream& in);

/// Convenience file wrapper; throws on unopenable paths.
CsrMatrix read_matrix_market_file(const std::string& path);

/// Serialize as `matrix coordinate real general` with 1-based indices.
void write_matrix_market(std::ostream& out, const CsrMatrix& a);

void write_matrix_market_file(const std::string& path, const CsrMatrix& a);

}  // namespace hspmv::sparse
