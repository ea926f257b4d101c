// Fast binary CSR serialization — caching full-size generated matrices
// (the 6.2M/22.8M-row instances take minutes to build but seconds to
// load) and moving matrices between tools without Matrix Market's text
// overhead.
//
// Format: little-endian, fixed-width header
//   magic "HSPMVCSR" (8 bytes) | version u32 | rows i32 | cols i32 |
//   nnz i64 | row_ptr[rows+1] i64 | col_idx[nnz] i32 | val[nnz] f64
// The reader validates the structural invariants like the CsrMatrix
// constructor does, so a corrupted file cannot produce an inconsistent
// matrix.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "sparse/csr.hpp"

namespace hspmv::sparse {

/// Malformed binary stream: bad magic or version, truncation, or a
/// header whose sizes the stream cannot hold.
class BinaryFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void write_binary(std::ostream& out, const CsrMatrix& a);
void write_binary_file(const std::string& path, const CsrMatrix& a);

/// Throws BinaryFormatError (a std::runtime_error) on bad magic/version,
/// truncation, or header sizes the stream cannot hold — checked before
/// anything is allocated — and std::invalid_argument on structurally
/// invalid content.
CsrMatrix read_binary(std::istream& in);
CsrMatrix read_binary_file(const std::string& path);

}  // namespace hspmv::sparse
