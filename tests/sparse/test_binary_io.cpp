#include "sparse/binary_io.hpp"

#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "matgen/holstein.hpp"
#include "matgen/random_matrix.hpp"

namespace hspmv::sparse {
namespace {

void expect_identical(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t k = 0; k < a.col_idx().size(); ++k) {
    ASSERT_EQ(a.col_idx()[k], b.col_idx()[k]);
    ASSERT_EQ(a.val()[k], b.val()[k]);  // bit-exact
  }
}

TEST(BinaryIo, RoundTripBitExact) {
  const auto m = matgen::random_sparse(500, 7, 11);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, m);
  expect_identical(m, read_binary(buffer));
}

TEST(BinaryIo, RoundTripHamiltonian) {
  matgen::HolsteinHubbardParams p;
  p.sites = 4;
  p.electrons_up = 2;
  p.electrons_down = 2;
  p.phonon_modes = 3;
  p.max_phonons = 3;
  const auto m = matgen::holstein_hubbard(p);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, m);
  expect_identical(m, read_binary(buffer));
}

TEST(BinaryIo, FileRoundTrip) {
  const auto m = matgen::random_banded(200, 20, 5, 3);
  const std::string path = ::testing::TempDir() + "/hspmv_binary_test.bin";
  write_binary_file(path, m);
  expect_identical(m, read_binary_file(path));
}

TEST(BinaryIo, EmptyMatrix) {
  const CsrMatrix m(0, 0, std::vector<Triplet>{});
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, m);
  const auto r = read_binary(buffer);
  EXPECT_EQ(r.rows(), 0);
  EXPECT_EQ(r.nnz(), 0);
}

TEST(BinaryIo, BadMagicRejected) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  buffer << "NOTHSPMV garbage";
  EXPECT_THROW((void)read_binary(buffer), std::runtime_error);
}

TEST(BinaryIo, TruncatedStreamRejected) {
  const auto m = matgen::random_sparse(100, 5, 5);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, m);
  const std::string full = buffer.str();
  for (const std::size_t cut : {full.size() / 4, full.size() / 2,
                                full.size() - 8}) {
    std::stringstream truncated(full.substr(0, cut),
                                std::ios::in | std::ios::binary);
    EXPECT_THROW((void)read_binary(truncated), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(BinaryIo, CorruptedContentRejected) {
  const auto m = matgen::random_sparse(50, 4, 7);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, m);
  std::string bytes = buffer.str();
  // Smash a column index deep in the payload to an out-of-range value.
  const std::size_t col_region = 8 + 4 + 4 + 4 + 8 +
                                 (static_cast<std::size_t>(m.rows()) + 1) * 8;
  std::int32_t bogus = 1 << 30;
  std::memcpy(bytes.data() + col_region, &bogus, sizeof(bogus));
  std::stringstream corrupted(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW((void)read_binary(corrupted), std::invalid_argument);
}

/// A 36-byte stream: the 28-byte header claiming rows = 0 and `nnz`
/// nonzeros, then row_ptr = {0} — and no col_idx/val payload at all.
std::string overstated_header(std::int64_t nnz) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buffer, CsrMatrix(0, 0, std::vector<sparse::Triplet>{}));
  std::string bytes = buffer.str();
  EXPECT_EQ(bytes.size(), 36u);
  std::memcpy(bytes.data() + 20, &nnz, sizeof(nnz));  // the nnz field
  return bytes;
}

TEST(BinaryIo, OverstatedHeaderThrowsBeforeAllocating) {
  // 4e12 nonzeros would be 48 TB of col_idx + val: sizing the arrays from
  // the header would die in the allocator. The reader must bound the
  // claim by the bytes the stream holds and throw its typed error.
  std::stringstream in(overstated_header(4'000'000'000'000),
                       std::ios::in | std::ios::binary);
  EXPECT_THROW((void)read_binary(in), BinaryFormatError);
}

TEST(BinaryIo, OverstatedHeaderOnUnseekableStreamThrows) {
  // A stream that cannot report its length (a pipe) grows the arrays as
  // data arrives and runs into the truncation instead.
  class Unseekable : public std::stringbuf {
   public:
    explicit Unseekable(const std::string& bytes)
        : std::stringbuf(bytes, std::ios::in | std::ios::binary) {}

   protected:
    pos_type seekoff(off_type, std::ios::seekdir,
                     std::ios::openmode) override {
      return pos_type(off_type(-1));
    }
  };
  Unseekable buf(overstated_header(4'000'000'000'000));
  std::istream in(&buf);
  EXPECT_THROW((void)read_binary(in), BinaryFormatError);
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW((void)read_binary_file("/nonexistent/m.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace hspmv::sparse
