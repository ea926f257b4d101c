#include "sparse/mmio.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "sparse/coo.hpp"

namespace hspmv::sparse {
namespace {

TEST(Mmio, ReadGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 1 2.5\n"
      "1 3 -1\n"
      "2 2 3\n"
      "3 1 4\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(m.at(0, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 4.0);
}

TEST(Mmio, SymmetricExpansion) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 1.0\n"
      "2 1 5.0\n"
      "3 3 2.0\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 4);  // off-diagonal mirrored, diagonals once
  EXPECT_DOUBLE_EQ(m.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_TRUE(m.is_structurally_symmetric());
}

TEST(Mmio, PatternEntriesReadAsOne) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0);
}

TEST(Mmio, IntegerField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "2 2 7\n");
  EXPECT_DOUBLE_EQ(read_matrix_market(in).at(1, 1), 7.0);
}

TEST(Mmio, RejectsMissingBanner) {
  std::istringstream in("3 3 0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, RejectsArrayFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, RejectsComplexField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, RejectsOutOfRangeEntry) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, RejectsTruncatedStream) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, HugeDeclaredEntryCountIsAParseErrorNotAnAllocation) {
  // The size line claims 4e12 entries; the stream holds one. The reader
  // must not reserve for the claim (bad_alloc / length_error) but fail
  // with its own error when the entries run out.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 4000000000000\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)read_matrix_market(in), MatrixMarketError);
}

TEST(Mmio, HugeDeclaredSymmetricCountIsAParseError) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 4000000000000\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)read_matrix_market(in), MatrixMarketError);
}

TEST(Mmio, HugeDeclaredDimensionsAreAParseErrorNotAnAllocation) {
  // 2e9 x 2e9 with one entry: a row pointer sized by the header would
  // take 16 GB. The reader must reject the header before allocating.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2000000000 2000000000 1\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)read_matrix_market(in), MatrixMarketError);
}

TEST(Mmio, DimensionsJustAboveTheLimitAreRejected) {
  const std::string over = std::to_string(kMatrixMarketMaxDim + 1);
  for (const std::string& size : {over + " 1 1\n", "1 " + over + " 1\n"}) {
    std::istringstream in("%%MatrixMarket matrix coordinate real general\n" +
                          size + "1 1 1.0\n");
    EXPECT_THROW((void)read_matrix_market(in), MatrixMarketError) << size;
  }
}

TEST(Mmio, WriteReadRoundTrip) {
  CooBuilder b(4, 3);
  b.add(0, 0, 1.5);
  b.add(1, 2, -2.25);
  b.add(3, 1, 1e-9);
  const CsrMatrix original(4, 3, b.finish());
  std::stringstream buffer;
  write_matrix_market(buffer, original);
  const CsrMatrix reread = read_matrix_market(buffer);
  ASSERT_EQ(reread.rows(), original.rows());
  ASSERT_EQ(reread.cols(), original.cols());
  ASSERT_EQ(reread.nnz(), original.nnz());
  for (index_t i = 0; i < original.rows(); ++i) {
    for (index_t j = 0; j < original.cols(); ++j) {
      EXPECT_DOUBLE_EQ(reread.at(i, j), original.at(i, j));
    }
  }
}

TEST(Mmio, FileRoundTrip) {
  CooBuilder b(2, 2);
  b.add(0, 1, 3.0);
  const CsrMatrix m(2, 2, b.finish());
  const std::string path = ::testing::TempDir() + "/hspmv_mmio_test.mtx";
  write_matrix_market_file(path, m);
  const CsrMatrix r = read_matrix_market_file(path);
  EXPECT_DOUBLE_EQ(r.at(0, 1), 3.0);
}

TEST(Mmio, MissingFileThrows) {
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/path.mtx"),
               std::runtime_error);
}

}  // namespace
}  // namespace hspmv::sparse
