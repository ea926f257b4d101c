#include "sparse/binary_io.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace hspmv::sparse {
namespace {

constexpr char kMagic[8] = {'H', 'S', 'P', 'M', 'V', 'C', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_raw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void write_array(std::ostream& out, const T* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
T read_raw(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw BinaryFormatError("binary_io: truncated stream");
  return value;
}

/// Read `count` elements into `out`. `sized`: count was already checked
/// against the bytes the stream holds, so storage is sized once.
/// Otherwise it grows chunk by chunk as data arrives, so a header that
/// overstates the payload hits the truncation error before it can
/// allocate more than about twice what was read.
template <typename Vector>
void read_array(std::istream& in, Vector& out, std::size_t count,
                bool sized) {
  using T = typename Vector::value_type;
  const std::size_t chunk = sized ? count : std::size_t{1} << 20;
  out.clear();
  while (out.size() < count) {
    const std::size_t done = out.size();
    const std::size_t step = std::min(count - done, chunk);
    out.resize(done + step);
    in.read(reinterpret_cast<char*>(out.data() + done),
            static_cast<std::streamsize>(step * sizeof(T)));
    if (!in) throw BinaryFormatError("binary_io: truncated stream");
  }
}

/// Bytes left between the read position and the end of the stream, or -1
/// when the stream cannot seek.
std::int64_t bytes_left(std::istream& in) {
  const std::istream::pos_type unknown(-1);
  const std::istream::pos_type here = in.tellg();
  if (here == unknown) {
    in.clear();
    return -1;
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  if (end == unknown) return -1;
  return static_cast<std::int64_t>(end - here);
}

}  // namespace

void write_binary(std::ostream& out, const CsrMatrix& a) {
  out.write(kMagic, sizeof(kMagic));
  write_raw(out, kVersion);
  write_raw(out, a.rows());
  write_raw(out, a.cols());
  write_raw(out, a.nnz());
  write_array(out, a.row_ptr().data(), a.row_ptr().size());
  write_array(out, a.col_idx().data(), a.col_idx().size());
  write_array(out, a.val().data(), a.val().size());
  if (!out) throw std::runtime_error("binary_io: write failed");
}

void write_binary_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("binary_io: cannot open " + path);
  write_binary(out, a);
}

CsrMatrix read_binary(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw BinaryFormatError("binary_io: bad magic");
  }
  const auto version = read_raw<std::uint32_t>(in);
  if (version != kVersion) {
    throw BinaryFormatError("binary_io: unsupported version " +
                            std::to_string(version));
  }
  const auto rows = read_raw<index_t>(in);
  const auto cols = read_raw<index_t>(in);
  const auto nnz = read_raw<offset_t>(in);
  if (rows < 0 || cols < 0 || nnz < 0) {
    throw std::invalid_argument("binary_io: negative dimensions");
  }
  // The header is not trusted for allocation: the three arrays must fit
  // in what the stream still holds (checked up front when it can seek,
  // chunk by chunk in read_array otherwise).
  const std::int64_t left = bytes_left(in);
  const double payload =
      (static_cast<double>(rows) + 1.0) * sizeof(offset_t) +
      static_cast<double>(nnz) * (sizeof(index_t) + sizeof(value_t));
  if (left >= 0 && payload > static_cast<double>(left)) {
    throw BinaryFormatError(
        "binary_io: header claims " + std::to_string(rows) + " rows and " +
        std::to_string(nnz) + " nonzeros, stream holds " +
        std::to_string(left) + " payload bytes");
  }
  const bool sized = left >= 0;
  std::vector<offset_t> row_ptr;
  read_array(in, row_ptr, static_cast<std::size_t>(rows) + 1, sized);
  util::AlignedVector<index_t> col_idx;
  read_array(in, col_idx, static_cast<std::size_t>(nnz), sized);
  util::AlignedVector<value_t> val;
  read_array(in, val, static_cast<std::size_t>(nnz), sized);
  // The CsrMatrix constructor revalidates all invariants.
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(val));
}

CsrMatrix read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("binary_io: cannot open " + path);
  return read_binary(in);
}

}  // namespace hspmv::sparse
