#include "perfmodel/stream.hpp"

#include <gtest/gtest.h>

namespace hspmv::perfmodel {
namespace {

TEST(Stream, NominalBytes) {
  EXPECT_DOUBLE_EQ(stream_nominal_bytes_per_element(StreamKernel::kCopy),
                   16.0);
  EXPECT_DOUBLE_EQ(stream_nominal_bytes_per_element(StreamKernel::kTriad),
                   24.0);
}

TEST(Stream, WriteAllocateFactors) {
  EXPECT_DOUBLE_EQ(stream_write_allocate_factor(StreamKernel::kTriad),
                   4.0 / 3.0);
  EXPECT_DOUBLE_EQ(stream_write_allocate_factor(StreamKernel::kCopy),
                   3.0 / 2.0);
}

TEST(Stream, TriadProducesPlausibleBandwidth) {
  StreamOptions options;
  options.elements = 1u << 18;  // small: keep the test fast
  options.repetitions = 3;
  const StreamResult r = run_stream(StreamKernel::kTriad, options);
  // Any functioning machine moves between 0.1 and 1000 GB/s.
  EXPECT_GT(r.best_bytes_per_second, 1e8);
  EXPECT_LT(r.best_bytes_per_second, 1e12);
  EXPECT_GE(r.best_bytes_per_second, r.avg_bytes_per_second * 0.99);
  EXPECT_NEAR(r.effective_bytes_per_second,
              r.best_bytes_per_second * 4.0 / 3.0,
              r.best_bytes_per_second * 1e-9);
  EXPECT_EQ(r.array_bytes, (1u << 18) * sizeof(double));
}

TEST(Stream, AllKernelsRun) {
  StreamOptions options;
  options.elements = 1u << 14;
  options.repetitions = 2;
  for (const auto kernel : {StreamKernel::kCopy, StreamKernel::kScale,
                            StreamKernel::kAdd, StreamKernel::kTriad}) {
    EXPECT_GT(run_stream(kernel, options).best_bytes_per_second, 0.0);
  }
}

TEST(Stream, MultiThreadedRuns) {
  StreamOptions options;
  options.elements = 1u << 16;
  options.repetitions = 2;
  options.threads = 2;
  EXPECT_GT(run_stream(StreamKernel::kTriad, options).best_bytes_per_second,
            0.0);
}

TEST(Stream, ElementsBeyondLlc) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  // Four times the LLC per array while memory is plentiful.
  EXPECT_EQ(stream_elements_beyond_llc(32 * kMiB, 0),
            4 * 32 * kMiB / sizeof(double));
  EXPECT_EQ(stream_elements_beyond_llc(32 * kMiB, std::size_t{64} << 30),
            4 * 32 * kMiB / sizeof(double));
  // Unknown LLC: 64 MiB per array.
  EXPECT_EQ(stream_elements_beyond_llc(0, 0), 64 * kMiB / sizeof(double));
  // The three arrays fit in a quarter of MemAvailable.
  EXPECT_EQ(stream_elements_beyond_llc(256 * kMiB, 1200 * kMiB),
            100 * kMiB / sizeof(double));
  // Never fewer than one element.
  EXPECT_EQ(stream_elements_beyond_llc(32 * kMiB, 1), 1u);
}

TEST(Stream, InvalidOptionsThrow) {
  StreamOptions options;
  options.elements = 0;
  EXPECT_THROW((void)run_stream(StreamKernel::kTriad, options),
               std::invalid_argument);
  options.elements = 16;
  options.repetitions = 0;
  EXPECT_THROW((void)run_stream(StreamKernel::kTriad, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace hspmv::perfmodel
