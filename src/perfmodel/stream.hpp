// STREAM-style bandwidth microbenchmarks (McCalpin), run for real on the
// host. The paper uses STREAM triad as the practical upper bandwidth
// limit against which spMVM bandwidth is judged (Fig. 3); we run the same
// kernels to calibrate the host-measured experiments.
#pragma once

#include <cstddef>

namespace hspmv::team {
class ThreadTeam;
}

namespace hspmv::perfmodel {

enum class StreamKernel {
  kCopy,   // c = a            (2 streams + write-allocate)
  kScale,  // b = s * c        (2 streams + write-allocate)
  kAdd,    // c = a + b        (3 streams + write-allocate)
  kTriad,  // a = b + s * c    (3 streams + write-allocate)
};

struct StreamResult {
  double best_bytes_per_second = 0.0;  ///< best repetition, nominal traffic
  double avg_bytes_per_second = 0.0;
  /// Nominal traffic scaled by the write-allocate factor the paper applies
  /// (x 4/3 for triad: 2 reads + 1 store + 1 write-allocate read).
  double effective_bytes_per_second = 0.0;
  std::size_t array_bytes = 0;
  int repetitions = 0;
};

struct StreamOptions {
  /// Elements per array; default ~ 10 MB/array, beyond any host LLC.
  std::size_t elements = 1u << 20;
  int repetitions = 10;
  int threads = 1;
};

/// Run one STREAM kernel; touches memory first (NUMA first-touch through
/// the team when threads > 1, matching the paper's placement strategy).
StreamResult run_stream(StreamKernel kernel, const StreamOptions& options);

/// Size of the host's last-level data cache as sysfs reports it for
/// cpu0, or 0 when the host does not say.
std::size_t host_llc_bytes();

/// MemAvailable from /proc/meminfo in bytes, or 0 when it is not there.
std::size_t host_mem_available_bytes();

/// STREAM array length, in elements, that keeps every array 4x beyond
/// the LLC (64 MiB per array when the LLC is unknown, llc_bytes = 0).
/// Capped so the three arrays take at most a quarter of
/// `mem_available_bytes` (no cap when it is 0); at least 1 element.
std::size_t stream_elements_beyond_llc(std::size_t llc_bytes,
                                       std::size_t mem_available_bytes);

/// Nominal bytes moved per element by a kernel (without write-allocate).
double stream_nominal_bytes_per_element(StreamKernel kernel);

/// Multiplicative write-allocate correction (e.g. 4/3 for triad/add, 3/2
/// for copy/scale).
double stream_write_allocate_factor(StreamKernel kernel);

}  // namespace hspmv::perfmodel
