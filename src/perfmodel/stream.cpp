#include "perfmodel/stream.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "team/thread_team.hpp"
#include "util/aligned.hpp"
#include "util/timer.hpp"

namespace hspmv::perfmodel {

namespace {

/// "32K" / "2048K" / "300M" as sysfs writes cache sizes.
std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
  }
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) return value << 10;
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) return value << 20;
  if (i < text.size() && (text[i] == 'G' || text[i] == 'g')) return value << 30;
  return value;
}

}  // namespace

std::size_t host_mem_available_bytes() {
  std::ifstream meminfo("/proc/meminfo");
  std::string key;
  std::size_t kb = 0;
  std::string unit;
  while (meminfo >> key >> kb >> unit) {
    if (key == "MemAvailable:") return kb << 10;
  }
  return 0;
}

std::size_t host_llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    std::ifstream type_file(dir + "/type");
    int level = 0;
    std::string size, type;
    if (!(level_file >> level) || !(size_file >> size)) continue;
    type_file >> type;
    if (type == "Instruction") continue;
    if (level >= best_level) {
      best_level = level;
      best = parse_cache_size(size);
    }
  }
  return best;
}

std::size_t stream_elements_beyond_llc(std::size_t llc_bytes,
                                       std::size_t mem_available_bytes) {
  std::size_t array_bytes =
      llc_bytes > 0 ? 4 * llc_bytes : std::size_t{64} << 20;
  if (mem_available_bytes > 0) {
    array_bytes = std::min(array_bytes, mem_available_bytes / 4 / 3);
  }
  return std::max<std::size_t>(array_bytes / sizeof(double), 1);
}

double stream_nominal_bytes_per_element(StreamKernel kernel) {
  switch (kernel) {
    case StreamKernel::kCopy:
    case StreamKernel::kScale:
      return 16.0;  // one load + one store of 8 B
    case StreamKernel::kAdd:
    case StreamKernel::kTriad:
      return 24.0;  // two loads + one store
  }
  return 0.0;
}

double stream_write_allocate_factor(StreamKernel kernel) {
  switch (kernel) {
    case StreamKernel::kCopy:
    case StreamKernel::kScale:
      return 3.0 / 2.0;  // (1 load + 1 WA + 1 store) / (1 load + 1 store)
    case StreamKernel::kAdd:
    case StreamKernel::kTriad:
      return 4.0 / 3.0;  // (2 loads + 1 WA + 1 store) / 3
  }
  return 1.0;
}

StreamResult run_stream(StreamKernel kernel, const StreamOptions& options) {
  if (options.elements == 0 || options.repetitions < 1 ||
      options.threads < 1) {
    throw std::invalid_argument("run_stream: bad options");
  }
  const std::size_t n = options.elements;
  util::AlignedVector<double> a(n), b(n), c(n);

  team::ThreadTeam pool(options.threads);
  const double scalar = 3.0;

  // First touch in the same distribution as the kernel loops (the
  // NUMA-aware placement the paper relies on; a no-op on UMA hosts).
  pool.parallel_for(0, static_cast<std::int64_t>(n),
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        a[static_cast<std::size_t>(i)] = 1.0;
                        b[static_cast<std::size_t>(i)] = 2.0;
                        c[static_cast<std::size_t>(i)] = 0.5;
                      }
                    });

  const auto body = [&](std::int64_t lo, std::int64_t hi) {
    switch (kernel) {
      case StreamKernel::kCopy:
        for (std::int64_t i = lo; i < hi; ++i) {
          c[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)];
        }
        break;
      case StreamKernel::kScale:
        for (std::int64_t i = lo; i < hi; ++i) {
          b[static_cast<std::size_t>(i)] =
              scalar * c[static_cast<std::size_t>(i)];
        }
        break;
      case StreamKernel::kAdd:
        for (std::int64_t i = lo; i < hi; ++i) {
          c[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] +
                                           b[static_cast<std::size_t>(i)];
        }
        break;
      case StreamKernel::kTriad:
        for (std::int64_t i = lo; i < hi; ++i) {
          a[static_cast<std::size_t>(i)] =
              b[static_cast<std::size_t>(i)] +
              scalar * c[static_cast<std::size_t>(i)];
        }
        break;
    }
  };

  const double nominal =
      stream_nominal_bytes_per_element(kernel) * static_cast<double>(n);
  StreamResult result;
  result.array_bytes = n * sizeof(double);
  result.repetitions = options.repetitions;
  double best_seconds = std::numeric_limits<double>::infinity();
  double total_seconds = 0.0;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    util::Timer timer;
    pool.parallel_for(0, static_cast<std::int64_t>(n), body);
    const double s = timer.seconds();
    best_seconds = s < best_seconds ? s : best_seconds;
    total_seconds += s;
  }
  result.best_bytes_per_second = nominal / best_seconds;
  result.avg_bytes_per_second =
      nominal * options.repetitions / total_seconds;
  result.effective_bytes_per_second =
      result.best_bytes_per_second * stream_write_allocate_factor(kernel);
  return result;
}

}  // namespace hspmv::perfmodel
