#include "spmv/retry.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/prng.hpp"

namespace hspmv::spmv {

double RetryPolicy::backoff_seconds(int attempt, int rank) const {
  const int k = std::max(attempt, 1);
  double backoff = base_backoff_seconds;
  for (int i = 1; i < k; ++i) backoff *= backoff_multiplier;
  backoff = std::min(backoff, max_backoff_seconds);
  // splitmix64 spreads (seed, attempt, rank) into uncorrelated jitter.
  const std::uint64_t bits = util::splitmix64(
      jitter_seed ^ util::splitmix64(static_cast<std::uint64_t>(k)) ^
      util::splitmix64(static_cast<std::uint64_t>(rank) + 0x51ull));
  const double fraction =
      static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
  return backoff + fraction * base_backoff_seconds;
}

RetryPolicy RetryPolicy::parse(const std::string& spec) {
  RetryPolicy policy;
  if (spec.empty() || spec == "off") return policy;
  policy.enabled = true;
  if (spec == "on") return policy;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', begin), spec.size());
    const std::string item = spec.substr(begin, comma - begin);
    begin = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("retry policy: expected key=value, got '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    try {
      if (key == "attempts") {
        policy.max_attempts = std::stoi(value);
      } else if (key == "base") {
        policy.base_backoff_seconds = std::stod(value);
      } else if (key == "multiplier") {
        policy.backoff_multiplier = std::stod(value);
      } else if (key == "max") {
        policy.max_backoff_seconds = std::stod(value);
      } else if (key == "timeout") {
        policy.exchange_timeout_seconds = std::stod(value);
      } else if (key == "seed") {
        policy.jitter_seed = std::stoull(value);
      } else {
        throw std::invalid_argument("retry policy: unknown key '" + key +
                                    "'");
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      throw std::invalid_argument("retry policy: malformed value in '" +
                                  item + "'");
    }
  }
  if (policy.max_attempts < 1) {
    throw std::invalid_argument("retry policy: attempts must be >= 1");
  }
  return policy;
}

}  // namespace hspmv::spmv
