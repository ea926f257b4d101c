// Negative fixture for hspmv-check: determinism-policy on block sums.
//
// Analyzed by tests/analysis/test_hspmv_check.cpp; never compiled.
// team_fused_dot is a registered pinned helper: its block-partial sum is
// the documented order and stays silent. The same loop under any other
// name is an ad-hoc reduction and must still fire.
#include <cstddef>
#include <vector>

namespace fixture {

double team_fused_dot(const std::vector<double>& partial) {
  double sum = partial[0];
  for (std::size_t b = 1; b < partial.size(); ++b) sum += partial[b];
  return sum;
}

double team_block_sum(const std::vector<double>& partial) {
  double sum = partial[0];
  for (std::size_t b = 1; b < partial.size(); ++b) sum += partial[b];
  return sum;
}

}  // namespace fixture
