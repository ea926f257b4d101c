// Negative fixture for hspmv-check: divergent-collective.
//
// Analyzed by tests/analysis/test_hspmv_check.cpp; never compiled. Both
// flagged shapes are present, (A) also for the in-place gatherv: a rank-conditional branch whose collective
// set differs from its (absent) sibling, and a rank-dependent early
// return with a collective still ahead in the function.
#include "minimpi/comm.hpp"

namespace fixture {

// Shape (A): only rank 0 enters the barrier; everyone else sails past
// and the barrier never completes.
void lopsided_barrier(minimpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.barrier();
  }
}

// Shape (B): rank 0 leaves before the allreduce every other rank joins.
long long early_exit(minimpi::Comm& comm, long long value) {
  if (comm.rank() == 0) {
    return value;
  }
  return comm.allreduce(value, minimpi::ReduceOp::kSum);
}

// Elastic shape (A): spawn is a collective rendezvous too — ranks that
// skip it strand the growers (and the joiners never start).
void lopsided_spawn(minimpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.spawn(1, [](minimpi::Comm&) {});
  }
}

// In-place gatherv: MPI_Gatherv semantics make every rank a sender, so
// gathering only on the root strands the other ranks' slices.
void root_only_gatherv(minimpi::Comm& comm, std::span<const double> mine,
                       std::span<double> all) {
  if (comm.rank() == 0) {
    comm.gatherv(mine, all, 0);
  }
}

}  // namespace fixture
