// One rank's distributed engine shape, built through the public API the
// way an application sets up: partition_rows, the DistMatrix ctor, the
// SpmvEngine ctor and two first-touched work vectors — each step inside
// its own span, so the traced run can split set-up time by layer.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "spmv/partition.hpp"
#include "trace.hpp"

namespace e2e {

struct Shape {
  std::unique_ptr<hspmv::spmv::DistMatrix> dist;
  std::unique_ptr<hspmv::spmv::SpmvEngine> engine;
  std::optional<hspmv::spmv::DistVector> x, y;

  void reset() {
    x.reset();
    y.reset();
    engine.reset();
    dist.reset();
  }

  /// Collective over `comm`. CRS backend, autotuner off.
  void build(const hspmv::minimpi::Comm& comm,
             const hspmv::sparse::CsrMatrix& global, int threads,
             hspmv::spmv::Variant variant, Tracer* tracer) {
    namespace spmv = hspmv::spmv;
    reset();
    std::vector<hspmv::sparse::index_t> bounds;
    {
      Tracer::Scope span(tracer, "spmv.partition_rows");
      bounds = spmv::partition_rows(global, comm.size(),
                                    spmv::PartitionStrategy::kBalancedNonzeros);
    }
    {
      Tracer::Scope span(tracer, "spmv.DistMatrix");
      dist = std::make_unique<spmv::DistMatrix>(comm, global, bounds);
    }
    {
      Tracer::Scope span(tracer, "spmv.SpmvEngine");
      engine = std::make_unique<spmv::SpmvEngine>(*dist, threads, variant,
                                                  crs_engine_options());
    }
    Tracer::Scope span(tracer, "spmv.make_vector");
    x.emplace(engine->make_vector());
    y.emplace(engine->make_vector());
  }

  [[nodiscard]] hspmv::solvers::Operator op(OperatorProbe* probe) {
    return make_probed_operator(*engine, *dist, *x, *y, probe);
  }
};

}  // namespace e2e
