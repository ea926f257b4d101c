// EXP-F3 — reproduces Fig. 3: node-level performance of the test systems.
//
//  (a) Intel Nehalem EP: STREAM triad bandwidth, spMVM bandwidth and
//      spMVM performance (HMeP) for 1..4 cores and the full node —
//      the paper's ladder 0.91 / 1.50 / 1.95 / 2.25 / 4.29 GFlop/s.
//  (b) Intel Westmere EP and AMD Magny Cours: same sweep over 1..6 cores,
//      one LD, one AMD socket (2 LDs), full node.
//
// The machine curves come from the calibrated saturation model; a real
// STREAM triad measured on *this* host is printed for reference.

#include <cstdio>

#include "machine/node_spec.hpp"
#include "perfmodel/code_balance.hpp"
#include "perfmodel/stream.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace hspmv;

void sweep(const machine::NodeSpec& node, double nnzr, double kappa) {
  const double balance = perfmodel::crs_code_balance(nnzr, kappa);
  const auto spmv_curve = node.spmv_curve();
  const auto stream_curve = node.stream_curve();

  std::printf("--- %s (Nnzr = %.0f, kappa = %.2f, B_CRS = %.2f B/F) ---\n",
              node.name.c_str(), nnzr, kappa, balance);
  util::Table table({"cores", "STREAM triad [GB/s]", "spMVM bw [GB/s]",
                     "spMVM perf [GFlop/s]"});
  util::PlotSeries perf_series{"spMVM performance", {}, {}, '#'};
  for (int c = 1; c <= node.cores_per_domain; ++c) {
    const double bw = spmv_curve.value(c);
    table.add_row({util::Table::cell(static_cast<std::int64_t>(c)),
                   util::Table::cell(stream_curve.value(c) / 1e9, 1),
                   util::Table::cell(bw / 1e9, 1),
                   util::Table::cell(bw / balance / 1e9, 2)});
    perf_series.x.push_back(c);
    perf_series.y.push_back(bw / balance / 1e9);
  }
  // Aggregates: one socket/LD, then the full node.
  const double domain_bw = spmv_curve.value(node.cores_per_domain);
  const double node_bw = domain_bw * node.numa_domains;
  table.add_row({"1 LD",
                 util::Table::cell(
                     stream_curve.value(node.cores_per_domain) / 1e9, 1),
                 util::Table::cell(domain_bw / 1e9, 1),
                 util::Table::cell(domain_bw / balance / 1e9, 2)});
  table.add_row({"1 node",
                 util::Table::cell(stream_curve.value(node.cores_per_domain) *
                                       node.numa_domains / 1e9,
                                   1),
                 util::Table::cell(node_bw / 1e9, 1),
                 util::Table::cell(node_bw / balance / 1e9, 2)});
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "  kappa = 0 bound: %.2f GFlop/s per LD (paper Sect. 2: 2.66 for "
      "Nehalem)\n\n",
      perfmodel::performance_bound(node.spmv_bw_domain,
                                   perfmodel::crs_code_balance(nnzr, 0.0)) /
          1e9);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("fig3_node_level",
                      "Fig. 3 — node-level performance (model + host "
                      "STREAM)");
  cli.add_flag("skip-host-stream", "skip the real STREAM measurement");
  if (!cli.parse(argc, argv)) return 1;

  std::printf("Fig. 3 — node-level STREAM and spMVM performance (HMeP)\n\n");
  std::printf("(a) Intel Nehalem EP\n");
  sweep(machine::nehalem_ep(), 15.0, 2.5);
  std::printf("(b) Intel Westmere EP / AMD Magny Cours\n");
  sweep(machine::westmere_ep(), 15.0, 2.5);
  sweep(machine::magny_cours(), 15.0, 2.5);

  const auto amd = machine::magny_cours();
  const auto intel = machine::westmere_ep();
  std::printf(
      "node-level ratio Magny Cours / Westmere: %.2f (paper: ~1.25)\n\n",
      amd.spmv_bandwidth_node() / intel.spmv_bandwidth_node());

  if (!cli.get_flag("skip-host-stream")) {
    // Each array must overflow the last-level cache, or the "memory"
    // bandwidth is a cache bandwidth.
    const std::size_t llc = perfmodel::host_llc_bytes();
    perfmodel::StreamOptions options;
    options.elements = perfmodel::stream_elements_beyond_llc(
        llc, perfmodel::host_mem_available_bytes());
    options.repetitions = 5;
    std::printf("host STREAM: detected LLC %.1f MB, array size %.1f MB\n",
                static_cast<double>(llc) / 1e6,
                static_cast<double>(options.elements * sizeof(double)) / 1e6);
    const auto triad =
        perfmodel::run_stream(perfmodel::StreamKernel::kTriad, options);
    std::printf(
        "host reference: STREAM triad %.1f GB/s nominal (%.1f GB/s with "
        "write-allocate), array size %.1f MB\n",
        triad.best_bytes_per_second / 1e9,
        triad.effective_bytes_per_second / 1e9,
        static_cast<double>(triad.array_bytes) / 1e6);
  }
  return 0;
}
