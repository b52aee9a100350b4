// Figures 6 and 7 reproduction: Single Source Shortest Path — number of
// iterations and time to converge vs number of partitions (Graph A), from one
// sweep.
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner(
      "Figures 6 and 7 — SSSP: iterations and time to converge vs #partitions "
      "(Graph A)",
      opts);
  const auto rows = bench::RunSsspSweep(opts);
  bench::PrintGraphSweep("Figure 6 series (iterations):", "Figure 7 series (time):",
                         rows, opts);
  return bench::SweepExitCode(rows);
}
