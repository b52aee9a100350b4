// Figure 6 reproduction: Single Source Shortest Path — number of iterations
// to converge vs number of partitions (Graph A).
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner(
      "Figure 6 — SSSP: iterations to converge vs #partitions (Graph A)", opts);
  const auto rows = bench::RunSsspSweep(opts);
  bench::PrintGraphSweep("Figure 6 series (iterations):", "iterations", rows, opts);
  return bench::SweepExitCode(rows);
}
