// Figure 7 reproduction: Single Source Shortest Path — time to converge vs
// number of partitions (Graph A).
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner("Figure 7 — SSSP: time to converge vs #partitions (Graph A)",
                     opts);
  const auto rows = bench::RunSsspSweep(opts);
  bench::PrintGraphSweep("Figure 7 series (time):", "time", rows, opts);
  return bench::SweepExitCode(rows);
}
