// Figures 8 and 9 reproduction: K-Means — iterations and time to converge for
// varying convergence thresholds (52 partitions, census-like data), from one
// sweep.
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner(
      "Figures 8 and 9 — K-Means: iterations and time to converge vs threshold", opts);
  const auto rows = bench::RunKmeansSweep(opts);
  bench::PrintKmeansSweep("Figure 8 series (iterations):", "Figure 9 series (time):",
                          rows, opts);
  return bench::SweepExitCode(rows);
}
