// Figure 8 reproduction: K-Means — iterations to converge for varying
// convergence thresholds (52 partitions, census-like data).
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner("Figure 8 — K-Means: iterations-to-converge vs threshold",
                     opts);
  const auto rows = bench::RunKmeansSweep(opts);
  bench::PrintKmeansSweep("Figure 8 series (iterations):", "iterations", rows, opts);
  return bench::SweepExitCode(rows);
}
