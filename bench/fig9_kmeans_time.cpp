// Figure 9 reproduction: K-Means — time to converge for varying convergence
// thresholds (52 partitions, census-like data).
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner("Figure 9 — K-Means: time-to-converge vs threshold", opts);
  const auto rows = bench::RunKmeansSweep(opts);
  bench::PrintKmeansSweep("Figure 9 series (time):", "time", rows, opts);
  return bench::SweepExitCode(rows);
}
