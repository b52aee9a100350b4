// Figure 2 reproduction: PageRank — number of iterations to converge vs number of partitions
// (Graph A). Paper shape: General flat in partition count; Eager far lower
// at coarse partitionings, degenerating toward General as partitions shrink.
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner(
      "Figure 2 — PageRank: number of iterations to converge vs #partitions (Graph A)", opts);
  const auto rows = bench::RunPageRankSweep(bench::PaperGraph::kA, opts);
  bench::PrintGraphSweep("Figure 2 series (iterations):", "iterations", rows, opts);
  return bench::SweepExitCode(rows);
}
