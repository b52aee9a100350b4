// Figures 2 and 4 reproduction: PageRank — number of iterations and time to
// converge vs number of partitions (Graph A), from one sweep. Paper shape:
// General flat in partition count; Eager far lower at coarse partitionings,
// degenerating toward General as partitions shrink.
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner(
      "Figures 2 and 4 — PageRank: iterations and time to converge vs #partitions "
      "(Graph A)",
      opts);
  const auto rows = bench::RunPageRankSweep(bench::PaperGraph::kA, opts);
  bench::PrintGraphSweep("Figure 2 series (iterations):", "Figure 4 series (time):",
                         rows, opts);
  return bench::SweepExitCode(rows);
}
