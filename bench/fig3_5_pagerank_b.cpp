// Figures 3 and 5 reproduction: PageRank — number of iterations and time to
// converge vs number of partitions (Graph B), from one sweep. Paper shape:
// General flat in partition count; Eager far lower at coarse partitionings,
// degenerating toward General as partitions shrink.
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner(
      "Figures 3 and 5 — PageRank: iterations and time to converge vs #partitions "
      "(Graph B)",
      opts);
  const auto rows = bench::RunPageRankSweep(bench::PaperGraph::kB, opts);
  bench::PrintGraphSweep("Figure 3 series (iterations):", "Figure 5 series (time):",
                         rows, opts);
  return bench::SweepExitCode(rows);
}
