// Figure 5 reproduction: PageRank — time to converge vs number of partitions
// (Graph B). Paper shape: General flat in partition count; Eager far lower
// at coarse partitionings, degenerating toward General as partitions shrink.
#include "bench_common.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  bench::PrintBanner(
      "Figure 5 — PageRank: time to converge vs #partitions (Graph B)", opts);
  const auto rows = bench::RunPageRankSweep(bench::PaperGraph::kB, opts);
  bench::PrintGraphSweep("Figure 5 series (time):", "time", rows, opts);
  return bench::SweepExitCode(rows);
}
