// Micro-benchmarks (google-benchmark): graph substrate — generation,
// partitioning, and the local-runtime hot path.
#include <benchmark/benchmark.h>

#include "apps/app_common.hpp"
#include "core/local_runtime.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

namespace asyncmr {
namespace {

graph::Digraph BenchGraph(uint32_t n) {
  graph::PrefAttachConfig config;
  config.num_vertices = n;
  config.num_in = 3;
  config.num_out = 3;
  config.locality_window = std::max(8u, n / 1000);
  config.max_edge_age = 4 * config.locality_window;
  return graph::PreferentialAttachment(config);
}

void BM_PreferentialAttachment(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BenchGraph(n).num_edges());
  }
}
BENCHMARK(BM_PreferentialAttachment)->Arg(10'000)->Arg(40'000);

void BM_MultilevelPartition(benchmark::State& state) {
  const auto g = BenchGraph(20'000);
  const auto k = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::MultilevelPartition(g, k).part_of.size());
  }
}
BENCHMARK(BM_MultilevelPartition)->Arg(16)->Arg(128)->Arg(1024);

void BM_PartitionQuality(benchmark::State& state) {
  const auto g = BenchGraph(20'000);
  const auto p = graph::MultilevelPartition(g, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::EvaluatePartition(g, p).cut_edges);
  }
}
BENCHMARK(BM_PartitionQuality);

void BM_DenseAccumulatorDrain(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  apps::DenseAccumulator acc(n);
  Rng rng(3);
  std::vector<uint32_t> targets(4 * n);
  for (auto& t : targets) t = static_cast<uint32_t>(rng.NextBounded(n));
  for (auto _ : state) {
    for (uint32_t t : targets) acc.Add(t, 1.0);
    benchmark::DoNotOptimize(acc.DrainSorted().size());
  }
  state.SetItemsProcessed(state.iterations() * targets.size());
}
BENCHMARK(BM_DenseAccumulatorDrain)->Arg(1 << 12)->Arg(1 << 16);

void BM_LocalMapReduceIteration(benchmark::State& state) {
  // The gmap inner loop on a synthetic ring partition.
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<uint32_t> xs(n);
  for (uint32_t i = 0; i < n; ++i) xs[i] = i;
  using Local = core::LocalMapReduce<uint32_t, double, core::SumCombine>;
  Local::Config config;
  config.max_local_iterations = 8;
  Local local(
      [n](const uint32_t& x, const core::LocalState<double>& s, Local::Intermediate& out) {
        const double r = s[x];
        out.EmitLocalIntermediate((x + 1) % n, r * 0.5);
        out.EmitLocalIntermediate((x + n - 1) % n, r * 0.5);
      },
      [](uint32_t k, double sum, const core::LocalState<double>&,
         Local::ReduceContext& ctx) { ctx.EmitLocal(k, 0.15 + 0.85 * sum); },
      [](const core::LocalState<double>&, const core::LocalState<double>&, uint32_t) {
        return false;
      },
      config);
  for (auto _ : state) {
    core::LocalState<double> s(n, 1.0);
    const auto stats = local.Run(xs, s);
    benchmark::DoNotOptimize(stats.ops);
  }
  state.SetItemsProcessed(state.iterations() * n * 8);
}
BENCHMARK(BM_LocalMapReduceIteration)->Arg(1 << 10)->Arg(1 << 13);

}  // namespace
}  // namespace asyncmr

BENCHMARK_MAIN();
