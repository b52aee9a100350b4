#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>

#include "common/stopwatch.hpp"
#include "common/string_util.hpp"
#include "graph/partitioner.hpp"

namespace asyncmr::bench {

ObsSession::ObsSession(const BenchOptions& opts)
    : trace_path_(opts.trace_out),
      metrics_path_(opts.metrics_out),
      metrics_interval_s_(opts.metrics_interval_s) {
  if (!trace_path_.empty()) trace_ = std::make_unique<obs::TraceSink>();
  if (!metrics_path_.empty()) metrics_ = std::make_unique<obs::MetricsRegistry>();
}

obs::Observability ObsSession::View() {
  obs::Observability view;
  view.trace = trace_.get();
  view.metrics = metrics_.get();
  view.metrics_interval_s = metrics_interval_s_;
  return view;
}

Status ObsSession::Flush() const {
  if (trace_ != nullptr) AMR_RETURN_IF_ERROR(trace_->WriteFile(trace_path_));
  if (metrics_ != nullptr) {
    AMR_RETURN_IF_ERROR(metrics_->WriteFile(metrics_path_));
  }
  return Status::Ok();
}

void ObsSession::FlushOrWarn() const {
  const Status status = Flush();
  if (!status.ok()) {
    std::fprintf(stderr, "observability flush failed: %s\n",
                 status.ToString().c_str());
  } else if (trace_ != nullptr) {
    std::fprintf(stderr, "trace: %zu events -> %s\n", trace_->num_events(),
                 trace_path_.c_str());
  }
  if (status.ok() && metrics_ != nullptr) {
    std::fprintf(stderr, "metrics: %zu samples x %zu series -> %s\n",
                 metrics_->num_samples(), metrics_->num_series(),
                 metrics_path_.c_str());
  }
}

std::vector<uint32_t> ScaledPartitionCounts(const BenchOptions& opts) {
  std::vector<uint32_t> ks;
  for (uint32_t k : kPaperPartitionCounts) {
    ks.push_back(static_cast<uint32_t>(std::max<uint64_t>(2, opts.Scaled(k))));
  }
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

AblationGraphScenario BuildAblationGraphScenario(const BenchOptions& opts) {
  auto config = GraphConfig(PaperGraph::kA, opts);
  config.num_vertices = static_cast<graph::VertexId>(
      std::min<uint64_t>(config.num_vertices, opts.Scaled(50'000, 5000)));
  config.locality_window =
      std::max<graph::VertexId>(8, config.num_vertices / 1000);
  config.max_edge_age = 4 * config.locality_window;
  AblationGraphScenario scenario;
  scenario.g = graph::PreferentialAttachment(config);
  scenario.k = static_cast<uint32_t>(
      std::max<uint64_t>(8, std::min<uint64_t>(64, opts.Scaled(16))));
  scenario.part = graph::MultilevelPartition(scenario.g, scenario.k, opts.seed);
  return scenario;
}

graph::PrefAttachConfig GraphConfig(PaperGraph which, const BenchOptions& opts) {
  graph::PrefAttachConfig config = which == PaperGraph::kA
                                       ? graph::PrefAttachConfig::PaperGraphA(opts.seed)
                                       : graph::PrefAttachConfig::PaperGraphB(opts.seed + 1);
  config.num_vertices =
      static_cast<graph::VertexId>(opts.Scaled(config.num_vertices, 2000));
  config.locality_window = std::max<graph::VertexId>(8, config.num_vertices / 1000);
  config.max_edge_age = 4 * config.locality_window;
  return config;
}

namespace {

/// One sweep row from a General and an Eager run (PageRank or SSSP).
template <typename Result>
GraphSweepRow MakeRow(uint32_t k, double cut, const Result& gen, const Result& eag) {
  GraphSweepRow row;
  row.partitions = k;
  row.cut_fraction = cut;
  row.general_iterations = gen.trace.global_iterations();
  row.general_seconds = gen.trace.total_seconds();
  row.general_ops = gen.trace.total_ops();
  row.general_converged = gen.converged;
  row.eager_iterations = eag.trace.global_iterations();
  row.eager_seconds = eag.trace.total_seconds();
  row.eager_ops = eag.trace.total_ops();
  row.eager_local_iterations = eag.trace.total_local_iterations();
  row.eager_converged = eag.converged;
  return row;
}

}  // namespace

std::vector<GraphSweepRow> RunPageRankSweep(PaperGraph which,
                                            const BenchOptions& opts) {
  Stopwatch wall;
  const auto g = graph::PreferentialAttachment(GraphConfig(which, opts));
  std::fprintf(stderr, "  [%.0fs] graph ready: %s\n", wall.ElapsedSeconds(),
               g.Describe().c_str());
  apps::PageRankConfig config;

  std::vector<GraphSweepRow> rows;
  for (uint32_t k : ScaledPartitionCounts(opts)) {
    const auto part = graph::MultilevelPartition(g, k, opts.seed);
    const double cut = graph::EvaluatePartition(g, part).cut_fraction;
    cluster::SimCluster general_cluster(cluster::ClusterSpec::Ec2Large8());
    const auto gen = apps::GeneralPageRank(general_cluster, g, part, config);
    cluster::SimCluster eager_cluster(cluster::ClusterSpec::Ec2Large8());
    const auto eag = apps::EagerPageRank(eager_cluster, g, part, config);
    rows.push_back(MakeRow(k, cut, gen, eag));
    std::fprintf(stderr,
                 "  [%.0fs] k=%-5u cut=%4.1f%%  general %3u it / %7.0f s   eager "
                 "%3u it / %7.0f s\n",
                 wall.ElapsedSeconds(), k, 100 * cut, rows.back().general_iterations,
                 rows.back().general_seconds, rows.back().eager_iterations,
                 rows.back().eager_seconds);
  }
  return rows;
}

std::vector<GraphSweepRow> RunSsspSweep(const BenchOptions& opts) {
  Stopwatch wall;
  const auto g0 = graph::PreferentialAttachment(GraphConfig(PaperGraph::kA, opts));
  const auto g = graph::WithRandomWeights(g0, 1.0, 10.0, opts.seed + 7);
  std::fprintf(stderr, "  [%.0fs] graph ready: %s\n", wall.ElapsedSeconds(),
               g.Describe().c_str());
  apps::SsspConfig config;

  std::vector<GraphSweepRow> rows;
  for (uint32_t k : ScaledPartitionCounts(opts)) {
    const auto part = graph::MultilevelPartition(g, k, opts.seed);
    const double cut = graph::EvaluatePartition(g, part).cut_fraction;
    cluster::SimCluster general_cluster(cluster::ClusterSpec::Ec2Large8());
    const auto gen = apps::GeneralSssp(general_cluster, g, part, config);
    cluster::SimCluster eager_cluster(cluster::ClusterSpec::Ec2Large8());
    const auto eag = apps::EagerSssp(eager_cluster, g, part, config);
    rows.push_back(MakeRow(k, cut, gen, eag));
    std::fprintf(stderr,
                 "  [%.0fs] k=%-5u cut=%4.1f%%  general %3u it / %7.0f s   eager "
                 "%3u it / %7.0f s\n",
                 wall.ElapsedSeconds(), k, 100 * cut, rows.back().general_iterations,
                 rows.back().general_seconds, rows.back().eager_iterations,
                 rows.back().eager_seconds);
  }
  return rows;
}

std::vector<KmeansSweepRow> RunKmeansSweep(const BenchOptions& opts) {
  Stopwatch wall;
  apps::CensusLikeConfig data_config;
  data_config.num_points =
      static_cast<uint32_t>(opts.Scaled(data_config.num_points, 5000));
  data_config.seed = opts.seed;
  const auto data = apps::GenerateCensusLike(data_config);
  std::fprintf(stderr, "  [%.0fs] dataset ready: %u points x %u dims\n",
               wall.ElapsedSeconds(), data.num_points(), data.dims());

  std::vector<KmeansSweepRow> rows;
  for (double threshold : kPaperThresholds) {
    apps::KMeansConfig config;
    config.threshold = threshold;
    config.seed = opts.seed + 3;
    cluster::SimCluster general_cluster(cluster::ClusterSpec::Ec2Large8());
    const auto gen = apps::GeneralKMeans(general_cluster, data, config);
    cluster::SimCluster eager_cluster(cluster::ClusterSpec::Ec2Large8());
    const auto eag = apps::EagerKMeans(eager_cluster, data, config);
    KmeansSweepRow row;
    row.threshold = threshold;
    row.general_iterations = gen.trace.global_iterations();
    row.general_seconds = gen.trace.total_seconds();
    row.general_converged = gen.converged;
    row.eager_iterations = eag.trace.global_iterations();
    row.eager_seconds = eag.trace.total_seconds();
    row.eager_local_iterations = eag.trace.total_local_iterations();
    row.eager_converged = eag.converged;
    row.general_sse = gen.sse;
    row.eager_sse = eag.sse;
    rows.push_back(row);
    std::fprintf(stderr,
                 "  [%.0fs] delta=%-7g general %3u it / %6.0f s   eager %3u it / "
                 "%6.0f s\n",
                 wall.ElapsedSeconds(), threshold, row.general_iterations,
                 row.general_seconds, row.eager_iterations, row.eager_seconds);
  }
  return rows;
}

void PrintBanner(const std::string& title, const BenchOptions& opts) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("testbed: simulated %s (paper Table I)\n",
              cluster::ClusterSpec::Ec2Large8().Describe().c_str());
  std::printf("scale: %.2fx paper size (AMR_SCALE), seed %llu\n\n", opts.scale,
              static_cast<unsigned long long>(opts.seed));
}

void PrintGraphSweep(const std::string& iterations_title,
                     const std::string& time_title,
                     const std::vector<GraphSweepRow>& rows,
                     const BenchOptions& opts) {
  std::printf("%s\n", iterations_title.c_str());
  std::printf("%-12s %-10s %-10s\n", "#Partitions", "Eager", "General");
  for (const auto& row : rows) {
    std::printf("%-12u %-10u %-10u\n", row.partitions, row.eager_iterations,
                row.general_iterations);
  }
  std::printf("\n%s\n", time_title.c_str());
  std::printf("%-12s %-14s %-14s %-9s\n", "#Partitions", "Eager(s)", "General(s)",
              "Speedup");
  for (const auto& row : rows) {
    std::printf("%-12u %-14.0f %-14.0f %-9.1fx\n", row.partitions, row.eager_seconds,
                row.general_seconds, row.speedup());
  }
  // Supporting detail: the tradeoff quantities the paper reasons about.
  std::printf("\ndetail: cut%%, serial ops (eager vs general), partial syncs\n");
  for (const auto& row : rows) {
    std::printf("  k=%-6u cut=%5.1f%%  ops %8s vs %8s  local-iters %s\n",
                row.partitions, 100 * row.cut_fraction,
                WithThousands(row.eager_ops).c_str(),
                WithThousands(row.general_ops).c_str(),
                WithThousands(row.eager_local_iterations).c_str());
  }
  double best = 0;
  for (const auto& row : rows) best = std::max(best, row.speedup());
  std::printf("\nbest speedup over the sweep: %.1fx\n", best);
  if (opts.csv) {
    std::printf("\ncsv,partitions,cut,gen_iters,gen_s,eag_iters,eag_s,local_iters\n");
    for (const auto& row : rows) {
      std::printf("csv,%u,%.4f,%u,%.1f,%u,%.1f,%llu\n", row.partitions,
                  row.cut_fraction, row.general_iterations, row.general_seconds,
                  row.eager_iterations, row.eager_seconds,
                  static_cast<unsigned long long>(row.eager_local_iterations));
    }
  }
  std::printf("\n");
}

void PrintKmeansSweep(const std::string& iterations_title,
                      const std::string& time_title,
                      const std::vector<KmeansSweepRow>& rows,
                      const BenchOptions& opts) {
  std::printf("%s\n", iterations_title.c_str());
  std::printf("%-16s %-10s %-10s\n", "Threshold", "Eager", "General");
  for (const auto& row : rows) {
    std::printf("%-16g %-10u %-10u\n", row.threshold, row.eager_iterations,
                row.general_iterations);
  }
  std::printf("\n%s\n", time_title.c_str());
  std::printf("%-16s %-14s %-14s %-9s\n", "Threshold", "Eager(s)", "General(s)",
              "Speedup");
  for (const auto& row : rows) {
    std::printf("%-16g %-14.0f %-14.0f %-9.1fx\n", row.threshold, row.eager_seconds,
                row.general_seconds, row.speedup());
  }
  std::printf("\ndetail: clustering quality (SSE, lower is better)\n");
  for (const auto& row : rows) {
    std::printf("  delta=%-8g sse eager %.4g vs general %.4g (ratio %.3f)\n",
                row.threshold, row.eager_sse, row.general_sse,
                row.general_sse > 0 ? row.eager_sse / row.general_sse : 0.0);
  }
  double mean_speedup = 0;
  for (const auto& row : rows) mean_speedup += row.speedup();
  mean_speedup /= rows.empty() ? 1 : static_cast<double>(rows.size());
  std::printf("\naverage speedup: %.1fx\n", mean_speedup);
  if (opts.csv) {
    std::printf("\ncsv,threshold,gen_iters,gen_s,eag_iters,eag_s,local_iters\n");
    for (const auto& row : rows) {
      std::printf("csv,%g,%u,%.1f,%u,%.1f,%llu\n", row.threshold,
                  row.general_iterations, row.general_seconds, row.eager_iterations,
                  row.eager_seconds,
                  static_cast<unsigned long long>(row.eager_local_iterations));
    }
  }
  std::printf("\n");
}

}  // namespace asyncmr::bench
