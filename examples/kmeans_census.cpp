// Example: K-Means clustering of census-like demographic records — the
// paper's third application (US Census 1990 sample, 200K x 68 attributes).
// Compares General (Mahout-style) with Eager (local Lloyd iterations per
// gmap, reshuffled partitions, oscillation detection) across quality and
// cost, validated against serial Lloyd.
#include <cstdio>

#include "apps/kmeans.hpp"
#include "common/options.hpp"
#include "common/string_util.hpp"

using namespace asyncmr;

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);

  apps::CensusLikeConfig data_config;
  data_config.num_points = static_cast<uint32_t>(opts.Scaled(40'000, 4'000));
  data_config.seed = opts.seed;
  std::printf("generating census-like dataset: %s rows x %u attributes...\n",
              WithThousands(data_config.num_points).c_str(), data_config.dims);
  const auto data = apps::GenerateCensusLike(data_config);

  apps::KMeansConfig km;
  km.k = 16;
  km.threshold = 0.001;
  km.seed = opts.seed + 3;
  std::printf("clustering into k=%u, movement threshold %g, %u partitions\n\n", km.k,
              km.threshold, km.num_partitions);

  const auto lloyd = apps::SerialLloyd(data, km);
  std::printf("serial Lloyd:    %3u iterations, SSE %.4g\n",
              lloyd.trace.global_iterations(), lloyd.sse);

  cluster::SimCluster general_cluster(cluster::ClusterSpec::Ec2Large8());
  const auto general = apps::GeneralKMeans(general_cluster, data, km);
  std::printf("General K-Means: %3u iterations, SSE %.4g, %s virtual time\n",
              general.trace.global_iterations(), general.sse,
              HumanSeconds(general.trace.total_seconds()).c_str());

  cluster::SimCluster eager_cluster(cluster::ClusterSpec::Ec2Large8());
  const auto eager = apps::EagerKMeans(eager_cluster, data, km);
  std::printf("Eager K-Means:   %3u iterations, SSE %.4g, %s virtual time%s\n",
              eager.trace.global_iterations(), eager.sse,
              HumanSeconds(eager.trace.total_seconds()).c_str(),
              eager.stopped_on_oscillation ? " (stopped on oscillation)" : "");

  cluster::SimCluster async_cluster(cluster::ClusterSpec::Ec2Large8());
  async::AsyncResult stats;
  const auto barrier_free = apps::AsyncKMeans(async_cluster, data, km,
                                              async::kUnboundedStaleness, &stats);
  std::printf("Async K-Means:   %3llu worker iterations, SSE %.4g, %s virtual "
              "time (%s merge ops charged)\n\n",
              static_cast<unsigned long long>(stats.total_iterations),
              barrier_free.sse, HumanSeconds(stats.seconds()).c_str(),
              WithThousands(stats.total_merge_ops).c_str());

  // The band tests/test_kmeans.cpp asserts for Eager and Async quality.
  const bool in_band = eager.sse < lloyd.sse * 1.3 && barrier_free.sse < lloyd.sse * 1.3;
  std::printf("quality vs lloyd (SSE ratio, 1.0 = identical): eager %.3f, "
              "async %.3f%s\n",
              eager.sse / lloyd.sse, barrier_free.sse / lloyd.sse,
              in_band ? "" : " (OUT OF BAND: must stay below 1.3)");
  std::printf("speedup: %.1fx (%u -> %u global synchronizations, %s partial); "
              "async %.1fx with no synchronizations at all\n",
              general.trace.total_seconds() / eager.trace.total_seconds(),
              general.trace.global_iterations(), eager.trace.global_iterations(),
              WithThousands(eager.trace.total_local_iterations()).c_str(),
              general.trace.total_seconds() / stats.seconds());
  return in_band ? 0 : 1;
}
