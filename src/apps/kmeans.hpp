// K-Means clustering on iterative MapReduce (paper Section V.D).
//
// General K-Means is the Mahout formulation the paper baselines against: map
// assigns each point to its nearest centroid, reduce recomputes centroids as
// the means of their assigned points; iterate until the maximum centroid
// movement (Euclidean) drops below a threshold delta.
//
// Eager K-Means follows the paper (and Yom-Tov & Slonim's pairwise scheme it
// cites): each gmap clusters its own subset of points with local Lloyd
// iterations (local MapReduce to convergence), then emits
// (input-centroid, updated-centroid + count); the global reduce combines the
// per-partition updated centroids (count-weighted mean). Two refinements the
// paper calls out are implemented: the point-to-partition assignment is
// reshuffled every few global iterations to avoid local optima, and the
// convergence test detects oscillations in addition to the movement
// threshold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/dataset.hpp"
#include "async/async_engine.hpp"
#include "cluster/cluster.hpp"
#include "core/metrics.hpp"

namespace asyncmr::apps {

struct KMeansConfig {
  uint32_t k = 16;
  /// Convergence threshold on the max centroid movement — the paper's
  /// "Threshold (Delta)" axis in Figures 8-9 (0.1 .. 0.0001).
  double threshold = 0.001;
  uint32_t max_global_iterations = 100;
  uint32_t num_partitions = 52;        // the paper's fixed partition count
  uint32_t max_local_iterations = 64;  // eager: per-gmap Lloyd cap
  uint32_t reshuffle_every = 5;        // eager: repartition period (0 = never)
  /// Async: transport, termination and checkpoint knobs forwarded to the
  /// engine — see async::EngineTuning.
  async::EngineTuning async_tuning;
  uint64_t seed = 1234;                // initial centroids + reshuffles
  std::string job_prefix = "km";
};

struct KMeansResult {
  /// Row-major k x dims final centroids.
  std::vector<double> centroids;
  core::RunTrace trace;
  bool converged = false;
  bool stopped_on_oscillation = false;
  double sse = 0.0;  // final clustering objective
};

/// Serial Lloyd iterations with the same convergence rule; quality oracle.
KMeansResult SerialLloyd(const Dataset& data, const KMeansConfig& config);

KMeansResult GeneralKMeans(cluster::SimCluster& cluster, const Dataset& data,
                           const KMeansConfig& config);

KMeansResult EagerKMeans(cluster::SimCluster& cluster, const Dataset& data,
                         const KMeansConfig& config);

/// AsyncKMeans' wire record: a partition's refreshed partial for one centroid
/// — the count-weighted coordinate sum over its points currently assigned to
/// that centroid. It *replaces* the sender's previous partial at the
/// receiver; the global centroid is the count-weighted mean of every
/// partition's latest partial. This is the heterogeneous-payload case the
/// generalized engine exists for: a variable-length vector value, not a
/// (key, double) pair.
struct KmPartialUpdate {
  uint32_t centroid = 0;
  uint64_t count = 0;
  std::vector<double> sum;
  AMR_SERDE_FIELDS(centroid, count, sum)
};

/// Barrier-free K-Means on the asynchronous engine. Each worker assigns its
/// points against its current count-weighted view of the global centroids,
/// publishes the centroid partials that changed to every peer (all-to-all —
/// centroids are global state), and folds freshly delivered peer partials
/// into its view. The residual is the per-iteration centroid movement, so
/// the run terminates once every worker's view moves less than the
/// threshold with no partials in flight. `staleness` as in AsyncPageRank:
/// 0 reproduces synchronized Lloyd rounds, unbounded never waits.
KMeansResult AsyncKMeans(cluster::SimCluster& cluster, const Dataset& data,
                         const KMeansConfig& config,
                         uint32_t staleness = async::kUnboundedStaleness,
                         async::AsyncResult* engine_stats = nullptr);

}  // namespace asyncmr::apps
