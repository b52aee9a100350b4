#include "apps/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>

#include "apps/app_common.hpp"
#include "async/state_store.hpp"
#include "common/rng.hpp"
#include "core/partial_sync_job.hpp"
#include "mr/job.hpp"

namespace asyncmr::apps {

namespace {

/// Reducers per wave job: one reduce key per centroid.
constexpr uint32_t kKMeansReducers = 8;

/// Eager: global rounds without a movement improvement before the run is
/// declared oscillating.
constexpr uint32_t kOscillationWindow = 4;

/// Wire value for K-Means MapReduce: a coordinate sum (or mean) plus the
/// number of points it aggregates.
struct KmUpdate {
  std::vector<double> sum;
  uint64_t count = 0;
  AMR_SERDE_FIELDS(sum, count)
};

/// Eager K-Means' local combiner: adds b's point sum and count into a.
struct KmMerge {
  KmUpdate operator()(KmUpdate a, const KmUpdate& b) const {
    for (size_t d = 0; d < a.sum.size(); ++d) a.sum[d] += b.sum[d];
    a.count += b.count;
    return a;
  }
};

/// Ops per point-to-centroid assignment (sub, mul, add per dim per centroid).
uint64_t AssignOps(uint32_t k, uint32_t dims) {
  return static_cast<uint64_t>(3) * k * dims;
}

uint32_t NearestCentroid(std::span<const float> point,
                         const std::vector<double>& centroids, uint32_t k,
                         uint32_t dims) {
  uint32_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (uint32_t c = 0; c < k; ++c) {
    const double* centroid = centroids.data() + static_cast<size_t>(c) * dims;
    double dist = 0.0;
    for (uint32_t d = 0; d < dims; ++d) {
      const double diff = point[d] - centroid[d];
      dist += diff * diff;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

std::vector<double> InitialCentroids(const Dataset& data, uint32_t k, uint64_t seed) {
  // Random distinct points, "chosen at random for the sake of generality"
  // (paper Section V.D; canopy clustering is left as an optimization).
  Rng rng(MixSeed(seed, 0xCE27));
  std::vector<double> centroids(static_cast<size_t>(k) * data.dims());
  std::vector<uint32_t> chosen;
  while (chosen.size() < k) {
    const auto i = static_cast<uint32_t>(rng.NextBounded(data.num_points()));
    if (std::find(chosen.begin(), chosen.end(), i) == chosen.end()) chosen.push_back(i);
  }
  for (uint32_t c = 0; c < k; ++c) {
    const auto point = data.Point(chosen[c]);
    for (uint32_t d = 0; d < data.dims(); ++d) {
      centroids[static_cast<size_t>(c) * data.dims() + d] = point[d];
    }
  }
  return centroids;
}

/// Max Euclidean centroid movement (the paper's convergence metric).
double Movement(const std::vector<double>& before, const std::vector<double>& after,
                uint32_t k, uint32_t dims) {
  double worst = 0.0;
  for (uint32_t c = 0; c < k; ++c) {
    double dist = 0.0;
    for (uint32_t d = 0; d < dims; ++d) {
      const double diff = after[static_cast<size_t>(c) * dims + d] -
                          before[static_cast<size_t>(c) * dims + d];
      dist += diff * diff;
    }
    worst = std::max(worst, std::sqrt(dist));
  }
  return worst;
}

/// Contiguous point-range partitioning; reshuffling permutes point order.
std::vector<std::vector<uint32_t>> SplitPoints(const std::vector<uint32_t>& order,
                                               uint32_t num_partitions) {
  std::vector<std::vector<uint32_t>> parts(num_partitions);
  const size_t n = order.size();
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const size_t lo = n * p / num_partitions;
    const size_t hi = n * (p + 1) / num_partitions;
    parts[p].assign(order.begin() + lo, order.begin() + hi);
  }
  return parts;
}

/// Stages each partition's point payload (real bytes) on the DFS; every
/// round's split also carries the broadcast centroids.
WaveRounds PointWaveRounds(cluster::SimCluster& cluster, const Dataset& data,
                           const KMeansConfig& config, WaveRounds::Kind kind,
                           const std::vector<std::vector<uint32_t>>& parts) {
  std::vector<serde::Buffer> images;
  images.reserve(parts.size());
  for (const auto& part : parts) {
    serde::Buffer buf;
    buf.reserve(part.size() * data.dims() * sizeof(float));
    for (uint32_t i : part) {
      const auto point = data.Point(i);
      buf.Append(point.data(), point.size_bytes());
    }
    images.push_back(std::move(buf));
  }
  const uint64_t centroid_bytes =
      static_cast<uint64_t>(config.k) * data.dims() * sizeof(double);
  return WaveRounds(cluster, config.job_prefix, kind, kKMeansReducers, images,
                    std::vector<uint64_t>(parts.size(), centroid_bytes));
}

}  // namespace

// ---------------------------------------------------------------------------
// Serial Lloyd reference.
// ---------------------------------------------------------------------------

KMeansResult SerialLloyd(const Dataset& data, const KMeansConfig& config) {
  const uint32_t k = config.k, dims = data.dims();
  KMeansResult result;
  result.centroids = InitialCentroids(data, k, config.seed);
  result.trace = core::RunTrace("serial-lloyd");

  std::vector<double> sums(static_cast<size_t>(k) * dims);
  std::vector<uint64_t> counts(k);
  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (uint32_t i = 0; i < data.num_points(); ++i) {
      const auto point = data.Point(i);
      const uint32_t c = NearestCentroid(point, result.centroids, k, dims);
      double* row = sums.data() + static_cast<size_t>(c) * dims;
      for (uint32_t d = 0; d < dims; ++d) row[d] += point[d];
      counts[c]++;
    }
    std::vector<double> next = result.centroids;
    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its position
      for (uint32_t d = 0; d < dims; ++d) {
        next[static_cast<size_t>(c) * dims + d] =
            sums[static_cast<size_t>(c) * dims + d] / static_cast<double>(counts[c]);
      }
    }
    const double movement = Movement(result.centroids, next, k, dims);
    result.centroids = std::move(next);
    core::RoundTrace trace;
    trace.round = round;
    trace.residual = movement;
    result.trace.AddRound(trace);
    if (movement < config.threshold) {
      result.converged = true;
      break;
    }
  }
  result.sse = SumSquaredError(data, result.centroids, k);
  return result;
}

// ---------------------------------------------------------------------------
// General K-Means: assign/update, one MapReduce job per iteration.
// ---------------------------------------------------------------------------

KMeansResult GeneralKMeans(cluster::SimCluster& cluster, const Dataset& data,
                           const KMeansConfig& config) {
  const uint32_t k = config.k, dims = data.dims();
  std::vector<uint32_t> order(data.num_points());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto parts = SplitPoints(order, config.num_partitions);
  const WaveRounds waves =
      PointWaveRounds(cluster, data, config, WaveRounds::Kind::kGeneral, parts);

  KMeansResult result;
  result.centroids = InitialCentroids(data, k, config.seed);
  result.trace = core::RunTrace("general-kmeans");

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    mr::Job<uint32_t, KmUpdate, uint32_t, KmUpdate> job(cluster, waves.RoundJob(round));
    job.set_mapper([&](uint32_t p, mr::MapContext<uint32_t, KmUpdate>& ctx) {
      std::vector<double> sums(static_cast<size_t>(k) * dims, 0.0);
      std::vector<uint64_t> counts(k, 0);
      for (uint32_t i : parts[p]) {
        const auto point = data.Point(i);
        const uint32_t c = NearestCentroid(point, result.centroids, k, dims);
        double* row = sums.data() + static_cast<size_t>(c) * dims;
        for (uint32_t d = 0; d < dims; ++d) row[d] += point[d];
        counts[c]++;
      }
      ctx.AddOps(parts[p].size() * (AssignOps(k, dims) + dims));
      for (uint32_t c = 0; c < k; ++c) {
        if (counts[c] == 0) continue;
        KmUpdate update;
        update.sum.assign(sums.begin() + static_cast<size_t>(c) * dims,
                          sums.begin() + static_cast<size_t>(c + 1) * dims);
        update.count = counts[c];
        ctx.Emit(c, update);
      }
    });
    job.set_reducer([&](const uint32_t& c, const std::vector<KmUpdate>& updates,
                        mr::ReduceContext<uint32_t, KmUpdate>& ctx) {
      KmUpdate total;
      total.sum.assign(dims, 0.0);
      for (const KmUpdate& u : updates) {
        for (uint32_t d = 0; d < dims; ++d) total.sum[d] += u.sum[d];
        total.count += u.count;
      }
      ctx.AddOps(updates.size() * dims);
      if (total.count > 0) {
        for (uint32_t d = 0; d < dims; ++d) {
          total.sum[d] /= static_cast<double>(total.count);
        }
        ctx.Emit(c, total);
      }
    });

    auto out = job.RunBlocking(waves.splits());
    std::vector<double> next = result.centroids;
    for (const auto& [c, update] : out.records) {
      for (uint32_t d = 0; d < dims; ++d) {
        next[static_cast<size_t>(c) * dims + d] = update.sum[d];
      }
    }
    const double movement = Movement(result.centroids, next, k, dims);
    result.centroids = std::move(next);
    WaveRounds::Record(result.trace, round, out.raw.stats, 0, movement);
    if (movement < config.threshold) {
      result.converged = true;
      break;
    }
  }
  result.sse = SumSquaredError(data, result.centroids, k);
  return result;
}

// ---------------------------------------------------------------------------
// Eager K-Means: local Lloyd iterations inside each gmap.
// ---------------------------------------------------------------------------

KMeansResult EagerKMeans(cluster::SimCluster& cluster, const Dataset& data,
                         const KMeansConfig& config) {
  const uint32_t k = config.k, dims = data.dims();
  Rng shuffle_rng(MixSeed(config.seed, 0x5F1E));

  std::vector<uint32_t> order(data.num_points());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  auto parts = SplitPoints(order, config.num_partitions);
  // Reshuffles move points between gmaps, not bytes between files: the
  // splits keep the initial staging.
  const WaveRounds waves =
      PointWaveRounds(cluster, data, config, WaveRounds::Kind::kEager, parts);

  KMeansResult result;
  result.centroids = InitialCentroids(data, k, config.seed);
  result.trace = core::RunTrace("eager-kmeans");

  // Contiguous k x dims copy of the gmap hashtable's centroids, refreshed per
  // local iteration for NearestCentroid.
  std::vector<double> centroid_cache(static_cast<size_t>(k) * dims);

  using Psj = core::PartialSyncJob<uint32_t, uint32_t, KmUpdate, KmMerge>;
  typename Psj::Config psj_config;
  psj_config.local.max_local_iterations = config.max_local_iterations;
  psj_config.local.on_iteration_start = [&](const Psj::State& state) {
    for (uint32_t c = 0; c < k; ++c) {
      std::copy(state[c].sum.begin(), state[c].sum.end(),
                centroid_cache.begin() + static_cast<size_t>(c) * dims);
    }
  };
  Psj psj(cluster, psj_config);

  psj.set_partition_data(
      [&](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
  // Slot c holds centroid c.
  psj.set_init_state([&](uint32_t) {
    Psj::State state(k);
    for (uint32_t c = 0; c < k; ++c) {
      state[c].sum.assign(result.centroids.begin() + static_cast<size_t>(c) * dims,
                          result.centroids.begin() + static_cast<size_t>(c + 1) * dims);
    }
    return state;
  });
  psj.set_lmap([&](const uint32_t& point_index, const Psj::State&,
                   Psj::Intermediate& out) {
    const auto point = data.Point(point_index);
    const uint32_t c = NearestCentroid(point, centroid_cache, k, dims);
    KmUpdate update;
    update.sum.assign(point.begin(), point.end());
    update.count = 1;
    out.AddOps(AssignOps(k, dims) + dims);
    out.EmitLocalIntermediate(c, std::move(update));
  });
  psj.set_lreduce([dims](uint32_t, uint32_t c, const KmUpdate& total, const Psj::State&,
                         Psj::LocalReduceCtx& ctx) {
    KmUpdate mean;
    mean.sum.resize(dims);
    for (uint32_t d = 0; d < dims; ++d) {
      // Points can round to -0.0; 0.0 + keeps a -0.0 sum out of the state.
      mean.sum[d] = (0.0 + total.sum[d]) / static_cast<double>(total.count);
    }
    mean.count = total.count;
    ctx.AddOps(dims);
    ctx.EmitLocal(c, std::move(mean));
  });
  psj.set_local_convergence(
      [&](const Psj::State& prev, const Psj::State& next, uint32_t) {
        double movement = 0.0;
        for (uint32_t c = 0; c < k; ++c) {
          double dist = 0.0;
          for (uint32_t d = 0; d < dims; ++d) {
            const double diff = next[c].sum[d] - prev[c].sum[d];
            dist += diff * diff;
          }
          movement = std::max(movement, std::sqrt(dist));
        }
        return movement < config.threshold;
      });
  // gmap's final emission: the hashtable contents — (input-centroid id,
  // locally updated centroid + count), the paper's default (no set_gemit).
  psj.set_greduce([dims](const uint32_t& c, const std::vector<KmUpdate>& updates,
                         mr::ReduceContext<uint32_t, KmUpdate>& ctx) {
    KmUpdate total;
    total.sum.assign(dims, 0.0);
    uint64_t weight = 0;
    for (const KmUpdate& u : updates) {
      for (uint32_t d = 0; d < dims; ++d) {
        total.sum[d] += u.sum[d] * static_cast<double>(u.count);
      }
      weight += u.count;
    }
    ctx.AddOps(updates.size() * dims);
    if (weight > 0) {
      for (uint32_t d = 0; d < dims; ++d) {
        total.sum[d] /= static_cast<double>(weight);
      }
      total.count = weight;
      ctx.Emit(c, total);
    }
  });

  double best_movement = std::numeric_limits<double>::infinity();
  uint32_t rounds_since_improvement = 0;

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    // Repartition the points every few iterations (paper: "the input points
    // need to be partitioned differently across global maps so as to avoid
    // the algorithm's move towards local optima").
    if (config.reshuffle_every > 0 && round > 0 &&
        round % config.reshuffle_every == 0) {
      shuffle_rng.Shuffle(order);
      parts = SplitPoints(order, config.num_partitions);
    }

    psj.mutable_config().job = waves.RoundJob(round);
    auto out = psj.RunGlobalIteration(waves.splits());
    std::vector<double> next = result.centroids;
    for (const auto& [c, update] : out.records) {
      for (uint32_t d = 0; d < dims; ++d) {
        next[static_cast<size_t>(c) * dims + d] = update.sum[d];
      }
    }
    const double movement = Movement(result.centroids, next, k, dims);
    result.centroids = std::move(next);
    WaveRounds::Record(result.trace, round, out.raw.stats,
                       psj.last_local_iterations(), movement);
    if (movement < config.threshold) {
      result.converged = true;
      break;
    }
    // Oscillation detection (paper: "the convergence condition includes
    // detection of oscillations along with the Euclidean metric").
    if (movement < best_movement * 0.999) {
      best_movement = movement;
      rounds_since_improvement = 0;
    } else if (++rounds_since_improvement >= kOscillationWindow) {
      result.converged = true;
      result.stopped_on_oscillation = true;
      break;
    }
  }
  result.sse = SumSquaredError(data, result.centroids, k);
  return result;
}

// ---------------------------------------------------------------------------
// Async K-Means: count-weighted centroid partials on async::AsyncEngine.
// ---------------------------------------------------------------------------

namespace {

/// Per-partition worker state for the asynchronous engine.
struct AsyncKmPartition {
  std::vector<uint32_t> points;
  /// Centroid estimate the points were last assigned against (k x dims).
  std::vector<double> centroids;
  /// This partition's current partial: per-centroid coordinate sums + counts
  /// over its own points. Doubles as the delta filter — a partial is only
  /// re-published when an assignment change moved it.
  std::vector<double> own_sum;
  std::vector<uint64_t> own_count;
  /// Aggregate of own partial + every peer's latest received partial; the
  /// centroid estimate is agg_sum / agg_count where count > 0.
  std::vector<double> agg_sum;
  std::vector<uint64_t> agg_count;
  /// Latest partial per (sender, centroid), so apply can subtract what a
  /// fresh partial replaces.
  async::StateStore<KmPartialUpdate> store;
  /// Per peer partition: re-announce this partition's full partial set on
  /// the next iteration (the peer restarted, or this partition did and its
  /// receivers hold dead-epoch partials).
  std::vector<uint8_t> resend_to;
};

}  // namespace

KMeansResult AsyncKMeans(cluster::SimCluster& cluster, const Dataset& data,
                         const KMeansConfig& config, uint32_t staleness,
                         async::AsyncResult* engine_stats) {
  const uint32_t k = config.k, dims = data.dims();
  const uint32_t num_parts = config.num_partitions;
  std::vector<uint32_t> order(data.num_points());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto point_parts = SplitPoints(order, num_parts);

  const std::vector<double> initial = InitialCentroids(data, k, config.seed);
  // Every peer's partials are keyed by centroid id.
  std::vector<uint32_t> centroid_ids(k);
  std::iota(centroid_ids.begin(), centroid_ids.end(), 0u);
  std::vector<AsyncKmPartition> parts(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    AsyncKmPartition& part = parts[p];
    part.points = point_parts[p];
    part.centroids = initial;
    part.own_sum.assign(static_cast<size_t>(k) * dims, 0.0);
    part.own_count.assign(k, 0);
    part.agg_sum.assign(static_cast<size_t>(k) * dims, 0.0);
    part.agg_count.assign(k, 0);
    part.resend_to.assign(num_parts, 0);
    std::vector<uint32_t> peers;
    for (uint32_t q = 0; q < num_parts; ++q) {
      if (q != p) peers.push_back(q);
    }
    std::vector<std::vector<uint32_t>> domains(peers.size(), centroid_ids);
    part.store = async::StateStore<KmPartialUpdate>(std::move(peers), std::move(domains));
  }

  async::AsyncConfig engine_config;
  engine_config.staleness_bound = staleness;
  engine_config.convergence_threshold = config.threshold;
  engine_config.max_iterations_per_worker = config.max_global_iterations * 10;
  engine_config.tuning = config.async_tuning;
  engine_config.name = config.job_prefix + "-async";
  async::AsyncEngine engine(cluster, num_parts, engine_config);
  // Default all-to-all out-peer topology: centroids are global state.

  // Count-weighted mean of the aggregate; a centroid nobody claims keeps its
  // position in `fallback`, like the serial rule for empty clusters.
  auto estimate = [k, dims](const AsyncKmPartition& part,
                            const std::vector<double>& fallback) {
    std::vector<double> est(static_cast<size_t>(k) * dims);
    for (uint32_t c = 0; c < k; ++c) {
      const size_t base = static_cast<size_t>(c) * dims;
      if (part.agg_count[c] > 0) {
        const double inv = 1.0 / static_cast<double>(part.agg_count[c]);
        for (uint32_t d = 0; d < dims; ++d) est[base + d] = part.agg_sum[base + d] * inv;
      } else {
        std::copy_n(fallback.begin() + base, dims, est.begin() + base);
      }
    }
    return est;
  };

  engine.set_compute([&](uint32_t p, async::AsyncContext& ctx) {
    AsyncKmPartition& part = parts[p];
    uint64_t ops = 0;

    // Refresh the centroid estimate from the aggregate (own partial + every
    // peer partial applied so far), then re-assign this partition's points
    // against it. Under staleness 0 the aggregate holds every peer's
    // previous-round partial, so this reproduces a synchronized Lloyd round.
    std::vector<double> est = estimate(part, part.centroids);
    const double movement_in = Movement(part.centroids, est, k, dims);
    std::vector<double> new_sum(static_cast<size_t>(k) * dims, 0.0);
    std::vector<uint64_t> new_count(k, 0);
    for (uint32_t i : part.points) {
      const auto point = data.Point(i);
      const uint32_t c = NearestCentroid(point, est, k, dims);
      double* row = new_sum.data() + static_cast<size_t>(c) * dims;
      for (uint32_t d = 0; d < dims; ++d) row[d] += point[d];
      new_count[c]++;
    }
    ops += static_cast<uint64_t>(k) * dims +
           part.points.size() * (AssignOps(k, dims) + dims);

    // Publish the partials that moved (assignments are discrete, so a stable
    // assignment reproduces bit-identical sums and goes quiet), folding them
    // into the local aggregate at the same time.
    for (uint32_t c = 0; c < k; ++c) {
      const size_t base = static_cast<size_t>(c) * dims;
      bool changed = new_count[c] != part.own_count[c];
      for (uint32_t d = 0; !changed && d < dims; ++d) {
        changed = new_sum[base + d] != part.own_sum[base + d];
      }
      if (!changed) continue;
      part.agg_count[c] += new_count[c] - part.own_count[c];
      part.own_count[c] = new_count[c];
      KmPartialUpdate update;
      update.centroid = c;
      update.count = new_count[c];
      update.sum.assign(new_sum.begin() + base, new_sum.begin() + base + dims);
      for (uint32_t d = 0; d < dims; ++d) {
        part.agg_sum[base + d] += new_sum[base + d] - part.own_sum[base + d];
        part.own_sum[base + d] = new_sum[base + d];
      }
      // Same record to every peer: encode once, broadcast the bytes.
      const serde::Buffer encoded = serde::Encode(update);
      for (uint32_t q = 0; q < num_parts; ++q) {
        if (q != p) ctx.EmitEncoded(q, encoded);
      }
      ops += static_cast<uint64_t>(num_parts) * dims;
    }

    // Recovery re-announcement: peers flagged by a restart get this
    // partition's full current partial set, changed or not — their view of
    // it may date from any earlier clock (or epoch). A partial the loop
    // above just broadcast goes out twice to such a peer; the replaced-delta
    // apply makes the duplicate a no-op.
    for (uint32_t q = 0; q < num_parts; ++q) {
      if (q == p || !part.resend_to[q]) continue;
      part.resend_to[q] = 0;
      for (uint32_t c = 0; c < k; ++c) {
        const size_t base = static_cast<size_t>(c) * dims;
        KmPartialUpdate update;
        update.centroid = c;
        update.count = part.own_count[c];
        update.sum.assign(part.own_sum.begin() + base,
                          part.own_sum.begin() + base + dims);
        ctx.Emit(q, update);
      }
      ops += static_cast<uint64_t>(k) * dims;
    }

    // The residual must see the worker's own contribution too — movement of
    // the incoming view alone would let a worker idle right after moving the
    // global mean with its fresh partial (and a single-partition run would
    // stop after one assignment pass).
    const double movement_own =
        Movement(est, estimate(part, est), k, dims);
    ctx.set_residual(std::max(movement_in, movement_own));
    part.centroids = std::move(est);
    ctx.AddOps(ops);
  });

  engine.set_apply([&](uint32_t p, uint32_t from, uint32_t from_clock,
                       uint32_t from_epoch, const async::UpdateBatch& batch) {
    AsyncKmPartition& part = parts[p];
    part.store.ObserveClock(from, from_clock);
    async::ForEachUpdate<KmPartialUpdate>(batch, [&](const KmPartialUpdate& u) {
      const uint32_t c = u.centroid;
      const size_t base = static_cast<size_t>(c) * dims;
      const auto put = part.store.Put(from, c, u, from_clock, from_epoch);
      if (!put.applied) return;  // out-of-order stale delivery
      const auto& old = put.replaced;
      const uint64_t old_count = old ? old->count : 0;
      part.agg_count[c] += u.count - old_count;
      for (uint32_t d = 0; d < dims; ++d) {
        part.agg_sum[base + d] += u.sum[d] - (old ? old->sum[d] : 0.0);
      }
    });
  });

  engine.set_snapshot([&](uint32_t p, serde::Writer& w) {
    const AsyncKmPartition& part = parts[p];
    serde::Serde<std::vector<double>>::Write(w, part.centroids);
    serde::Serde<std::vector<double>>::Write(w, part.own_sum);
    serde::Serde<std::vector<uint64_t>>::Write(w, part.own_count);
    serde::Serde<std::vector<double>>::Write(w, part.agg_sum);
    serde::Serde<std::vector<uint64_t>>::Write(w, part.agg_count);
    part.store.SnapshotTo(w);
  });
  engine.set_restore([&](uint32_t p, serde::Reader& r) {
    AsyncKmPartition& part = parts[p];
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.centroids).ok());
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.own_sum).ok());
    AMR_CHECK(serde::Serde<std::vector<uint64_t>>::Read(r, part.own_count).ok());
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.agg_sum).ok());
    AMR_CHECK(serde::Serde<std::vector<uint64_t>>::Read(r, part.agg_count).ok());
    AMR_CHECK(part.store.RestoreFrom(r).ok());
    // Everyone's view of this partition's partials is from the dead epoch.
    std::fill(part.resend_to.begin(), part.resend_to.end(), 1);
  });
  engine.set_on_peer_restart([&](uint32_t q, uint32_t restarted) {
    parts[q].resend_to[restarted] = 1;
  });

  async::AsyncResult engine_result = engine.Run();
  if (engine_stats != nullptr) *engine_stats = engine_result;

  // Final centroids from the authoritative partials: the count-weighted mean
  // of every partition's own last assignment (exact, independent of which
  // worker's view terminated last). Unclaimed centroids keep partition 0's
  // last estimated position, mirroring the serial empty-cluster rule.
  KMeansResult result;
  result.centroids = parts.empty() ? initial : parts[0].centroids;
  std::vector<double> total_sum(static_cast<size_t>(k) * dims, 0.0);
  std::vector<uint64_t> total_count(k, 0);
  for (const AsyncKmPartition& part : parts) {
    for (uint32_t c = 0; c < k; ++c) {
      total_count[c] += part.own_count[c];
      for (uint32_t d = 0; d < dims; ++d) {
        total_sum[static_cast<size_t>(c) * dims + d] +=
            part.own_sum[static_cast<size_t>(c) * dims + d];
      }
    }
  }
  for (uint32_t c = 0; c < k; ++c) {
    if (total_count[c] == 0) continue;
    for (uint32_t d = 0; d < dims; ++d) {
      result.centroids[static_cast<size_t>(c) * dims + d] =
          total_sum[static_cast<size_t>(c) * dims + d] /
          static_cast<double>(total_count[c]);
    }
  }

  result.converged = engine_result.converged;
  result.trace = AsyncRunTrace("async-kmeans", engine_result);
  result.sse = SumSquaredError(data, result.centroids, k);
  return result;
}

}  // namespace asyncmr::apps
