#include "apps/pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "apps/app_common.hpp"
#include "async/state_store.hpp"
#include "core/partial_sync_job.hpp"
#include "mr/job.hpp"

namespace asyncmr::apps {

namespace {

// Eager and async local convergence threshold (inf-norm of one local
// iteration's change). A decade below the global tolerance so local solves
// land close enough to the block fixed point that the outer iteration, not
// leftover local error, controls the endgame.
constexpr double kLocalTolerance = 1e-6;

/// The global reduce (General's reducer, Eager's greduce): Equation (1) over
/// the summed contributions.
void ReduceRank(const uint32_t& v, const std::vector<double>& contribs,
                mr::ReduceContext<uint32_t, double>& ctx) {
  double sum = 0.0;
  for (double c : contribs) sum += c;
  ctx.AddOps(contribs.size());
  ctx.Emit(v, (1.0 - kPageRankDamping) + kPageRankDamping * sum);
}

}  // namespace

std::vector<double> SerialPageRank(const graph::Digraph& g,
                                   const PageRankConfig& config,
                                   uint32_t* iterations_out) {
  const uint32_t n = g.num_vertices();
  std::vector<double> ranks(n, 1.0);
  std::vector<double> sums(n, 0.0);
  const double chi = kPageRankDamping;
  uint32_t iter = 0;
  const uint32_t cap = config.max_global_iterations * 10;
  for (; iter < cap; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0);
    for (graph::VertexId u = 0; u < n; ++u) {
      const uint32_t deg = g.OutDegree(u);
      if (deg == 0) continue;
      const double c = ranks[u] / deg;
      for (graph::VertexId t : g.OutNeighbors(u)) sums[t] += c;
    }
    double residual = 0.0;
    for (graph::VertexId v = 0; v < n; ++v) {
      const double next = (1.0 - chi) + chi * sums[v];
      residual = std::max(residual, std::abs(next - ranks[v]));
      ranks[v] = next;
    }
    if (residual < config.tolerance) {
      ++iter;
      break;
    }
  }
  if (iterations_out != nullptr) *iterations_out = iter;
  return ranks;
}

// ---------------------------------------------------------------------------
// General PageRank: one contribution sweep per MapReduce job.
// ---------------------------------------------------------------------------

PageRankResult GeneralPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                               const graph::Partitioning& partitioning,
                               const PageRankConfig& config) {
  const uint32_t n = g.num_vertices();
  const auto members = partitioning.Members();
  const WaveRounds waves = WaveRounds::ForGraph(
      cluster, config.job_prefix, WaveRounds::Kind::kGeneral, g, partitioning);

  PageRankResult result;
  result.ranks.assign(n, 1.0);
  result.trace = core::RunTrace("general-pagerank");
  DenseAccumulator scratch(n);

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    mr::Job<uint32_t, double, uint32_t, double> job(cluster, waves.RoundJob(round));
    job.set_mapper([&](uint32_t p, mr::MapContext<uint32_t, double>& ctx) {
      uint64_t edge_ops = 0;
      for (graph::VertexId u : members[p]) {
        const uint32_t deg = g.OutDegree(u);
        if (deg > 0) {
          const double c = result.ranks[u] / deg;
          for (graph::VertexId t : g.OutNeighbors(u)) scratch.Add(t, c);
          edge_ops += deg;
        }
        scratch.Add(u, 0.0);  // keepalive: every vertex must reach greduce
      }
      ctx.AddOps(edge_ops + members[p].size());
      for (const auto& [t, val] : scratch.DrainSorted()) ctx.Emit(t, val);
    });
    job.set_reducer(ReduceRank);

    auto out = job.RunBlocking(waves.splits());
    const double residual = ApplyValues(out.records, result.ranks);
    WaveRounds::Record(result.trace, round, out.raw.stats, 0, residual);
    if (residual < config.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Eager PageRank: gmap = local MapReduce to convergence (PartialSyncJob).
// ---------------------------------------------------------------------------

namespace {

/// One partition element: member i of a plan part, with its frozen external
/// contribution.
struct EagerVertex {
  const BoundaryPlan::Part* part = nullptr;
  uint32_t i = 0;  // local index in part
  double inv_outdeg = 0.0;
  double ext = 0.0;  // refreshed every global round
};

}  // namespace

PageRankResult EagerPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                             const graph::Partitioning& partitioning,
                             const PageRankConfig& config) {
  const uint32_t n = g.num_vertices();
  const uint32_t num_parts = partitioning.num_parts;
  const BoundaryPlan plan = BoundaryPlan::Build(g, partitioning);
  const WaveRounds waves = WaveRounds::ForGraph(
      cluster, config.job_prefix, WaveRounds::Kind::kEager, g, partitioning);

  std::vector<std::vector<EagerVertex>> records(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    const BoundaryPlan::Part& part = plan.parts[p];
    records[p].reserve(part.members.size());
    for (uint32_t i = 0; i < part.members.size(); ++i) {
      const uint32_t deg = g.OutDegree(part.members[i]);
      records[p].push_back({&part, i, deg > 0 ? 1.0 / deg : 0.0});
    }
  }

  PageRankResult result;
  result.ranks.assign(n, 1.0);
  result.trace = core::RunTrace("eager-pagerank");
  DenseAccumulator scratch(n);

  // --- the paper's four-function API ----------------------------------------
  using Psj = core::PartialSyncJob<EagerVertex, uint32_t, double, core::SumCombine>;
  typename Psj::Config psj_config;
  psj_config.local.max_local_iterations = config.max_local_iterations;
  Psj psj(cluster, psj_config);

  psj.set_partition_data([&](uint32_t p) {
    return std::span<const EagerVertex>(records[p]);
  });
  // The gmap hashtable is indexed by member: slot i holds members[i]'s rank.
  psj.set_init_state([&](uint32_t p) {
    Psj::State state;
    for (graph::VertexId u : plan.parts[p].members) state.push_back(result.ranks[u]);
    return state;
  });
  psj.set_lmap([](const EagerVertex& x, const Psj::State& state, Psj::Intermediate& out) {
    const double c = state[x.i] * x.inv_outdeg;
    const auto internal = x.part->Internal(x.i);
    out.AddOps(2 + internal.size());
    for (uint32_t t : internal) out.EmitLocalIntermediate(t, c);
    // External contributions are frozen for the round; emitting them keeps
    // every member key live in lreduce.
    out.EmitLocalIntermediate(x.i, x.ext);
  });
  psj.set_lreduce([](uint32_t, uint32_t i, double sum, const Psj::State&,
                     Psj::LocalReduceCtx& ctx) {
    ctx.AddOps(1);
    ctx.EmitLocal(i, (1.0 - kPageRankDamping) + kPageRankDamping * sum);
  });
  psj.set_local_convergence([](const Psj::State& prev, const Psj::State& next, uint32_t) {
    for (size_t i = 0; i < next.size(); ++i) {
      if (std::abs(next[i] - prev[i]) >= kLocalTolerance) return false;
    }
    return true;
  });
  psj.set_gemit([&](uint32_t p, const Psj::State& state,
                    mr::MapContext<uint32_t, double>& ctx) {
    uint64_t edge_ops = 0;
    for (const EagerVertex& x : records[p]) {
      const graph::VertexId u = x.part->members[x.i];
      const double c = state[x.i] * x.inv_outdeg;
      if (x.inv_outdeg > 0.0) {
        for (graph::VertexId t : g.OutNeighbors(u)) scratch.Add(t, c);
        edge_ops += g.OutDegree(u);
      }
      scratch.Add(u, 0.0);  // keepalive
    }
    ctx.AddOps(edge_ops + records[p].size());
    for (const auto& [t, val] : scratch.DrainSorted()) ctx.Emit(t, val);
  });
  psj.set_greduce(ReduceRank);

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    // Refresh frozen external contributions from the current global ranks,
    // edge by edge so every sum keeps the order of a full source-major scan.
    // (In Hadoop this data arrives as part of the gmap's input file; its
    // computation cost is already charged by gemit/greduce of the previous
    // round, so no extra virtual ops here.)
    for (auto& part_records : records) {
      for (EagerVertex& x : part_records) x.ext = 0.0;
    }
    plan.ForEachCutEdge([&](uint32_t p, uint32_t i, uint32_t q, uint32_t l, double) {
      records[q][l].ext +=
          result.ranks[plan.parts[p].members[i]] * records[p][i].inv_outdeg;
    });

    psj.mutable_config().job = waves.RoundJob(round);
    auto out = psj.RunGlobalIteration(waves.splits());
    const double residual = ApplyValues(out.records, result.ranks);
    WaveRounds::Record(result.trace, round, out.raw.stats,
                       psj.last_local_iterations(), residual);
    if (residual < config.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Async PageRank: barrier-free block solves on async::AsyncEngine.
// ---------------------------------------------------------------------------

namespace {

/// Per-partition worker state for the asynchronous engine.
struct AsyncPrPartition {
  std::vector<double> inv_outdeg;  // per member
  std::vector<double> ranks;       // per member
  ExternalSums ext;                // summed external contributions
  async::StateStore<double> store;  // latest contribution per (sender, vertex)
};

}  // namespace

PageRankResult AsyncPageRank(cluster::SimCluster& cluster, const graph::Digraph& g,
                             const graph::Partitioning& partitioning,
                             const PageRankConfig& config, uint32_t staleness,
                             async::AsyncResult* engine_stats) {
  const uint32_t n = g.num_vertices();
  const uint32_t num_parts = partitioning.num_parts;
  const double chi = kPageRankDamping;
  // Contribution changes smaller than this are not re-pushed. A receiver can
  // accumulate one withheld delta per in-peer, so the threshold scales down
  // with the partition count to keep the total silenced error under half the
  // global tolerance regardless of fan-in (AuditWithheldSums checks it).
  const double send_eps =
      config.tolerance * 0.5 / std::max(1u, partitioning.num_parts);
  const BoundaryPlan plan = BoundaryPlan::Build(g, partitioning);
  // Re-announcement pushes every target unconditionally: a cleared filter is
  // NOT enough, since a sum within send_eps of zero would stay silent while
  // the peer holds a stale dead-epoch value for it.
  DeltaFilter<double> last_sent(plan, 0.0, std::numeric_limits<double>::infinity());

  std::vector<AsyncPrPartition> parts(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    AsyncPrPartition& part = parts[p];
    const auto& members = plan.parts[p].members;
    part.inv_outdeg.resize(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      const uint32_t deg = g.OutDegree(members[i]);
      part.inv_outdeg[i] = deg > 0 ? 1.0 / deg : 0.0;
    }
    part.ranks.assign(members.size(), 1.0);
    part.ext.values.assign(members.size(), 0.0);
    part.store = async::StateStore<double>(plan.parts[p].in_peers, plan.InTargets(p));
  }

  // Seed external contributions from the initial all-ones ranks so iteration
  // one starts from the same state a synchronized round zero would, and the
  // delta filters agree with the receivers' seeded views.
  for (uint32_t p = 0; p < num_parts; ++p) {
    const AsyncPrPartition& part = parts[p];
    for (size_t b = 0; b < plan.parts[p].out.size(); ++b) {
      const BoundaryPlan::OutGroup& group = plan.parts[p].out[b];
      AsyncPrPartition& peer = parts[group.peer];
      std::vector<double>& sent = last_sent.sent(p, b);
      for (size_t j = 0; j < group.targets.size(); ++j) {
        // Every rank is 1.0, so each contribution is just inv_outdeg.
        const double sum =
            group.RunSum(j, [&](uint32_t i) { return part.inv_outdeg[i]; });
        sent[j] = sum;
        peer.store.Put(p, group.targets[j], sum, /*clock=*/0);
        peer.ext.Replace(plan.local_of[group.targets[j]], 0.0, sum);
      }
    }
  }

  async::AsyncConfig engine_config;
  engine_config.staleness_bound = staleness;
  engine_config.convergence_threshold = config.tolerance;
  engine_config.max_iterations_per_worker = config.max_global_iterations * 10;
  engine_config.tuning = config.async_tuning;
  engine_config.name = config.job_prefix + "-async";
  async::AsyncEngine engine(cluster, num_parts, engine_config);

  AttachBoundary(engine, plan, last_sent);

  engine.set_compute([&](uint32_t p, async::AsyncContext& ctx) {
    AsyncPrPartition& part = parts[p];
    const BoundaryPlan::Part& part_plan = plan.parts[p];
    const auto m = static_cast<uint32_t>(part_plan.members.size());
    if (m == 0) return;
    const std::vector<double> before = part.ranks;
    uint64_t ops = 0;

    // Block solve to local convergence with external contributions frozen
    // (the paper's lmap/lreduce loop, computed directly).
    std::vector<double> contrib(m + 1, 0.0);  // the last is the pull padding
    std::vector<double> next(m);
    for (uint32_t sweep = 0; sweep < config.max_local_iterations; ++sweep) {
      for (uint32_t i = 0; i < m; ++i) contrib[i] = part.ranks[i] * part.inv_outdeg[i];
      double sweep_residual = 0.0;
      part_plan.ForEachInternalSum(contrib, [&](uint32_t t, double sum) {
        next[t] = (1.0 - chi) + chi * (sum + part.ext.values[t]);
        sweep_residual = std::max(sweep_residual, std::abs(next[t] - part.ranks[t]));
      });
      part.ranks.swap(next);
      ops += part_plan.internal_edges() + 2 * m;
      if (sweep_residual < kLocalTolerance) break;
    }

    double residual = 0.0;
    for (uint32_t i = 0; i < m; ++i) {
      residual = std::max(residual, std::abs(part.ranks[i] - before[i]));
    }
    ctx.set_residual(residual);

    // Push refreshed boundary contributions, delta-filtered.
    for (size_t b = 0; b < part_plan.out.size(); ++b) {
      const BoundaryPlan::OutGroup& group = part_plan.out[b];
      std::vector<double>& sent = last_sent.sent(p, b);
      for (size_t j = 0; j < group.targets.size(); ++j) {
        const double sum = group.RunSum(
            j, [&](uint32_t i) { return part.ranks[i] * part.inv_outdeg[i]; });
        if (std::abs(sum - sent[j]) > send_eps) {
          ctx.Emit(group.peer, PrBoundaryUpdate{group.targets[j], sum});
          sent[j] = sum;
        }
      }
      ops += group.num_edges();
    }
    ctx.AddOps(ops);
  });

  engine.set_apply([&](uint32_t p, uint32_t from, uint32_t from_clock,
                       uint32_t from_epoch, const async::UpdateBatch& batch) {
    AsyncPrPartition& part = parts[p];
    part.store.ObserveClock(from, from_clock);
    async::ForEachUpdate<PrBoundaryUpdate>(batch, [&](const PrBoundaryUpdate& u) {
      const auto put =
          part.store.Put(from, u.vertex, u.contribution, from_clock, from_epoch);
      if (!put.applied) return;  // out-of-order stale delivery
      part.ext.Replace(plan.LocalIndex(p, u.vertex), put.replaced.value_or(0.0),
                       u.contribution);
    });
  });

  engine.set_snapshot([&](uint32_t p, serde::Writer& w) {
    const AsyncPrPartition& part = parts[p];
    serde::Serde<std::vector<double>>::Write(w, part.ranks);
    serde::Serde<std::vector<double>>::Write(w, part.ext.values);
    part.store.SnapshotTo(w);
  });
  engine.set_restore([&](uint32_t p, serde::Reader& r) {
    AsyncPrPartition& part = parts[p];
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.ranks).ok());
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.ext.values).ok());
    AMR_CHECK(part.store.RestoreFrom(r).ok());
    last_sent.ResendAll(p);
  });

  async::AsyncResult engine_result = engine.Run();
  if (engine_stats != nullptr) *engine_stats = engine_result;

  PageRankResult result;
  result.ranks.assign(n, 1.0);
  for (uint32_t p = 0; p < num_parts; ++p) {
    for (uint32_t i = 0; i < parts[p].ranks.size(); ++i) {
      result.ranks[plan.parts[p].members[i]] = parts[p].ranks[i];
    }
  }
  AMR_IF_AUDIT(if (engine_result.converged) {
    AuditWithheldSums(plan, parts, config.tolerance,
                      [](const AsyncPrPartition& part, uint32_t i) {
                        return part.ranks[i] * part.inv_outdeg[i];
                      });
  })
  result.converged = engine_result.converged;
  result.trace = AsyncRunTrace("async-pagerank", engine_result);
  return result;
}

}  // namespace asyncmr::apps
