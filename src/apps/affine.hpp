// One affine fixed-point iteration on every engine. PageRank (the paper's
// Equation 1) and the Jacobi solver (Section VI) are the same iteration,
//     x_v = F_v( sum_{(u,v) in E} x_u / d_u ),
// a contraction, so asynchronous sweeps reach the serial fixed point too. The
// three drivers below hold it once:
//  * General — one MapReduce job per sweep: a scatter map over each partition
//    and a sum reduce applying F (the paper's baseline);
//  * Eager — one core::PartialSyncJob round per global iteration: lmap/lreduce
//    iterate the partition's block to local convergence with the external
//    sums frozen, refreshed edge by edge before each round (the paper's
//    partial synchronization);
//  * Async — barrier-free block solves on async::AsyncEngine: each worker
//    pulls its internal sums (BoundaryPlan::Part::ForEachInternalSum), pushes
//    delta-filtered boundary sums (BoundarySumUpdate) to the partitions that
//    consume them, and checkpoints its iterate, external sums and receive
//    store.
//
// An app supplies a Rule, a struct passed as a template parameter so its
// functions inline into the per-element loops:
//     static constexpr const char* kName;       trace labels: "<engine>-<kName>"
//     static constexpr double kInitial;         x at iteration zero
//     static constexpr double kLocalTolerance;  Eager/Async local convergence
//     static constexpr uint64_t kLmapOps;       Eager lmap ops per member,
//                                               plus one per internal out-edge
//     static constexpr uint64_t kLreduceOps;    Eager lreduce ops per member
//     double Divisor(graph::VertexId u);        d_u, for u with out-edges
//     double General(graph::VertexId v, double sum);           F_v, General
//     double Eager(graph::VertexId v, double sum);             F_v, Eager
//     double Async(graph::VertexId v, double sum, double ext); F_v, Async
// Each engine has its own F, so an app chooses the rounding and association
// of each engine's update (Jacobi divides by its diagonal in General and
// multiplies by the inverse elsewhere); Async gets the internal and the
// external sum apart. General divides by d_u; Eager and Async multiply by a
// precomputed 1 / d_u. tests/test_golden.cpp pins every engine's result bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "async/async_engine.hpp"
#include "async/state_store.hpp"
#include "cluster/cluster.hpp"
#include "core/metrics.hpp"
#include "core/partial_sync_job.hpp"
#include "graph/partition.hpp"
#include "mr/job.hpp"

namespace asyncmr::apps {

/// The async drivers' wire record: the refreshed sum of the sender's
/// contributions over its edges into one boundary vertex, which replaces the
/// sender's previous value in the receiver's external sum.
struct BoundarySumUpdate {
  uint32_t vertex = 0;
  double sum = 0.0;
  AMR_SERDE_FIELDS(vertex, sum)
};

namespace affine {

/// What every driver returns; the apps' wrappers rename x.
struct Run {
  std::vector<double> x;
  core::RunTrace trace;
  bool converged = false;
};

/// 1 / d_u, or 0 for a source without out-edges (it contributes nothing).
template <typename Rule>
double InverseDivisor(const graph::Digraph& g, const Rule& rule, graph::VertexId u) {
  return g.OutDegree(u) > 0 ? 1.0 / rule.Divisor(u) : 0.0;
}

/// One map task's sweep (General's mapper, Eager's gemit): every member u with
/// out-edges adds contrib(i, u) to each out-neighbour's sum, and every member
/// keeps its own key live in the reduce with a 0.0.
template <typename ContribFn>
void Scatter(const graph::Digraph& g, const std::vector<graph::VertexId>& members,
             ContribFn&& contrib, DenseAccumulator& scratch,
             mr::MapContext<uint32_t, double>& ctx) {
  uint64_t edge_ops = 0;
  for (uint32_t i = 0; i < members.size(); ++i) {
    const graph::VertexId u = members[i];
    const uint32_t deg = g.OutDegree(u);
    if (deg > 0) {
      const double c = contrib(i, u);
      for (graph::VertexId t : g.OutNeighbors(u)) scratch.Add(t, c);
      edge_ops += deg;
    }
    scratch.Add(u, 0.0);  // keepalive: every vertex must reach the reduce
  }
  ctx.AddOps(edge_ops + members.size());
  for (const auto& [t, val] : scratch.DrainSorted()) ctx.Emit(t, val);
}

/// The global reduce (General's reducer, Eager's greduce): update(v, sum) over
/// the summed contributions.
template <typename UpdateFn>
auto SumReduce(UpdateFn update) {
  return [update](const uint32_t& v, const std::vector<double>& values,
                  mr::ReduceContext<uint32_t, double>& ctx) {
    double sum = 0.0;
    for (double s : values) sum += s;
    ctx.AddOps(values.size());
    ctx.Emit(v, update(v, sum));
  };
}

// ---------------------------------------------------------------------------
// General: one sweep per MapReduce job.
// ---------------------------------------------------------------------------

template <typename Rule, typename Config>
Run General(cluster::SimCluster& cluster, const graph::Digraph& g,
            const graph::Partitioning& partitioning, const Config& config,
            const Rule& rule) {
  const uint32_t n = g.num_vertices();
  const auto members = partitioning.Members();
  const WaveRounds waves = WaveRounds::ForGraph(
      cluster, config.job_prefix, WaveRounds::Kind::kGeneral, g, partitioning);

  Run run;
  run.x.assign(n, Rule::kInitial);
  run.trace = core::RunTrace(std::string("general-") + Rule::kName);
  DenseAccumulator scratch(n);

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    mr::Job<uint32_t, double, uint32_t, double> job(cluster, waves.RoundJob(round));
    job.set_mapper([&](uint32_t p, mr::MapContext<uint32_t, double>& ctx) {
      Scatter(g, members[p],
              [&](uint32_t, graph::VertexId u) { return run.x[u] / rule.Divisor(u); },
              scratch, ctx);
    });
    job.set_reducer(
        SumReduce([&rule](uint32_t v, double sum) { return rule.General(v, sum); }));

    auto out = job.RunBlocking(waves.splits());
    const double residual = ApplyValues(out.records, run.x);
    WaveRounds::Record(run.trace, round, out.raw.stats, 0, residual);
    if (residual < config.tolerance) {
      run.converged = true;
      break;
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Eager: gmap = local MapReduce to convergence (PartialSyncJob).
// ---------------------------------------------------------------------------

template <typename Rule, typename Config>
Run Eager(cluster::SimCluster& cluster, const graph::Digraph& g,
          const graph::Partitioning& partitioning, const Config& config,
          const Rule& rule) {
  // One partition element: member i of a plan part, with 1 / d and its frozen
  // external sum. Local to the driver, so each app's PartialSyncJob is its
  // own instantiation, compiled and inlined within that app's file.
  struct EagerElement {
    const BoundaryPlan::Part* part = nullptr;
    uint32_t i = 0;  // local index in part
    double inv_divisor = 0.0;
    double ext = 0.0;  // refreshed every global round
  };
  const uint32_t n = g.num_vertices();
  const uint32_t num_parts = partitioning.num_parts;
  const BoundaryPlan plan = BoundaryPlan::Build(g, partitioning);
  const WaveRounds waves = WaveRounds::ForGraph(
      cluster, config.job_prefix, WaveRounds::Kind::kEager, g, partitioning);

  std::vector<std::vector<EagerElement>> records(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    const BoundaryPlan::Part& part = plan.parts[p];
    records[p].reserve(part.members.size());
    for (uint32_t i = 0; i < part.members.size(); ++i) {
      records[p].push_back({&part, i, InverseDivisor(g, rule, part.members[i])});
    }
  }

  Run run;
  run.x.assign(n, Rule::kInitial);
  run.trace = core::RunTrace(std::string("eager-") + Rule::kName);
  DenseAccumulator scratch(n);

  // --- the paper's four-function API ----------------------------------------
  using Psj = core::PartialSyncJob<EagerElement, uint32_t, double, core::SumCombine>;
  typename Psj::Config psj_config;
  psj_config.local.max_local_iterations = config.max_local_iterations;
  Psj psj(cluster, psj_config);

  psj.set_partition_data([&](uint32_t p) {
    return std::span<const EagerElement>(records[p]);
  });
  // The gmap hashtable is indexed by member: slot i holds members[i]'s x.
  psj.set_init_state([&](uint32_t p) {
    typename Psj::State state;
    for (graph::VertexId u : plan.parts[p].members) state.push_back(run.x[u]);
    return state;
  });
  psj.set_lmap([](const EagerElement& x, const typename Psj::State& state,
                  typename Psj::Intermediate& out) {
    const double c = state[x.i] * x.inv_divisor;
    const auto internal = x.part->Internal(x.i);
    out.AddOps(Rule::kLmapOps + internal.size());
    for (uint32_t t : internal) out.EmitLocalIntermediate(t, c);
    // External sums are frozen for the round; emitting them keeps every
    // member key live in lreduce.
    out.EmitLocalIntermediate(x.i, x.ext);
  });
  psj.set_lreduce([&](uint32_t p, uint32_t i, double sum, const typename Psj::State&,
                      typename Psj::LocalReduceCtx& ctx) {
    ctx.AddOps(Rule::kLreduceOps);
    ctx.EmitLocal(i, rule.Eager(plan.parts[p].members[i], sum));
  });
  psj.set_local_convergence([](const typename Psj::State& prev,
                               const typename Psj::State& next, uint32_t) {
    for (size_t i = 0; i < next.size(); ++i) {
      if (std::abs(next[i] - prev[i]) >= Rule::kLocalTolerance) return false;
    }
    return true;
  });
  psj.set_gemit([&](uint32_t p, const typename Psj::State& state,
                    mr::MapContext<uint32_t, double>& ctx) {
    Scatter(
        g, plan.parts[p].members,
        [&](uint32_t i, graph::VertexId) { return state[i] * records[p][i].inv_divisor; },
        scratch, ctx);
  });
  psj.set_greduce(
      SumReduce([&rule](uint32_t v, double sum) { return rule.Eager(v, sum); }));

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    // Refresh the frozen external sums from the current global x, edge by
    // edge so every sum keeps the order of a full source-major scan. (In
    // Hadoop this data arrives as part of the gmap's input file; its
    // computation cost is already charged by gemit/greduce of the previous
    // round, so no extra virtual ops here.)
    for (auto& part_records : records) {
      for (EagerElement& x : part_records) x.ext = 0.0;
    }
    plan.ForEachCutEdge([&](uint32_t p, uint32_t i, uint32_t q, uint32_t l, double) {
      records[q][l].ext += run.x[plan.parts[p].members[i]] * records[p][i].inv_divisor;
    });

    psj.mutable_config().job = waves.RoundJob(round);
    auto out = psj.RunGlobalIteration(waves.splits());
    const double residual = ApplyValues(out.records, run.x);
    WaveRounds::Record(run.trace, round, out.raw.stats, psj.last_local_iterations(),
                       residual);
    if (residual < config.tolerance) {
      run.converged = true;
      break;
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Async: barrier-free block solves on async::AsyncEngine.
// ---------------------------------------------------------------------------

template <typename Rule, typename Config>
Run Async(cluster::SimCluster& cluster, const graph::Digraph& g,
          const graph::Partitioning& partitioning, const Config& config,
          const Rule& rule, uint32_t staleness, async::AsyncResult* engine_stats) {
  // Per-partition worker state, local to the driver like Eager's element.
  struct AsyncPart {
    std::vector<double> inv_divisor;  // per member
    std::vector<double> x;            // per member
    ExternalSums ext;                 // summed external contributions
    async::StateStore<double> store;  // latest sum per (sender, vertex)

    double Contribution(uint32_t i) const { return x[i] * inv_divisor[i]; }
  };
  const uint32_t n = g.num_vertices();
  const uint32_t num_parts = partitioning.num_parts;
  // Sum changes smaller than this are not re-pushed. A receiver can
  // accumulate one withheld delta per in-peer, and F scales the external sum
  // by at most 1, so the threshold scales down with the partition count to
  // keep the total silenced error under half the global tolerance regardless
  // of fan-in (AuditWithheldSums checks it).
  const double send_eps = config.tolerance * 0.5 / std::max(1u, num_parts);
  const BoundaryPlan plan = BoundaryPlan::Build(g, partitioning);
  // Re-announcement pushes every target unconditionally: a cleared filter is
  // NOT enough, since a sum within send_eps of zero would stay silent while
  // the peer holds a stale dead-epoch value for it.
  DeltaFilter<double> last_sent(plan, 0.0, std::numeric_limits<double>::infinity());

  std::vector<AsyncPart> parts(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    AsyncPart& part = parts[p];
    const auto& members = plan.parts[p].members;
    part.inv_divisor.resize(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      part.inv_divisor[i] = InverseDivisor(g, rule, members[i]);
    }
    part.x.assign(members.size(), Rule::kInitial);
    part.ext.values.assign(members.size(), 0.0);
    part.store = async::StateStore<double>(plan.parts[p].in_peers, plan.InTargets(p));
  }

  // Seed the external sums from the initial x, so iteration one starts from
  // the state a synchronized round zero would, and the delta filters agree
  // with the receivers' seeded views. A zero sum is what an empty view
  // already holds, so only nonzero sums are stored.
  for (uint32_t p = 0; p < num_parts; ++p) {
    const AsyncPart& part = parts[p];
    for (size_t b = 0; b < plan.parts[p].out.size(); ++b) {
      const BoundaryPlan::OutGroup& group = plan.parts[p].out[b];
      AsyncPart& peer = parts[group.peer];
      std::vector<double>& sent = last_sent.sent(p, b);
      for (size_t j = 0; j < group.targets.size(); ++j) {
        const double sum =
            group.RunSum(j, [&](uint32_t i) { return part.Contribution(i); });
        sent[j] = sum;
        if (sum == 0.0) continue;
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
    AsyncPart& part = parts[p];
    const BoundaryPlan::Part& part_plan = plan.parts[p];
    const auto m = static_cast<uint32_t>(part_plan.members.size());
    if (m == 0) return;
    const std::vector<double> before = part.x;
    uint64_t ops = 0;

    // Block solve to local convergence with the external sums frozen (the
    // paper's lmap/lreduce loop, computed directly).
    std::vector<double> contrib(m + 1, 0.0);  // the last is the pull padding
    std::vector<double> next(m);
    for (uint32_t sweep = 0; sweep < config.max_local_iterations; ++sweep) {
      for (uint32_t i = 0; i < m; ++i) contrib[i] = part.Contribution(i);
      double sweep_residual = 0.0;
      part_plan.ForEachInternalSum(contrib, [&](uint32_t t, double sum) {
        next[t] = rule.Async(part_plan.members[t], sum, part.ext.values[t]);
        sweep_residual = std::max(sweep_residual, std::abs(next[t] - part.x[t]));
      });
      part.x.swap(next);
      ops += part_plan.internal_edges() + 2 * m;
      if (sweep_residual < Rule::kLocalTolerance) break;
    }

    double residual = 0.0;
    for (uint32_t i = 0; i < m; ++i) {
      residual = std::max(residual, std::abs(part.x[i] - before[i]));
    }
    ctx.set_residual(residual);

    // Push refreshed boundary sums, delta-filtered.
    for (size_t b = 0; b < part_plan.out.size(); ++b) {
      const BoundaryPlan::OutGroup& group = part_plan.out[b];
      std::vector<double>& sent = last_sent.sent(p, b);
      for (size_t j = 0; j < group.targets.size(); ++j) {
        const double sum =
            group.RunSum(j, [&](uint32_t i) { return part.Contribution(i); });
        if (std::abs(sum - sent[j]) > send_eps) {
          ctx.Emit(group.peer, BoundarySumUpdate{group.targets[j], sum});
          sent[j] = sum;
        }
      }
      ops += group.num_edges();
    }
    ctx.AddOps(ops);
  });

  engine.set_apply([&](uint32_t p, uint32_t from, uint32_t from_clock,
                       uint32_t from_epoch, const async::UpdateBatch& batch) {
    AsyncPart& part = parts[p];
    part.store.ObserveClock(from, from_clock);
    async::ForEachUpdate<BoundarySumUpdate>(batch, [&](const BoundarySumUpdate& u) {
      const auto put = part.store.Put(from, u.vertex, u.sum, from_clock, from_epoch);
      if (!put.applied) return;  // out-of-order stale delivery
      part.ext.Replace(plan.LocalIndex(p, u.vertex), put.replaced.value_or(0.0), u.sum);
    });
  });

  engine.set_snapshot([&](uint32_t p, serde::Writer& w) {
    const AsyncPart& part = parts[p];
    serde::Serde<std::vector<double>>::Write(w, part.x);
    serde::Serde<std::vector<double>>::Write(w, part.ext.values);
    part.store.SnapshotTo(w);
  });
  engine.set_restore([&](uint32_t p, serde::Reader& r) {
    AsyncPart& part = parts[p];
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.x).ok());
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.ext.values).ok());
    AMR_CHECK(part.store.RestoreFrom(r).ok());
    last_sent.ResendAll(p);
  });

  async::AsyncResult engine_result = engine.Run();
  if (engine_stats != nullptr) *engine_stats = engine_result;

  Run run;
  run.x.assign(n, Rule::kInitial);
  for (uint32_t p = 0; p < num_parts; ++p) {
    for (uint32_t i = 0; i < parts[p].x.size(); ++i) {
      run.x[plan.parts[p].members[i]] = parts[p].x[i];
    }
  }
  AMR_IF_AUDIT(if (engine_result.converged) {
    AuditWithheldSums(
        plan, parts, config.tolerance,
        [](const AsyncPart& part, uint32_t i) { return part.Contribution(i); });
  })
  run.converged = engine_result.converged;
  run.trace = AsyncRunTrace(std::string("async-") + Rule::kName, engine_result);
  return run;
}

}  // namespace affine
}  // namespace asyncmr::apps
