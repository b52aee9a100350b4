#include "apps/jacobi.hpp"

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

// Eager and async local convergence threshold, a decade below the global
// tolerance.
constexpr double kLocalTolerance = 1e-9;

/// The map-side sweep (General's mapper, Eager's gemit): each member u adds
/// x(u) to every neighbour's row sum and keeps its own row live. value(u)
/// reads x(u) from wherever the caller holds it.
template <typename ValueFn>
void ScatterRowSums(const graph::Digraph& g_sym,
                    const std::vector<graph::VertexId>& members, ValueFn&& value,
                    DenseAccumulator& scratch, mr::MapContext<uint32_t, double>& ctx) {
  uint64_t ops = 0;
  for (graph::VertexId u : members) {
    const double xu = value(u);
    for (graph::VertexId t : g_sym.OutNeighbors(u)) scratch.Add(t, xu);
    scratch.Add(u, 0.0);  // keepalive
    ops += g_sym.OutDegree(u) + 1;
  }
  ctx.AddOps(ops);
  for (const auto& [t, val] : scratch.DrainSorted()) ctx.Emit(t, val);
}

}  // namespace

std::vector<double> SerialJacobi(const graph::Digraph& g_sym,
                                 const std::vector<double>& b,
                                 const JacobiConfig& config,
                                 uint32_t* iterations_out) {
  const uint32_t n = g_sym.num_vertices();
  AMR_CHECK_EQ(b.size(), n);
  std::vector<double> x(n, 0.0), sums(n, 0.0);
  uint32_t iter = 0;
  for (; iter < config.max_global_iterations * 10; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0);
    for (graph::VertexId u = 0; u < n; ++u) {
      for (graph::VertexId t : g_sym.OutNeighbors(u)) sums[t] += x[u];
    }
    double residual = 0.0;
    for (graph::VertexId v = 0; v < n; ++v) {
      const double next = (b[v] + sums[v]) / (g_sym.OutDegree(v) + 1.0);
      residual = std::max(residual, std::abs(next - x[v]));
      x[v] = next;
    }
    if (residual < config.tolerance) {
      ++iter;
      break;
    }
  }
  if (iterations_out != nullptr) *iterations_out = iter;
  return x;
}

double JacobiResidual(const graph::Digraph& g_sym, const std::vector<double>& b,
                      const std::vector<double>& x) {
  const uint32_t n = g_sym.num_vertices();
  std::vector<double> ax(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    ax[v] = (g_sym.OutDegree(v) + 1.0) * x[v];
  }
  for (graph::VertexId v = 0; v < n; ++v) {
    for (graph::VertexId t : g_sym.OutNeighbors(v)) ax[t] -= x[v];
  }
  double r = 0.0;
  for (graph::VertexId v = 0; v < n; ++v) r = std::max(r, std::abs(ax[v] - b[v]));
  return r;
}

// ---------------------------------------------------------------------------
// General Jacobi: one sweep per MapReduce job.
// ---------------------------------------------------------------------------

JacobiResult GeneralJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                           const std::vector<double>& b,
                           const graph::Partitioning& partitioning,
                           const JacobiConfig& config) {
  const uint32_t n = g_sym.num_vertices();
  AMR_CHECK_EQ(b.size(), n);
  const auto members = partitioning.Members();
  const WaveRounds waves = WaveRounds::ForGraph(
      cluster, config.job_prefix, WaveRounds::Kind::kGeneral, g_sym, partitioning);

  JacobiResult result;
  result.x.assign(n, 0.0);
  result.trace = core::RunTrace("general-jacobi");
  DenseAccumulator scratch(n);

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    mr::Job<uint32_t, double, uint32_t, double> job(cluster, waves.RoundJob(round));
    job.set_mapper([&](uint32_t p, mr::MapContext<uint32_t, double>& ctx) {
      ScatterRowSums(g_sym, members[p], [&](graph::VertexId u) { return result.x[u]; },
                     scratch, ctx);
    });
    job.set_reducer([&](const uint32_t& v, const std::vector<double>& sums,
                        mr::ReduceContext<uint32_t, double>& ctx) {
      double sum = 0.0;
      for (double s : sums) sum += s;
      ctx.AddOps(sums.size());
      ctx.Emit(v, (b[v] + sum) / (g_sym.OutDegree(v) + 1.0));
    });

    auto out = job.RunBlocking(waves.splits());
    const double residual = ApplyValues(out.records, result.x);
    WaveRounds::Record(result.trace, round, out.raw.stats, 0, residual);
    if (residual < config.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.residual_inf = JacobiResidual(g_sym, b, result.x);
  return result;
}

// ---------------------------------------------------------------------------
// Eager Jacobi: block-Jacobi inner iterations per gmap.
// ---------------------------------------------------------------------------

namespace {

/// One partition element: member i of a plan part, with its frozen external
/// neighbour sum.
struct JacVertex {
  const BoundaryPlan::Part* part = nullptr;
  uint32_t i = 0;    // local index in part
  double ext = 0.0;  // refreshed per round
};

}  // namespace

JacobiResult EagerJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                         const std::vector<double>& b,
                         const graph::Partitioning& partitioning,
                         const JacobiConfig& config) {
  const uint32_t n = g_sym.num_vertices();
  AMR_CHECK_EQ(b.size(), n);
  const uint32_t num_parts = partitioning.num_parts;
  const BoundaryPlan plan = BoundaryPlan::Build(g_sym, partitioning);
  const WaveRounds waves = WaveRounds::ForGraph(
      cluster, config.job_prefix, WaveRounds::Kind::kEager, g_sym, partitioning);

  std::vector<std::vector<JacVertex>> records(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    const BoundaryPlan::Part& part = plan.parts[p];
    records[p].reserve(part.members.size());
    for (uint32_t i = 0; i < part.members.size(); ++i) records[p].push_back({&part, i});
  }

  JacobiResult result;
  result.x.assign(n, 0.0);
  result.trace = core::RunTrace("eager-jacobi");
  DenseAccumulator scratch(n);

  using Psj = core::PartialSyncJob<JacVertex, uint32_t, double, core::SumCombine>;
  typename Psj::Config psj_config;
  psj_config.local.max_local_iterations = config.max_local_iterations;
  Psj psj(cluster, psj_config);

  psj.set_partition_data(
      [&](uint32_t p) { return std::span<const JacVertex>(records[p]); });
  // Slot i holds members[i]'s iterate.
  psj.set_init_state([&](uint32_t p) {
    Psj::State state;
    for (graph::VertexId u : plan.parts[p].members) state.push_back(result.x[u]);
    return state;
  });
  psj.set_lmap([](const JacVertex& rec, const Psj::State& state, Psj::Intermediate& out) {
    const double xu = state[rec.i];
    const auto internal = rec.part->Internal(rec.i);
    out.AddOps(1 + internal.size());
    for (uint32_t t : internal) out.EmitLocalIntermediate(t, xu);
    out.EmitLocalIntermediate(rec.i, rec.ext);  // frozen external sum
  });
  std::vector<double> inv_diag(n);
  for (graph::VertexId v = 0; v < n; ++v) inv_diag[v] = 1.0 / (g_sym.OutDegree(v) + 1.0);
  psj.set_lreduce([&](uint32_t p, uint32_t i, double sum, const Psj::State&,
                      Psj::LocalReduceCtx& ctx) {
    const graph::VertexId v = plan.parts[p].members[i];
    ctx.AddOps(3);
    ctx.EmitLocal(i, (b[v] + sum) * inv_diag[v]);
  });
  psj.set_local_convergence([](const Psj::State& prev, const Psj::State& next, uint32_t) {
    for (size_t i = 0; i < next.size(); ++i) {
      if (std::abs(next[i] - prev[i]) >= kLocalTolerance) return false;
    }
    return true;
  });
  psj.set_gemit([&](uint32_t p, const Psj::State& state,
                    mr::MapContext<uint32_t, double>& ctx) {
    ScatterRowSums(g_sym, plan.parts[p].members,
                   [&](graph::VertexId u) { return state[plan.local_of[u]]; }, scratch,
                   ctx);
  });
  psj.set_greduce([&b, &inv_diag](const uint32_t& v, const std::vector<double>& sums,
                                  mr::ReduceContext<uint32_t, double>& ctx) {
    double sum = 0.0;
    for (double s : sums) sum += s;
    ctx.AddOps(sums.size());
    ctx.Emit(v, (b[v] + sum) * inv_diag[v]);
  });

  for (uint32_t round = 0; round < config.max_global_iterations; ++round) {
    // Freeze external neighbour sums from the current global iterate, edge
    // by edge so every sum keeps the order of a full source-major scan.
    for (auto& part_records : records) {
      for (JacVertex& rec : part_records) rec.ext = 0.0;
    }
    plan.ForEachCutEdge([&](uint32_t p, uint32_t i, uint32_t q, uint32_t l, double) {
      records[q][l].ext += result.x[plan.parts[p].members[i]];
    });

    psj.mutable_config().job = waves.RoundJob(round);
    auto out = psj.RunGlobalIteration(waves.splits());
    const double residual = ApplyValues(out.records, result.x);
    WaveRounds::Record(result.trace, round, out.raw.stats,
                       psj.last_local_iterations(), residual);
    if (residual < config.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.residual_inf = JacobiResidual(g_sym, b, result.x);
  return result;
}

// ---------------------------------------------------------------------------
// Async Jacobi: chaotic block-Jacobi on async::AsyncEngine.
// ---------------------------------------------------------------------------

namespace {

/// Per-partition worker state for the asynchronous engine.
struct AsyncJacPartition {
  std::vector<double> inv_diag;  // per member: 1 / (full sym degree + 1)
  std::vector<double> x;         // per member
  ExternalSums ext;              // summed external boundary rows
  async::StateStore<double> store;  // latest row sum per (sender, vertex)
};

}  // namespace

JacobiResult AsyncJacobi(cluster::SimCluster& cluster, const graph::Digraph& g_sym,
                         const std::vector<double>& b,
                         const graph::Partitioning& partitioning,
                         const JacobiConfig& config, uint32_t staleness,
                         async::AsyncResult* engine_stats) {
  const uint32_t n = g_sym.num_vertices();
  AMR_CHECK_EQ(b.size(), n);
  const uint32_t num_parts = partitioning.num_parts;
  // Row-sum changes smaller than this are not re-pushed. The Jacobi update
  // divides the row sum by (deg + 1) >= 1, so one withheld delta per in-peer
  // perturbs an iterate by at most send_eps; scale with the partition count
  // to keep the total silenced error under half the global tolerance
  // (AuditWithheldSums checks it).
  const double send_eps =
      config.tolerance * 0.5 / std::max(1u, partitioning.num_parts);
  const BoundaryPlan plan = BoundaryPlan::Build(g_sym, partitioning);
  // x starts at all zeros, so every boundary row sum (and thus every ext)
  // starts at 0.0 too: filters initialised to 0.0 already agree with the
  // receivers' views, and no seeding pass is needed. Re-announcement pushes
  // every target unconditionally (row sums hover near zero, so a cleared
  // filter could stay silent within send_eps while the peer holds a stale
  // dead-epoch value).
  DeltaFilter<double> last_sent(plan, 0.0, std::numeric_limits<double>::infinity());

  std::vector<AsyncJacPartition> parts(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    AsyncJacPartition& part = parts[p];
    const auto& members = plan.parts[p].members;
    part.inv_diag.resize(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      part.inv_diag[i] = 1.0 / (g_sym.OutDegree(members[i]) + 1.0);
    }
    part.x.assign(members.size(), 0.0);
    part.ext.values.assign(members.size(), 0.0);
    part.store = async::StateStore<double>(plan.parts[p].in_peers, plan.InTargets(p));
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
    AsyncJacPartition& part = parts[p];
    const BoundaryPlan::Part& part_plan = plan.parts[p];
    const auto m = static_cast<uint32_t>(part_plan.members.size());
    if (m == 0) return;
    const std::vector<double> before = part.x;
    uint64_t ops = 0;

    // Block-Jacobi to local convergence with external rows frozen.
    std::vector<double> x(m + 1, 0.0);  // the last is the pull padding
    std::vector<double> next(m);
    for (uint32_t sweep = 0; sweep < config.max_local_iterations; ++sweep) {
      std::copy(part.x.begin(), part.x.end(), x.begin());
      double sweep_residual = 0.0;
      part_plan.ForEachInternalSum(x, [&](uint32_t t, double sum) {
        const graph::VertexId v = part_plan.members[t];
        next[t] = (b[v] + sum + part.ext.values[t]) * part.inv_diag[t];
        sweep_residual = std::max(sweep_residual, std::abs(next[t] - x[t]));
      });
      part.x.swap(next);
      ops += part_plan.internal_edges() + 2 * m;
      if (sweep_residual < kLocalTolerance) break;
    }

    double residual = 0.0;
    for (uint32_t i = 0; i < m; ++i) {
      residual = std::max(residual, std::abs(part.x[i] - before[i]));
    }
    ctx.set_residual(residual);

    // Push refreshed boundary row sums, delta-filtered.
    for (size_t bg = 0; bg < part_plan.out.size(); ++bg) {
      const BoundaryPlan::OutGroup& group = part_plan.out[bg];
      std::vector<double>& sent = last_sent.sent(p, bg);
      for (size_t j = 0; j < group.targets.size(); ++j) {
        const double sum = group.RunSum(j, [&](uint32_t i) { return part.x[i]; });
        if (std::abs(sum - sent[j]) > send_eps) {
          ctx.Emit(group.peer, JacBoundaryUpdate{group.targets[j], sum});
          sent[j] = sum;
        }
      }
      ops += group.num_edges();
    }
    ctx.AddOps(ops);
  });

  engine.set_apply([&](uint32_t p, uint32_t from, uint32_t from_clock,
                       uint32_t from_epoch, const async::UpdateBatch& batch) {
    AsyncJacPartition& part = parts[p];
    part.store.ObserveClock(from, from_clock);
    async::ForEachUpdate<JacBoundaryUpdate>(batch, [&](const JacBoundaryUpdate& u) {
      const auto put = part.store.Put(from, u.vertex, u.sum, from_clock, from_epoch);
      if (!put.applied) return;  // out-of-order stale delivery
      part.ext.Replace(plan.LocalIndex(p, u.vertex), put.replaced.value_or(0.0),
                       u.sum);
    });
  });

  engine.set_snapshot([&](uint32_t p, serde::Writer& w) {
    const AsyncJacPartition& part = parts[p];
    serde::Serde<std::vector<double>>::Write(w, part.x);
    serde::Serde<std::vector<double>>::Write(w, part.ext.values);
    part.store.SnapshotTo(w);
  });
  engine.set_restore([&](uint32_t p, serde::Reader& r) {
    AsyncJacPartition& part = parts[p];
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.x).ok());
    AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.ext.values).ok());
    AMR_CHECK(part.store.RestoreFrom(r).ok());
    last_sent.ResendAll(p);
  });

  async::AsyncResult engine_result = engine.Run();
  if (engine_stats != nullptr) *engine_stats = engine_result;

  JacobiResult result;
  result.x.assign(n, 0.0);
  for (uint32_t p = 0; p < num_parts; ++p) {
    for (uint32_t i = 0; i < parts[p].x.size(); ++i) {
      result.x[plan.parts[p].members[i]] = parts[p].x[i];
    }
  }
  AMR_IF_AUDIT(if (engine_result.converged) {
    AuditWithheldSums(
        plan, parts, config.tolerance,
        [](const AsyncJacPartition& part, uint32_t i) { return part.x[i]; });
  })
  result.converged = engine_result.converged;
  result.trace = AsyncRunTrace("async-jacobi", engine_result);
  result.residual_inf = JacobiResidual(g_sym, b, result.x);
  return result;
}

}  // namespace asyncmr::apps
