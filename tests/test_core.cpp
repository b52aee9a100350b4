// Unit tests: the paper's API — LocalMapReduce (Fig. 1 construction) over
// its dense hashtable, partial synchronizations, eager scheduling semantics,
// and PartialSyncJob.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/local_runtime.hpp"
#include "core/metrics.hpp"
#include "core/partial_sync_job.hpp"
#include "core/partition_io.hpp"

namespace asyncmr::core {
namespace {

cluster::ClusterSpec QuietSpec() {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  return spec;
}

using State = LocalState<double>;
using Local = LocalMapReduce<uint32_t, double, SumCombine>;
using Psj = PartialSyncJob<uint32_t, uint32_t, double, SumCombine>;

// A tiny iterative kernel: values flow toward the average of neighbors on a
// 4-cycle; fixed point = all equal.
struct Cell {
  uint32_t id;
  uint32_t left;
  uint32_t right;
};
using CellLocal = LocalMapReduce<Cell, double, SumCombine>;

TEST(LocalMapReduce, IteratesToLocalConvergence) {
  std::vector<Cell> cells{{0, 3, 1}, {1, 0, 2}, {2, 1, 3}, {3, 2, 0}};
  State state{0.0, 4.0, 8.0, 4.0};

  CellLocal local(
      [](const Cell& c, const State& s, CellLocal::Intermediate& out) {
        out.EmitLocalIntermediate(c.id, (s[c.left] + s[c.right]) / 2.0);
      },
      [](uint32_t k, double v, const State&, CellLocal::ReduceContext& ctx) {
        ctx.EmitLocal(k, v);
      },
      [](const State& prev, const State& next, uint32_t) {
        for (size_t i = 0; i < next.size(); ++i) {
          if (std::abs(next[i] - prev[i]) > 1e-10) return false;
        }
        return true;
      });

  const LocalRunStats stats = local.Run(cells, state);
  EXPECT_FALSE(stats.hit_iteration_cap);
  // The symmetric start settles in one sweep, plus one confirming iteration.
  EXPECT_GE(stats.local_iterations, 2u);
  for (double v : state) EXPECT_NEAR(v, 4.0, 1e-8);
  EXPECT_GT(stats.ops, 0u);
}

TEST(LocalMapReduce, IterationCapReported) {
  std::vector<Cell> cells{{0, 1, 1}, {1, 0, 0}};
  State state{0.0, 1.0};
  CellLocal::Config config;
  config.max_local_iterations = 3;
  CellLocal local(
      [](const Cell& c, const State& s, CellLocal::Intermediate& out) {
        out.EmitLocalIntermediate(c.id, s[c.left] + 1.0);  // never settles
      },
      [](uint32_t k, double v, const State&, CellLocal::ReduceContext& ctx) {
        ctx.EmitLocal(k, v);
      },
      [](const State&, const State&, uint32_t) { return false; }, config);
  const LocalRunStats stats = local.Run(cells, state);
  EXPECT_TRUE(stats.hit_iteration_cap);
  EXPECT_EQ(stats.local_iterations, 3u);
}

TEST(LocalMapReduce, FoldsEachKeyInEmissionOrder) {
  // x emits kValues[x] under key x % 2. Next to +-1e16, +-1 is below half an
  // ulp, so each key's sum depends on the order its values are folded in.
  static constexpr double kValues[] = {1.0, 1e16, 1e16, 1.0, 1.0, -1e16, -1e16, -1.0};
  const std::vector<uint32_t> xs{0, 1, 2, 3, 4, 5, 6, 7};
  auto hand_fold = [&](uint32_t key, bool reversed) {
    std::vector<double> values;
    for (uint32_t x : xs) {
      if (x % 2 == key) values.push_back(kValues[x]);
    }
    if (reversed) std::reverse(values.begin(), values.end());
    double acc = values[0];
    for (size_t i = 1; i < values.size(); ++i) acc = acc + values[i];
    return acc;
  };

  Local local(
      [](const uint32_t& x, const State&, Local::Intermediate& out) {
        out.EmitLocalIntermediate(x % 2, kValues[x]);
      },
      [](uint32_t k, double v, const State&, Local::ReduceContext& ctx) {
        ctx.EmitLocal(k, v);
      },
      [](const State&, const State&, uint32_t) { return true; });
  State state(2, 0.0);
  local.Run(xs, state);

  for (uint32_t key = 0; key < 2; ++key) {
    ASSERT_NE(hand_fold(key, false), hand_fold(key, true)) << "key " << key;
    EXPECT_EQ(state[key], hand_fold(key, false)) << "key " << key;
  }
}

TEST(LocalMapReduce, UntouchedKeysKeepTheirValue) {
  // Only keys 1 and 3 are ever emitted; slots 0 and 2 must carry their seed
  // through every local iteration.
  const std::vector<uint32_t> xs{1, 3};
  uint32_t checks = 0;
  Local local(
      [](const uint32_t& x, const State& s, Local::Intermediate& out) {
        out.EmitLocalIntermediate(x, s[x] + 1.0);
      },
      [](uint32_t k, double v, const State&, Local::ReduceContext& ctx) {
        ctx.EmitLocal(k, v);
      },
      [&checks](const State&, const State& next, uint32_t iters) {
        EXPECT_EQ(next[0], 10.0);
        EXPECT_EQ(next[2], 30.0);
        ++checks;
        return iters >= 3;
      });
  State state{10.0, 20.0, 30.0, 40.0};
  local.Run(xs, state);
  EXPECT_EQ(checks, 3u);
  EXPECT_EQ(state, (State{10.0, 23.0, 30.0, 43.0}));
}

TEST(LocalMapReduce, OnIterationStartHookRuns) {
  std::vector<uint32_t> xs{1, 2, 3};
  int hook_calls = 0;
  Local::Config config;
  config.on_iteration_start = [&hook_calls](const State&) { ++hook_calls; };
  config.max_local_iterations = 4;
  Local local(
      [](const uint32_t& x, const State&, Local::Intermediate& out) {
        out.EmitLocalIntermediate(x, 1.0);
      },
      [](uint32_t k, double, const State&, Local::ReduceContext& ctx) {
        ctx.EmitLocal(k, 1.0);
      },
      [](const State&, const State&, uint32_t iters) { return iters >= 2; }, config);
  State state(4, 0.0);
  local.Run(xs, state);
  EXPECT_EQ(hook_calls, 2);
}

// --- determinism contract -----------------------------------------------------
// These pin the ordering contract documented in core/local_runtime.hpp.

// Maps x = 0..60 onto the keys 0..60 in a scrambled order; larger x revisit
// them.
uint32_t ScrambledKey(uint32_t x) { return (x * 37) % 61; }

std::vector<uint32_t> Iota(uint32_t n) {
  std::vector<uint32_t> xs(n);
  for (uint32_t i = 0; i < n; ++i) xs[i] = i;
  return xs;
}

TEST(LocalMapReduce, LreduceSeesKeysInFirstEmissionOrder) {
  const std::vector<uint32_t> xs{5, 3, 9, 3, 1, 5, 0, 9};
  std::vector<uint32_t> visited;
  Local local(
      [](const uint32_t& x, const State&, Local::Intermediate& out) {
        out.EmitLocalIntermediate(x, 1.0);
      },
      [&visited](uint32_t k, double, const State&, Local::ReduceContext& ctx) {
        visited.push_back(k);
        ctx.EmitLocal(k, 0.0);
      },
      [](const State&, const State&, uint32_t) { return true; });
  State state(10, 0.0);
  local.Run(xs, state);
  EXPECT_EQ(visited, (std::vector<uint32_t>{5, 3, 9, 1, 0}));
}

TEST(LocalMapReduce, ForeignKeyLastWriterIsStable) {
  // Every lreduce call also overwrites one shared foreign key, so its final
  // value names the key lreduce visited last.
  static constexpr uint32_t kForeign = 1000;
  const std::vector<uint32_t> xs = Iota(200);
  auto last_writer = [&] {
    Local local(
        [](const uint32_t& x, const State&, Local::Intermediate& out) {
          out.EmitLocalIntermediate(ScrambledKey(x), static_cast<double>(x));
        },
        [](uint32_t k, double v, const State&, Local::ReduceContext& ctx) {
          ctx.EmitLocal(k, v);
          ctx.EmitLocal(kForeign, static_cast<double>(k));
        },
        [](const State&, const State&, uint32_t) { return true; });
    State state(kForeign + 1, 0.0);
    local.Run(xs, state);
    return state[kForeign];
  };
  // x = 0..60 first-emit all 61 keys, so the last key visited is
  // ScrambledKey(60) = 24 (a sorted visit would have ended at 60).
  const double serial = last_writer();
  EXPECT_EQ(serial, static_cast<double>(ScrambledKey(60)));
  EXPECT_EQ(last_writer(), serial);
}

// --- PartialSyncJob -----------------------------------------------------------

TEST(PartialSyncJob, RunsGmapPerPartitionAndGlobalReduce) {
  cluster::SimCluster sim(QuietSpec());
  // Two partitions of integers; lmap/lreduce compute a per-partition sum via
  // iterated identity (converges after one refinement); greduce totals them.
  std::vector<std::vector<uint32_t>> parts{{1, 2, 3}, {10, 20}};

  Psj::Config config;
  config.job.num_reducers = 2;
  config.job.write_output_to_dfs = false;
  Psj psj(sim, config);

  psj.set_partition_data(
      [&parts](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
  psj.set_init_state([](uint32_t) { return State(1, 0.0); });
  psj.set_lmap([](const uint32_t& x, const State&, Psj::Intermediate& out) {
    out.EmitLocalIntermediate(0, static_cast<double>(x));
  });
  psj.set_lreduce([](uint32_t, uint32_t k, double sum, const State&,
                     Psj::LocalReduceCtx& ctx) { ctx.EmitLocal(k, sum); });
  psj.set_local_convergence(
      [](const State& prev, const State& next, uint32_t) { return prev[0] == next[0]; });
  psj.set_greduce([](const uint32_t& k, const std::vector<double>& vs,
                     mr::ReduceContext<uint32_t, double>& ctx) {
    double sum = 0;
    for (double v : vs) sum += v;
    ctx.Emit(k, sum);
  });

  auto out = psj.RunGlobalIteration(std::vector<mr::SplitDesc>(2));
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].first, 0u);
  EXPECT_DOUBLE_EQ(out.records[0].second, 36.0);  // 6 + 30
  // Each gmap ran local iterations (partial synchronizations).
  EXPECT_EQ(psj.local_stats().size(), 2u);
  EXPECT_GE(psj.last_local_iterations(), 2u);
}

TEST(PartialSyncJob, LreduceIsToldItsPartition) {
  cluster::SimCluster sim(QuietSpec());
  std::vector<std::vector<uint32_t>> parts{{0}, {0}, {0}};
  Psj::Config config;
  config.job.num_reducers = 1;
  config.job.write_output_to_dfs = false;
  Psj psj(sim, config);
  psj.set_partition_data(
      [&parts](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
  psj.set_init_state([](uint32_t) { return State(1, 0.0); });
  psj.set_lmap([](const uint32_t& x, const State&, Psj::Intermediate& out) {
    out.EmitLocalIntermediate(x, 1.0);
  });
  psj.set_lreduce([](uint32_t p, uint32_t k, double, const State&,
                     Psj::LocalReduceCtx& ctx) { ctx.EmitLocal(k, 10.0 * p); });
  psj.set_local_convergence([](const State&, const State&, uint32_t) { return true; });
  psj.set_gemit([](uint32_t p, const State& s, mr::MapContext<uint32_t, double>& ctx) {
    ctx.Emit(p, s[0]);
  });
  psj.set_greduce([](const uint32_t& k, const std::vector<double>& vs,
                     mr::ReduceContext<uint32_t, double>& ctx) { ctx.Emit(k, vs[0]); });
  auto out = psj.RunGlobalIteration(std::vector<mr::SplitDesc>(3));
  std::map<uint32_t, double> got(out.records.begin(), out.records.end());
  EXPECT_EQ(got, (std::map<uint32_t, double>{{0, 0.0}, {1, 10.0}, {2, 20.0}}));
}

TEST(PartialSyncJob, DefaultGemitEmitsHashtable) {
  cluster::SimCluster sim(QuietSpec());
  std::vector<std::vector<uint32_t>> parts{{5}, {9}};
  Psj::Config config;
  config.job.num_reducers = 2;
  config.job.write_output_to_dfs = false;
  Psj psj(sim, config);
  psj.set_partition_data(
      [&parts](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
  psj.set_init_state([](uint32_t p) {
    // Hashtable pre-seeded at slot p (lower slots hold 0); no lmap emissions
    // -> state unchanged.
    State state(p + 1, 0.0);
    state[p] = 100.0 + p;
    return state;
  });
  psj.set_lmap([](const uint32_t&, const State&, Psj::Intermediate&) {});
  psj.set_lreduce(
      [](uint32_t, uint32_t, double, const State&, Psj::LocalReduceCtx&) {});
  psj.set_local_convergence([](const State&, const State&, uint32_t) { return true; });
  psj.set_greduce([](const uint32_t& k, const std::vector<double>& vs,
                     mr::ReduceContext<uint32_t, double>& ctx) {
    double sum = 0;
    for (double v : vs) sum += v;
    ctx.Emit(k, sum);
  });
  auto out = psj.RunGlobalIteration(std::vector<mr::SplitDesc>(2));
  std::map<uint32_t, double> got(out.records.begin(), out.records.end());
  EXPECT_DOUBLE_EQ(got.at(0), 100.0);
  EXPECT_DOUBLE_EQ(got.at(1), 101.0);
}

TEST(PartialSyncJob, GmapTimeScaleShortensJobs) {
  auto run = [](double scale) {
    cluster::SimCluster sim(QuietSpec());
    std::vector<std::vector<uint32_t>> parts{{1}};
    Psj::Config config;
    config.job.num_reducers = 1;
    config.job.write_output_to_dfs = false;
    config.gmap_time_scale = scale;
    Psj psj(sim, config);
    psj.set_partition_data(
        [&parts](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
    psj.set_init_state([](uint32_t) { return State(2, 0.0); });
    psj.set_lmap([](const uint32_t& x, const State&, Psj::Intermediate& out) {
      out.AddOps(400'000'000);  // 20 virtual seconds at 5e-8 s/op
      out.EmitLocalIntermediate(x, 1.0);
    });
    psj.set_lreduce([](uint32_t, uint32_t k, double v, const State&,
                       Psj::LocalReduceCtx& ctx) { ctx.EmitLocal(k, v); });
    psj.set_local_convergence([](const State&, const State&, uint32_t) { return true; });
    psj.set_greduce([](const uint32_t& k, const std::vector<double>& vs,
                       mr::ReduceContext<uint32_t, double>& ctx) {
      ctx.Emit(k, vs[0]);
    });
    auto out = psj.RunGlobalIteration(std::vector<mr::SplitDesc>(1));
    return out.raw.stats.elapsed();
  };
  const double full = run(1.0);
  const double quarter = run(0.25);
  EXPECT_GT(full - quarter, 10.0);  // ~15 s of the 20 s compute disappears
}

// --- metrics / partition staging ---------------------------------------------

TEST(RunTrace, Aggregation) {
  RunTrace trace("t");
  for (uint32_t i = 0; i < 3; ++i) {
    RoundTrace r;
    r.round = i;
    r.start_seconds = i * 10.0;
    r.end_seconds = i * 10.0 + 8.0;
    r.ops = 100;
    r.shuffle_bytes = 50;
    r.local_iterations = 4;
    trace.AddRound(r);
  }
  EXPECT_EQ(trace.global_iterations(), 3u);
  EXPECT_DOUBLE_EQ(trace.total_seconds(), 28.0);
  EXPECT_EQ(trace.total_ops(), 300u);
  EXPECT_EQ(trace.total_local_iterations(), 12u);
  EXPECT_EQ(trace.total_synchronizations(), 15u);  // 12 partial + 3 global
  EXPECT_EQ(trace.total_shuffle_bytes(), 150u);
}

TEST(PartitionIo, StageCreatesLocatedSplits) {
  cluster::SimCluster sim(QuietSpec());
  auto images = SyntheticPartitionImages({1000, 2000, 3000});
  const auto splits = StagePartitionFiles(sim, "/stage", images);
  ASSERT_EQ(splits.size(), 3u);
  EXPECT_EQ(splits[0].input_bytes, 1000u);
  EXPECT_EQ(splits[2].input_bytes, 3000u);
  for (const auto& s : splits) {
    EXPECT_FALSE(s.data_nodes.empty());
    EXPECT_TRUE(sim.dfs().Exists(s.name));
  }
}

}  // namespace
}  // namespace asyncmr::core
