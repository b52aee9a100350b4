// Unit tests: the paper's API — LocalMapReduce (Fig. 1 construction), partial
// synchronizations, eager scheduling semantics, PartialSyncJob — and the
// FlatTable hashtable underneath it.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/flat_table.hpp"
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

// A tiny iterative kernel: values flow toward the average of neighbors on a
// 4-cycle; fixed point = all equal.
struct Cell {
  uint32_t id;
  uint32_t left;
  uint32_t right;
};

TEST(LocalMapReduce, IteratesToLocalConvergence) {
  std::vector<Cell> cells{{0, 3, 1}, {1, 0, 2}, {2, 1, 3}, {3, 2, 0}};
  LocalState<uint32_t, double> state{{0, 0.0}, {1, 4.0}, {2, 8.0}, {3, 4.0}};

  LocalMapReduce<Cell, uint32_t, double> local(
      [](const Cell& c, const LocalState<uint32_t, double>& s,
         LocalIntermediate<uint32_t, double>& out) {
        out.EmitLocalIntermediate(c.id, (s.at(c.left) + s.at(c.right)) / 2.0);
      },
      [](const uint32_t& k, const std::vector<double>& vs,
         const LocalState<uint32_t, double>&, LocalReduceContext<uint32_t, double>& ctx) {
        ctx.EmitLocal(k, vs[0]);
      },
      [](const LocalState<uint32_t, double>& prev,
         const LocalState<uint32_t, double>& next, uint32_t) {
        for (const auto& [k, v] : next) {
          if (std::abs(v - prev.at(k)) > 1e-10) return false;
        }
        return true;
      });

  const LocalRunStats stats = local.Run(cells, state);
  EXPECT_FALSE(stats.hit_iteration_cap);
  // The symmetric start settles in one sweep, plus one confirming iteration.
  EXPECT_GE(stats.local_iterations, 2u);
  for (const auto& [k, v] : state) EXPECT_NEAR(v, 4.0, 1e-8);
  EXPECT_GT(stats.ops, 0u);
}

TEST(LocalMapReduce, IterationCapReported) {
  std::vector<Cell> cells{{0, 1, 1}, {1, 0, 0}};
  LocalState<uint32_t, double> state{{0, 0.0}, {1, 1.0}};
  LocalMapReduce<Cell, uint32_t, double>::Config config;
  config.max_local_iterations = 3;
  LocalMapReduce<Cell, uint32_t, double> local(
      [](const Cell& c, const LocalState<uint32_t, double>& s,
         LocalIntermediate<uint32_t, double>& out) {
        out.EmitLocalIntermediate(c.id, s.at(c.left) + 1.0);  // never settles
      },
      [](const uint32_t& k, const std::vector<double>& vs,
         const LocalState<uint32_t, double>&, LocalReduceContext<uint32_t, double>& ctx) {
        ctx.EmitLocal(k, vs[0]);
      },
      [](const LocalState<uint32_t, double>&, const LocalState<uint32_t, double>&,
         uint32_t) { return false; },
      config);
  const LocalRunStats stats = local.Run(cells, state);
  EXPECT_TRUE(stats.hit_iteration_cap);
  EXPECT_EQ(stats.local_iterations, 3u);
}

TEST(LocalMapReduce, CombinerMatchesPlainGrouping) {
  // Sum-combine must produce the same fixed point as grouped values.
  std::vector<uint32_t> xs{0, 1, 2, 3, 4};
  auto lmap = [](const uint32_t& x, const LocalState<uint32_t, double>&,
                 LocalIntermediate<uint32_t, double>& out) {
    out.EmitLocalIntermediate(x % 2, 1.0);
    out.EmitLocalIntermediate(x % 2, 2.0);
  };
  auto lreduce = [](const uint32_t& k, const std::vector<double>& vs,
                    const LocalState<uint32_t, double>&,
                    LocalReduceContext<uint32_t, double>& ctx) {
    double sum = 0;
    for (double v : vs) sum += v;
    ctx.EmitLocal(k, sum);
  };
  auto one_shot = [](const LocalState<uint32_t, double>&,
                     const LocalState<uint32_t, double>&, uint32_t) { return true; };

  LocalState<uint32_t, double> plain_state;
  LocalMapReduce<uint32_t, uint32_t, double> plain(lmap, lreduce, one_shot);
  plain.Run(xs, plain_state);

  LocalMapReduce<uint32_t, uint32_t, double>::Config config;
  config.lcombine = [](const double& a, const double& b) { return a + b; };
  LocalState<uint32_t, double> combined_state;
  LocalMapReduce<uint32_t, uint32_t, double> combined(lmap, lreduce, one_shot, config);
  combined.Run(xs, combined_state);

  ASSERT_EQ(plain_state.size(), combined_state.size());
  for (const auto& [k, v] : plain_state) {
    EXPECT_DOUBLE_EQ(v, combined_state.at(k)) << "key " << k;
  }
}

TEST(LocalMapReduce, OnIterationStartHookRuns) {
  std::vector<uint32_t> xs{1, 2, 3};
  int hook_calls = 0;
  LocalMapReduce<uint32_t, uint32_t, double>::Config config;
  config.on_iteration_start = [&hook_calls](const LocalState<uint32_t, double>&) {
    ++hook_calls;
  };
  config.max_local_iterations = 4;
  LocalMapReduce<uint32_t, uint32_t, double> local(
      [](const uint32_t& x, const LocalState<uint32_t, double>&,
         LocalIntermediate<uint32_t, double>& out) {
        out.EmitLocalIntermediate(x, 1.0);
      },
      [](const uint32_t& k, const std::vector<double>&,
         const LocalState<uint32_t, double>&, LocalReduceContext<uint32_t, double>& ctx) {
        ctx.EmitLocal(k, 1.0);
      },
      [](const LocalState<uint32_t, double>&, const LocalState<uint32_t, double>&,
         uint32_t iters) { return iters >= 2; },
      config);
  LocalState<uint32_t, double> state;
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
  auto visited_order = [&](LocalMapReduce<uint32_t, uint32_t, double>::Config config) {
    std::vector<uint32_t> visited;
    LocalMapReduce<uint32_t, uint32_t, double> local(
        [](const uint32_t& x, const LocalState<uint32_t, double>&,
           LocalIntermediate<uint32_t, double>& out) {
          out.EmitLocalIntermediate(x, 1.0);
        },
        [&visited](const uint32_t& k, const std::vector<double>&,
                   const LocalState<uint32_t, double>&,
                   LocalReduceContext<uint32_t, double>& ctx) {
          visited.push_back(k);
          ctx.EmitLocal(k, 0.0);
        },
        [](const LocalState<uint32_t, double>&, const LocalState<uint32_t, double>&,
           uint32_t) { return true; },
        config);
    LocalState<uint32_t, double> state;
    local.Run(xs, state);
    return visited;
  };
  const std::vector<uint32_t> expected{5, 3, 9, 1, 0};
  LocalMapReduce<uint32_t, uint32_t, double>::Config plain;
  EXPECT_EQ(visited_order(plain), expected);
  LocalMapReduce<uint32_t, uint32_t, double>::Config combined;
  combined.lcombine = [](const double& a, const double& b) { return a + b; };
  EXPECT_EQ(visited_order(combined), expected);
}

TEST(LocalMapReduce, ForeignKeyLastWriterIsStable) {
  // Every lreduce call also overwrites one shared foreign key, so its final
  // value names the key lreduce visited last.
  static constexpr uint32_t kForeign = 1000;
  const std::vector<uint32_t> xs = Iota(200);
  auto last_writer = [&] {
    LocalMapReduce<uint32_t, uint32_t, double> local(
        [](const uint32_t& x, const LocalState<uint32_t, double>&,
           LocalIntermediate<uint32_t, double>& out) {
          out.EmitLocalIntermediate(ScrambledKey(x), static_cast<double>(x));
        },
        [](const uint32_t& k, const std::vector<double>& vs,
           const LocalState<uint32_t, double>&, LocalReduceContext<uint32_t, double>& ctx) {
          ctx.EmitLocal(k, vs.front());
          ctx.EmitLocal(kForeign, static_cast<double>(k));
        },
        [](const LocalState<uint32_t, double>&, const LocalState<uint32_t, double>&,
           uint32_t) { return true; });
    LocalState<uint32_t, double> state;
    local.Run(xs, state);
    return state.at(kForeign);
  };
  // x = 0..60 first-emit all 61 keys, so the last key visited is
  // ScrambledKey(60) = 24 (a sorted visit would have ended at 60).
  const double serial = last_writer();
  EXPECT_EQ(serial, static_cast<double>(ScrambledKey(60)));
  EXPECT_EQ(last_writer(), serial);
}

// --- FlatTable ----------------------------------------------------------------

// Random operations against std::unordered_map through many rehash growths:
// contents must agree, and iteration must follow first insertion.
TEST(FlatTable, MatchesUnorderedMapInFirstInsertionOrder) {
  Rng rng(2010);
  FlatTable<uint32_t, uint64_t> table;
  std::unordered_map<uint32_t, uint64_t> ref;
  std::vector<uint32_t> order;
  auto expect_same = [&](const FlatTable<uint32_t, uint64_t>& t) {
    ASSERT_EQ(t.size(), ref.size());
    ASSERT_EQ(t.empty(), ref.empty());
    size_t i = 0;
    for (const auto& [k, v] : t) {
      ASSERT_LT(i, order.size());
      EXPECT_EQ(k, order[i++]);
      EXPECT_EQ(v, ref.at(k));
    }
  };

  for (uint64_t round = 0; round < 4; ++round) {
    for (uint64_t op = 0; op < 20000; ++op) {
      // Multiples of 1024 share low bits, so weak mixing would pile them up.
      const uint32_t key = static_cast<uint32_t>(rng.NextBounded(4000)) * 1024;
      switch (rng.NextBounded(5)) {
        case 0: {
          const auto [it, inserted] = table.try_emplace(key, op);
          EXPECT_EQ(inserted, ref.try_emplace(key, op).second);
          EXPECT_EQ(it->first, key);
          EXPECT_EQ(it->second, ref.at(key));
          if (inserted) order.push_back(key);
          break;
        }
        case 1:
          if (ref.count(key) == 0) order.push_back(key);
          table[key] += op;
          ref[key] += op;
          break;
        case 2: {
          const auto it = table.find(key);
          const auto rit = ref.find(key);
          ASSERT_EQ(it == table.end(), rit == ref.end());
          if (it != table.end()) {
            EXPECT_EQ(it->second, rit->second);
          }
          break;
        }
        case 3:
          EXPECT_EQ(table.count(key), ref.count(key));
          break;
        default:
          if (ref.count(key) != 0) {
            EXPECT_EQ(table.at(key), ref.at(key));
          }
          break;
      }
    }
    expect_same(table);

    // Copy-assignment over a table with other contents and a smaller index.
    FlatTable<uint32_t, uint64_t> copy{{7, 1}, {9, 2}};
    copy = table;
    expect_same(copy);

    if (round == 0) table.reserve(table.size() * 8);  // grow without inserting
    if (round == 2) {
      // clear() keeps capacity; the table must work as new afterwards.
      table.clear();
      ref.clear();
      order.clear();
      expect_same(table);
      EXPECT_EQ(table.find(0), table.end());
    }
    expect_same(table);
  }
}

TEST(FlatTable, HoldsNonTrivialEntries) {
  FlatTable<std::string, std::vector<int>> table{{"b", {1}}, {"a", {2, 3}}};
  table["c"].push_back(4);
  table["a"].push_back(5);
  EXPECT_FALSE(table.emplace("b", std::vector<int>{9}).second);
  std::vector<std::string> keys;
  for (const auto& [k, v] : table) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(table.at("a"), (std::vector<int>{2, 3, 5}));
  EXPECT_EQ(table.at("b"), (std::vector<int>{1}));
}

// --- PartialSyncJob -----------------------------------------------------------

TEST(PartialSyncJob, RunsGmapPerPartitionAndGlobalReduce) {
  cluster::SimCluster sim(QuietSpec());
  // Two partitions of integers; lmap/lreduce compute a per-partition sum via
  // iterated identity (converges after one refinement); greduce totals them.
  std::vector<std::vector<uint32_t>> parts{{1, 2, 3}, {10, 20}};

  PartialSyncJob<uint32_t, uint32_t, double>::Config config;
  config.job.num_reducers = 2;
  config.job.write_output_to_dfs = false;
  config.local.lcombine = [](const double& a, const double& b) { return a + b; };
  PartialSyncJob<uint32_t, uint32_t, double> psj(sim, config);

  psj.set_partition_data(
      [&parts](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
  psj.set_init_state([](uint32_t) { return LocalState<uint32_t, double>{}; });
  psj.set_lmap([](const uint32_t& x, const LocalState<uint32_t, double>&,
                  LocalIntermediate<uint32_t, double>& out) {
    out.EmitLocalIntermediate(0, static_cast<double>(x));
  });
  psj.set_lreduce([](const uint32_t& k, const std::vector<double>& vs,
                     const LocalState<uint32_t, double>&,
                     LocalReduceContext<uint32_t, double>& ctx) {
    double sum = 0;
    for (double v : vs) sum += v;
    ctx.EmitLocal(k, sum);
  });
  psj.set_local_convergence([](const LocalState<uint32_t, double>& prev,
                               const LocalState<uint32_t, double>& next, uint32_t) {
    auto it = prev.find(0);
    return it != prev.end() && next.count(0) && it->second == next.at(0);
  });
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

TEST(PartialSyncJob, DefaultGemitEmitsHashtable) {
  cluster::SimCluster sim(QuietSpec());
  std::vector<std::vector<uint32_t>> parts{{5}, {9}};
  PartialSyncJob<uint32_t, uint32_t, double>::Config config;
  config.job.num_reducers = 2;
  config.job.write_output_to_dfs = false;
  PartialSyncJob<uint32_t, uint32_t, double> psj(sim, config);
  psj.set_partition_data(
      [&parts](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
  psj.set_init_state([](uint32_t p) {
    // Hashtable pre-seeded; no lmap emissions -> state unchanged.
    return LocalState<uint32_t, double>{{p, 100.0 + p}};
  });
  psj.set_lmap([](const uint32_t&, const LocalState<uint32_t, double>&,
                  LocalIntermediate<uint32_t, double>&) {});
  psj.set_lreduce([](const uint32_t&, const std::vector<double>&,
                     const LocalState<uint32_t, double>&,
                     LocalReduceContext<uint32_t, double>&) {});
  psj.set_local_convergence([](const LocalState<uint32_t, double>&,
                               const LocalState<uint32_t, double>&,
                               uint32_t) { return true; });
  psj.set_greduce([](const uint32_t& k, const std::vector<double>& vs,
                     mr::ReduceContext<uint32_t, double>& ctx) {
    ctx.Emit(k, vs[0]);
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
    PartialSyncJob<uint32_t, uint32_t, double>::Config config;
    config.job.num_reducers = 1;
    config.job.write_output_to_dfs = false;
    config.gmap_time_scale = scale;
    PartialSyncJob<uint32_t, uint32_t, double> psj(sim, config);
    psj.set_partition_data(
        [&parts](uint32_t p) { return std::span<const uint32_t>(parts[p]); });
    psj.set_init_state([](uint32_t) { return LocalState<uint32_t, double>{}; });
    psj.set_lmap([](const uint32_t& x, const LocalState<uint32_t, double>&,
                    LocalIntermediate<uint32_t, double>& out) {
      out.AddOps(400'000'000);  // 20 virtual seconds at 5e-8 s/op
      out.EmitLocalIntermediate(x, 1.0);
    });
    psj.set_lreduce([](const uint32_t& k, const std::vector<double>& vs,
                       const LocalState<uint32_t, double>&,
                       LocalReduceContext<uint32_t, double>& ctx) {
      ctx.EmitLocal(k, vs[0]);
    });
    psj.set_local_convergence([](const LocalState<uint32_t, double>&,
                                 const LocalState<uint32_t, double>&,
                                 uint32_t) { return true; });
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
