// micro_des — DES-kernel throughput benchmark and perf trajectory anchor.
//
// Measures:
//   1. EventQueue events/sec on two synthetic workloads (timer churn and a
//      cancel-heavy pattern mirroring network-flow rebalancing), through both
//      far-future stores (heap and calendar).
//   2. End-to-end wall-clock of the two iterative workloads that dominate
//      experiment time: async PageRank (the ablation_async headline variant)
//      and general/eager PageRank waves (the fig4 flavor), on the power-law
//      graph scenario.
//
// Output: human-readable lines to stderr and ONE machine-readable JSON line
// to stdout — append it to BENCH_micro_des.json to extend the perf
// trajectory. Schema (all numbers):
//
//   {"bench":"micro_des","schema_version":V,"scale":S,"seed":N,
//    "churn_events_per_sec":E,"cancel_events_per_sec":E,
//    "churn_calendar_events_per_sec":E,"cancel_calendar_events_per_sec":E,
//    "calendar_speedup":X,
//    "onebucket_heap_events_per_sec":E,"onebucket_calendar_events_per_sec":E,
//    "net_churn_events_per_sec":E,"net_churn_reference_events_per_sec":E,
//    "net_rebalance_speedup":X,
//    "async_pagerank_wall_s":T,"wave_pagerank_wall_s":T,
//    "async_virtual_s":T,"async_total_iterations":N}
//
// The net_churn_* fields measure the fluid network itself: start/complete N
// overlapping flows on a 64-node topology and count flow events (starts +
// completions) per wall-second, for the incremental endpoint-local
// rebalancer vs the retained O(F) full-reference rebalancer.
//
// The *_calendar_* fields rerun the queue micros with QueueMode::kCalendar
// (same workload, byte-identical firing order); the onebucket_* pair is the
// pathological distribution — every pending event at ONE timestamp — where
// the calendar's sorted-bucket insert degrades and the heap does not.
//
// Honours AMR_SCALE / AMR_SEED like the figure benches.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "apps/pagerank.hpp"
#include "bench_common.hpp"
#include "graph/partitioner.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"

using namespace asyncmr;

namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Shared per-run state the event callables point into.
struct ChainState {
  uint64_t remaining = 0;
  uint64_t processed = 0;
  std::vector<uint64_t> armed;  // cancel workload: armed timer per lane
};

/// Event callables carry a trivially-copyable payload sized like a typical
/// simulator capture list ([this, hop_src, hop_dst, state, ...]): 40-48
/// bytes with the queue pointer, which the slab queue stores inline (all are
/// <= EventFn::kInlineBytes = 48; static_asserts below).
struct EventPayload {
  ChainState* state = nullptr;
  uint32_t lane = 0;
  uint64_t salt[2] = {0, 0};
};

struct NoopEvent {
  EventPayload p;
  void operator()() const {}
};

/// Timer churn: W self-rescheduling chains modelled on the slot-lease loop —
/// each iteration is a zero-delay grant hop (SimCluster::AcquireSlot grants
/// free slots via ScheduleAfter(0.0)) followed by a timed compute event.
/// Returns events fired per wall-second.
struct ChurnEvent {
  sim::EventQueue* q = nullptr;
  EventPayload p;
  bool grant_hop = false;
  void operator()() const {
    if (p.state->remaining == 0) return;
    --p.state->remaining;
    if (grant_hop) {
      q->ScheduleAfter(0.5 + 0.001 * p.lane, ChurnEvent{q, p, false});
    } else {
      q->ScheduleAfter(0.0, ChurnEvent{q, p, true});
    }
  }
};

double ChurnEventsPerSec(uint64_t total_events, uint32_t width,
                         sim::QueueMode mode) {
  static_assert(sizeof(ChurnEvent) <= sim::EventFn::kInlineBytes,
                "churn callable must exercise the inline-storage path");
  sim::EventQueue q(mode);
  ChainState state;
  state.remaining = total_events;
  const double wall = WallSeconds([&] {
    for (uint32_t lane = 0; lane < width; ++lane) {
      q.ScheduleAfter(0.001 * lane,
                      ChurnEvent{&q, EventPayload{&state, lane, {}}});
    }
    q.RunUntilEmpty();
  });
  return static_cast<double>(q.fired_count()) / wall;
}

/// Cancel-heavy: each firing event is a link rebalance that cancels and
/// re-arms the completion timers of kFlowsPerLane in-flight transfers —
/// exactly what net::Network::Rebalance does when a flow starts or finishes
/// on a shared link, and the reason most scheduled events never fire.
/// Returns (fired + cancelled + re-armed) bookkeeping operations per
/// wall-second.
inline constexpr uint32_t kFlowsPerLane = 8;

struct CancelEvent {
  sim::EventQueue* q = nullptr;
  EventPayload p;
  void operator()() const {
    ChainState& s = *p.state;
    if (s.remaining == 0) return;
    --s.remaining;
    ++s.processed;
    // Rebalance: every in-flight completion estimate on this "link" moves.
    for (uint32_t f = 0; f < kFlowsPerLane; ++f) {
      uint64_t& armed = s.armed[p.lane * kFlowsPerLane + f];
      if (armed != 0 && q->Cancel(armed)) ++s.processed;
      armed = q->ScheduleAfter(0.3 + 0.01 * f, NoopEvent{p});
      ++s.processed;
    }
    q->ScheduleAfter(0.25 + 0.001 * p.lane, CancelEvent{*this});
  }
};

double CancelEventsPerSec(uint64_t total_events, uint32_t width,
                          sim::QueueMode mode) {
  static_assert(sizeof(CancelEvent) <= sim::EventFn::kInlineBytes &&
                    sizeof(NoopEvent) <= sim::EventFn::kInlineBytes,
                "cancel callables must exercise the inline-storage path");
  sim::EventQueue q(mode);
  ChainState state;
  state.remaining = total_events / kFlowsPerLane;
  state.armed.assign(static_cast<size_t>(width) * kFlowsPerLane, 0);
  const double wall = WallSeconds([&] {
    for (uint32_t lane = 0; lane < width; ++lane) {
      q.ScheduleAfter(0.001 * lane,
                      CancelEvent{&q, EventPayload{&state, lane, {}}});
    }
    q.RunUntilEmpty();
  });
  return static_cast<double>(state.processed) / wall;
}

/// Pathological distribution for the calendar: every pending event at ONE
/// timestamp, so all keys land in a single bucket and the sorted-descending
/// insert degrades toward O(n) per op (ascending seqs insert at the front).
/// The heap takes the same workload at O(log n). Reported for both modes so
/// the trajectory records the honest worst case, not just the win.
double OneBucketEventsPerSec(sim::QueueMode mode, uint64_t total_events,
                             uint32_t batch) {
  sim::EventQueue q(mode);
  ChainState state;
  uint64_t scheduled = 0;
  const double wall = WallSeconds([&] {
    while (scheduled < total_events) {
      for (uint32_t i = 0; i < batch; ++i) {
        q.ScheduleAfter(1.0, NoopEvent{EventPayload{&state, i, {}}});
      }
      scheduled += batch;
      q.RunUntilEmpty();
    }
  });
  return static_cast<double>(q.fired_count()) / wall;
}

/// Network churn: `lanes` concurrent flow chains over a 64-node cloud-ish
/// topology. Each lane keeps exactly one flow in the fluid model (the next
/// starts when the previous completes), so the active population holds at
/// ~lanes while starts and completions continuously churn the rebalancer —
/// the access pattern a large async-engine run produces. Endpoints and sizes
/// come from a deterministic hash, identical across modes. Returns flow
/// events (starts + completions) per wall-second.
double NetChurnEventsPerSec(net::RebalanceMode mode, uint64_t total_flows,
                            uint32_t lanes) {
  net::TopologyConfig cfg;
  cfg.num_nodes = 64;
  cfg.nodes_per_rack = 8;
  sim::EventQueue q;
  net::Network net(q, net::Topology(cfg), mode);
  uint64_t remaining = total_flows;
  std::function<void(uint32_t)> next = [&](uint32_t lane) {
    if (remaining == 0) return;
    --remaining;
    uint64_t h = (remaining + 1) * 0x9E3779B97F4A7C15ull + lane;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    const auto src = static_cast<net::NodeId>(h % cfg.num_nodes);
    const auto dst = static_cast<net::NodeId>((h >> 8) % cfg.num_nodes);
    const uint64_t bytes = 200'000 + (h >> 16) % 4'000'000;
    net.Transfer(src, dst, bytes, [&next, lane] { next(lane); });
  };
  const double wall = WallSeconds([&] {
    for (uint32_t lane = 0; lane < lanes; ++lane) next(lane);
    q.RunUntilEmpty();
  });
  return static_cast<double>(net.stats().flows_started +
                             net.stats().flows_completed) /
         wall;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  // This bench IS the overhead yardstick, so nothing here attaches the
  // sinks to a measured run — requesting --trace-out/--metrics-out yields
  // valid empty documents rather than a perturbed perf anchor.
  bench::ObsSession obs_session(opts);
  // Banner to stderr: stdout carries exactly one JSON line.
  std::fprintf(stderr,
               "=== micro_des — DES kernel throughput + end-to-end anchors ===\n"
               "scale: %.2fx paper size (AMR_SCALE), seed %llu\n",
               opts.scale, static_cast<unsigned long long>(opts.seed));

  // --- queue microbenchmarks -------------------------------------------------
  const uint64_t n_events = static_cast<uint64_t>(opts.Scaled(4'000'000, 400'000));
  // Concurrent event population: matches the default ablation scenario
  // (16 workers with a few in-flight transfers each), so the queue depth is
  // realistic rather than inflated.
  const uint32_t width = static_cast<uint32_t>(GetEnvInt("AMR_DES_WIDTH", 64));

  const double churn =
      ChurnEventsPerSec(n_events, width, sim::QueueMode::kHeap);
  const double cancel =
      CancelEventsPerSec(n_events, width, sim::QueueMode::kHeap);
  std::fprintf(stderr, "churn:  %12.0f ev/s\n", churn);
  std::fprintf(stderr, "cancel: %12.0f op/s\n", cancel);

  // Same workloads through the calendar far store (byte-identical firing
  // order; only the container changes), plus the one-bucket worst case.
  const double churn_cal =
      ChurnEventsPerSec(n_events, width, sim::QueueMode::kCalendar);
  const double cancel_cal =
      CancelEventsPerSec(n_events, width, sim::QueueMode::kCalendar);
  const double cal_speedup =
      0.5 * (churn_cal / churn) + 0.5 * (cancel_cal / cancel);
  std::fprintf(stderr,
               "calendar: churn %12.0f ev/s (%.2fx heap), cancel %12.0f op/s "
               "(%.2fx heap)\n",
               churn_cal, churn_cal / churn, cancel_cal, cancel_cal / cancel);
  const uint64_t n_onebucket = std::max<uint64_t>(n_events / 8, 10'000);
  const double onebucket_heap =
      OneBucketEventsPerSec(sim::QueueMode::kHeap, n_onebucket, 1024);
  const double onebucket_cal =
      OneBucketEventsPerSec(sim::QueueMode::kCalendar, n_onebucket, 1024);
  std::fprintf(stderr,
               "one-bucket pileup: heap %12.0f ev/s, calendar %12.0f ev/s "
               "(%.2fx — pathological by design)\n",
               onebucket_heap, onebucket_cal, onebucket_cal / onebucket_heap);

  // --- fluid-network churn micro --------------------------------------------
  // ~1024 flows concurrently active on 64 nodes: the full-reference
  // rebalancer touches all of them on every start/completion, the
  // incremental one only the two endpoints' incident lists (~32 flows).
  const uint64_t n_net_flows =
      static_cast<uint64_t>(opts.Scaled(200'000, 20'000));
  const uint32_t net_lanes =
      static_cast<uint32_t>(GetEnvInt("AMR_NET_LANES", 1024));
  const double net_churn =
      NetChurnEventsPerSec(net::RebalanceMode::kIncremental, n_net_flows,
                           net_lanes);
  // Throughput is a steady-state measure, so the O(F^2) reference gets the
  // same active population but far fewer total flows — at 1024 active flows
  // it runs two orders of magnitude slower, and equal totals would make the
  // reference leg dominate the whole bench's wall time.
  const uint64_t n_ref_flows =
      std::max<uint64_t>(4 * net_lanes, n_net_flows / 50);
  const double net_churn_ref = NetChurnEventsPerSec(
      net::RebalanceMode::kFullReference, n_ref_flows, net_lanes);
  std::fprintf(stderr,
               "net:    %12.0f ev/s   (O(F) ref %12.0f ev/s, %.2fx) at %u "
               "active flows\n",
               net_churn, net_churn_ref, net_churn / net_churn_ref, net_lanes);

  // --- end-to-end anchors ----------------------------------------------------
  // The ablation_async graph scenario, built by the shared helper so this
  // anchor measures exactly what the ablation runs.
  const auto scenario = bench::BuildAblationGraphScenario(opts);
  const auto& g = scenario.g;
  const auto& part = scenario.part;

  apps::PageRankConfig pr;
  async::AsyncResult async_stats;
  double async_wall = 0.0;
  double wave_wall = 0.0;
  {
    cluster::SimCluster sim(cluster::ClusterSpec::Ec2Large8());
    async_wall = WallSeconds([&] {
      apps::AsyncPageRank(sim, g, part, pr, async::kUnboundedStaleness,
                          &async_stats);
    });
  }
  {
    cluster::SimCluster sim(cluster::ClusterSpec::Ec2Large8());
    wave_wall = WallSeconds([&] { apps::EagerPageRank(sim, g, part, pr); });
  }
  std::fprintf(stderr,
               "async PageRank: %.3fs wall (%.1fs virtual, %llu iterations); "
               "wave PageRank: %.3fs wall\n",
               async_wall, async_stats.seconds(),
               static_cast<unsigned long long>(async_stats.total_iterations),
               wave_wall);

  // --- the JSON trajectory line ----------------------------------------------
  std::printf(
      "{\"bench\":\"micro_des\",\"schema_version\":%d,\"scale\":%g,\"seed\":%llu,"
      "\"churn_events_per_sec\":%.0f,\"cancel_events_per_sec\":%.0f,"
      "\"churn_calendar_events_per_sec\":%.0f,"
      "\"cancel_calendar_events_per_sec\":%.0f,"
      "\"calendar_speedup\":%.3f,"
      "\"onebucket_heap_events_per_sec\":%.0f,"
      "\"onebucket_calendar_events_per_sec\":%.0f,"
      "\"net_churn_events_per_sec\":%.0f,"
      "\"net_churn_reference_events_per_sec\":%.0f,"
      "\"net_rebalance_speedup\":%.3f,"
      "\"async_pagerank_wall_s\":%.4f,\"wave_pagerank_wall_s\":%.4f,"
      "\"async_virtual_s\":%.4f,\"async_total_iterations\":%llu}\n",
      bench::kBenchSchemaVersion, opts.scale,
      static_cast<unsigned long long>(opts.seed), churn, cancel, churn_cal,
      cancel_cal, cal_speedup, onebucket_heap, onebucket_cal, net_churn,
      net_churn_ref, net_churn / net_churn_ref, async_wall, wave_wall,
      async_stats.seconds(),
      static_cast<unsigned long long>(async_stats.total_iterations));
  obs_session.FlushOrWarn();
  return 0;
}
