// ClusterSpec: the full description of a simulated MapReduce testbed — node
// inventory, topology, DFS parameters, and the Hadoop-era cost-model
// calibration. `Ec2Large8()` reproduces the paper's Table I configuration
// (8 Amazon EC2 extra-large instances running Hadoop 0.20.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/dfs.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"

namespace asyncmr::cluster {

struct NodeSpec {
  /// Relative compute speed (1.0 = baseline EC2 compute unit rate).
  double speed_factor = 1.0;
  uint32_t map_slots = 2;
  uint32_t reduce_slots = 2;
};

struct ClusterSpec {
  net::TopologyConfig topology;
  dfs::DfsConfig dfs;
  std::vector<NodeSpec> nodes;  // size must equal topology.num_nodes

  // --- Hadoop-on-EC2 (2010) cost calibration -------------------------------
  /// Fixed overhead per MapReduce job: submission, setup/cleanup tasks,
  /// output commit. Dominates short iterations — the effect the paper fights.
  double job_submit_overhead_s = 6.0;
  /// Per task attempt: JVM spawn + localization.
  double task_startup_s = 1.5;
  /// Slots learn about work at heartbeat granularity.
  double heartbeat_interval_s = 1.0;
  /// Seconds per abstract compute operation at speed 1.0 (Java-era rate:
  /// ~20 M graph-edge-ish ops/second per slot).
  double per_op_seconds = 5.0e-8;
  /// Local disk bandwidth for split reads and spills.
  double local_disk_Bps = 80e6;

  // --- stochastic behaviour -------------------------------------------------
  /// Probability a task attempt is a straggler, and its slowdown range.
  double straggler_prob = 0.05;
  double straggler_slowdown_min = 1.5;
  double straggler_slowdown_max = 3.0;
  /// Ordinary run-to-run noise on compute speed (+/- fraction).
  double speed_jitter = 0.1;
  /// Background-load episodes (co-tenant interference): Poisson arrivals at
  /// bg_load_rate per node per second, each lasting bg_load_duration_s and
  /// multiplying compute cost on that node by bg_load_factor. Rate 0 = never,
  /// and no RNG is drawn (bit-identical with the knob off). The compute-side
  /// twin of the topology's degraded-bandwidth episodes.
  double bg_load_rate = 0.0;
  double bg_load_duration_s = 5.0;
  double bg_load_factor = 3.0;

  // --- fault injection -------------------------------------------------------
  /// Probability an attempt fails partway (transient; Hadoop re-executes).
  double task_failure_prob = 0.0;
  /// Poisson crash rate for the async engine's long-lived workers, in crashes
  /// per worker per virtual second (0 = no worker crashes). Wave tasks get
  /// fault tolerance from deterministic re-execution (task_failure_prob
  /// above); async workers instead restart from their last durable checkpoint
  /// (see src/async/checkpoint.hpp). Shares the cluster seed discipline:
  /// rate 0 draws nothing from the RNG, so failure-free runs are bit-identical
  /// to runs of a build without crash injection.
  double worker_crash_rate = 0.0;
  /// Downtime between an async worker's crash and the start of its
  /// checkpoint restore: replacement process spawn + re-localization, the
  /// long-lived-worker analogue of task_startup_s. The checkpoint read is
  /// charged on top from the DFS cost model.
  double worker_restart_delay_s = 3.0;

  // --- node-level failure domains --------------------------------------------
  /// Poisson whole-node crash rate, in crashes per node per virtual second
  /// (0 = never, no RNG draw). A node crash kills EVERY async worker resident
  /// on the node at once, invalidates the node's un-flushed write-behind
  /// checkpoint writes (the DFS pipeline dies with the machine), and drops
  /// termination tokens addressed to it; the engine relaunches the dead
  /// node's workers on surviving nodes from their last durable snapshots.
  double node_crash_rate = 0.0;
  /// Downtime before a crashed node can host workers again. Relaunched
  /// workers do not move back; the repaired node just rejoins the candidate
  /// pool for future relaunches and speculative backups.
  double node_repair_s = 10.0;
  /// Poisson rack-correlated failure episodes, in episodes per rack per
  /// virtual second (0 = never, no RNG draw). An episode crashes every
  /// currently-up node in the rack simultaneously — the correlated failure
  /// mode replica placement exists to survive.
  double rack_crash_rate = 0.0;
  /// Gray-failure episodes: the node stays up (workers keep their state, no
  /// recovery runs) but computes at a crawl. Poisson arrivals at gray_rate
  /// per node per second, each lasting gray_duration_s and multiplying
  /// compute cost by gray_factor. Distinct from bg_load (ordinary co-tenant
  /// interference): gray episodes model sick machines — an order of
  /// magnitude slower, the tail the engine's speculative backups target.
  /// Rate 0 = never, and no RNG is drawn.
  double gray_rate = 0.0;
  double gray_duration_s = 5.0;
  double gray_factor = 10.0;

  // --- speculative execution -------------------------------------------------
  /// Re-launch a running task elsewhere once its elapsed time exceeds this
  /// multiple of the median completed duration in the wave (0 = disabled).
  double speculative_factor = 0.0;

  uint64_t seed = 42;

  /// Far-future event store for the simulation kernel. kHeap is the exact
  /// default every stored BENCH trajectory pins; kCalendar pops the byte-
  /// identical event sequence O(1) amortized per op (bench/micro_des
  /// measures the crossover; the CalendarQueue cases in tests/test_sim.cpp
  /// and an end-to-end AsyncPageRank case in tests/test_async.cpp pin the
  /// equivalence).
  sim::QueueMode queue_mode = sim::QueueMode::kHeap;

  /// The paper's testbed (Table I): 8 EC2 extra-large instances.
  static ClusterSpec Ec2Large8();

  /// A larger cloud deployment in the spirit of the CluE 460-node cluster the
  /// paper's Discussion section scales to.
  static ClusterSpec Cloud(uint32_t num_nodes);

  /// Spread static node speeds geometrically across the inventory: node 0
  /// stays at 1.0 and the slowest node runs at 1/spread, i.e. node i gets
  /// speed_factor = spread^(-i/(n-1)). spread = 1 assigns exactly 1.0
  /// everywhere (identity); larger spreads model a more heterogeneous fleet.
  /// The single heterogeneity knob bench/ablation_hetero sweeps.
  void ApplySpeedSpread(double spread);

  uint32_t num_nodes() const { return topology.num_nodes; }
  uint32_t total_map_slots() const;
  uint32_t total_reduce_slots() const;
  std::string Describe() const;
};

}  // namespace asyncmr::cluster
