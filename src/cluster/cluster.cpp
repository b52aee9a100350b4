#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/logging.hpp"
#include "obs/obs.hpp"

namespace asyncmr::cluster {

namespace {

/// Attempts per wave task; the last one never draws a transient failure.
constexpr uint32_t kMaxTaskAttempts = 4;

}  // namespace

// ---------------------------------------------------------------------------
// WaveRunner: drives one wave of tasks through the slot/cost model.
// ---------------------------------------------------------------------------

class SimCluster::WaveRunner
    : public std::enable_shared_from_this<SimCluster::WaveRunner> {
 public:
  WaveRunner(SimCluster& cluster, std::vector<TaskSpec> specs, SlotType type,
             WaveCallback on_done)
      : cluster_(cluster),
        specs_(std::move(specs)),
        type_(type),
        sched_(cluster.network_.topology()),
        on_done_(std::move(on_done)) {
    tasks_.resize(specs_.size());
    remaining_ = static_cast<uint32_t>(specs_.size());
  }

  void Start() {
    result_.start_time = cluster_.queue_.now();
    if (specs_.empty()) {
      Finish();
      return;
    }
    std::vector<uint32_t> indices(specs_.size());
    for (uint32_t i = 0; i < indices.size(); ++i) indices[i] = i;
    sched_.Enqueue(indices);
    KickAll();
  }

 private:
  struct TaskState {
    bool done = false;
    bool work_executed = false;
    bool backup_launched = false;
    uint32_t attempts = 0;
    double first_start = -1.0;
    WorkReport report;
    // Start time of the most recent primary attempt (for speculation).
    double attempt_start = -1.0;
    bool attempt_running = false;
  };

  // Reserves slots for pending tasks round-robin across nodes (one slot per
  // node per pass) so locality-constrained tasks get a chance to land on
  // their data nodes. Assign events that find the queue empty release their
  // reservation.
  void KickAll() {
    const uint32_t n = cluster_.spec_.num_nodes();
    bool progress = true;
    while (progress && reserved_assigns_ < sched_.pending()) {
      progress = false;
      for (net::NodeId node = 0; node < n && reserved_assigns_ < sched_.pending();
           ++node) {
        if (ReserveOne(node)) progress = true;
      }
    }
  }

  void KickNode(net::NodeId node) {
    while (reserved_assigns_ < sched_.pending() && ReserveOne(node)) {
    }
  }

  bool ReserveOne(net::NodeId node) {
    auto& free_slots = cluster_.slot_count(node, type_);
    if (free_slots == 0) return false;
    --free_slots;
    ++reserved_assigns_;
    // The tasktracker reports the free slot at the next heartbeat.
    const double delay =
        cluster_.rng_.NextDouble() * cluster_.spec_.heartbeat_interval_s;
    auto self = shared_from_this();
    cluster_.queue_.ScheduleAfter(delay, [self, node] { self->Assign(node); });
    return true;
  }

  void Assign(net::NodeId node) {
    --reserved_assigns_;
    auto task = sched_.PickForNode(node, specs_);
    if (!task.has_value()) {
      cluster_.ReleaseSlot(node, type_);
      return;
    }
    StartAttempt(*task, node, /*speculative=*/false);
  }

  void StartAttempt(uint32_t task_index, net::NodeId node, bool speculative) {
    TaskState& st = tasks_[task_index];
    ++st.attempts;
    const double now = cluster_.queue_.now();
    if (st.first_start < 0) st.first_start = now;
    if (!speculative) {
      st.attempt_start = now;
      st.attempt_running = true;
    }
    // Phase 1: task startup (JVM spawn), then the shuffle-fetch phase.
    auto self = shared_from_this();
    cluster_.queue_.ScheduleAfter(
        cluster_.spec_.task_startup_s, [self, task_index, node, speculative] {
          self->BeginFetches(task_index, node, speculative);
        });
  }

  void BeginFetches(uint32_t task_index, net::NodeId node, bool speculative) {
    const auto& fetches = specs_[task_index].fetches;
    auto self = shared_from_this();
    if (fetches.empty()) {
      RunComputePhase(task_index, node, speculative);
      return;
    }
    // Phase 2: pull all inputs as real flows (the Hadoop shuffle copy).
    auto pending = std::make_shared<uint32_t>(static_cast<uint32_t>(fetches.size()));
    for (const auto& [src, bytes] : fetches) {
      cluster_.network_.Transfer(src, node, bytes,
                                 [self, pending, task_index, node, speculative] {
                                   if (--*pending == 0) {
                                     self->RunComputePhase(task_index, node,
                                                           speculative);
                                   }
                                 });
    }
  }

  void RunComputePhase(uint32_t task_index, net::NodeId node, bool speculative) {
    const ClusterSpec& spec = cluster_.spec_;
    TaskState& st = tasks_[task_index];
    const TaskSpec& ts = specs_[task_index];

    // Execute the real work exactly once; retries replay deterministically,
    // so the cost model reuses the measured report.
    if (!st.work_executed) {
      st.report = ts.work ? ts.work() : WorkReport{};
      st.work_executed = true;
    }

    // --- closed-form attempt duration --------------------------------------
    const bool data_local =
        ts.data_nodes.empty() ||
        std::find(ts.data_nodes.begin(), ts.data_nodes.end(), node) !=
            ts.data_nodes.end();
    double input_s;
    if (data_local) {
      input_s = static_cast<double>(ts.input_bytes) / spec.local_disk_Bps;
    } else {
      // Fetch from the closest replica (closed form; see header note).
      net::NodeId best = ts.data_nodes.front();
      for (net::NodeId cand : ts.data_nodes) {
        if (cluster_.network_.topology().Latency(cand, node) <
            cluster_.network_.topology().Latency(best, node)) {
          best = cand;
        }
      }
      input_s = cluster_.network_.IdealTransferSeconds(best, node, ts.input_bytes);
    }

    double slowdown = 1.0 + spec.speed_jitter * (2.0 * cluster_.rng_.NextDouble() - 1.0);
    if (cluster_.rng_.NextBool(spec.straggler_prob)) {
      slowdown = cluster_.rng_.NextDouble(spec.straggler_slowdown_min,
                                          spec.straggler_slowdown_max);
    }
    const double speed = spec.nodes[node].speed_factor;
    const double load =
        cluster_.NodeLoadFactor(node) * cluster_.NodeGrayFactor(node);
    const double compute_s = static_cast<double>(st.report.ops) *
                             spec.per_op_seconds * st.report.time_scale *
                             slowdown * load / speed;
    const double output_s =
        static_cast<double>(st.report.output_bytes) / spec.local_disk_Bps;
    const double total_s = input_s + compute_s + output_s;  // startup already paid

    // --- transient failure draw ---------------------------------------------
    // Hadoop kills the job after kMaxTaskAttempts; we instead force the last
    // allowed attempt to succeed so simulations always make progress.
    const bool may_fail = st.attempts < kMaxTaskAttempts;
    const bool fails = may_fail && cluster_.rng_.NextBool(spec.task_failure_prob);
    auto self = shared_from_this();
    if (fails) {
      const double fail_frac = cluster_.rng_.NextDouble(0.05, 0.95);
      cluster_.queue_.ScheduleAfter(fail_frac * total_s, [self, task_index, node] {
        self->OnAttemptFailed(task_index, node);
      });
      return;
    }
    cluster_.queue_.ScheduleAfter(
        total_s, [self, task_index, node, data_local, speculative] {
          self->OnAttemptCompleted(task_index, node, data_local, speculative);
        });
  }

  void OnAttemptFailed(uint32_t task_index, net::NodeId node) {
    ++result_.failed_attempts;
    cluster_.ReleaseSlot(node, type_);
    TaskState& st = tasks_[task_index];
    st.attempt_running = false;
    if (!st.done) {
      AMR_LOG_DEBUG << "task " << specs_[task_index].name << " attempt failed on node "
                    << node << "; re-executing (deterministic replay)";
      sched_.EnqueueFront(task_index);
    }
    KickAll();
  }

  void OnAttemptCompleted(uint32_t task_index, net::NodeId node, bool data_local,
                          bool speculative) {
    cluster_.ReleaseSlot(node, type_);
    TaskState& st = tasks_[task_index];
    if (st.done) {
      // A redundant (speculative or original) attempt lost the race.
      KickAll();
      return;
    }
    st.done = true;
    st.attempt_running = false;

    TaskOutcome outcome;
    outcome.task_index = task_index;
    outcome.node = node;
    outcome.attempts = st.attempts;
    outcome.start_time = st.first_start;
    outcome.finish_time = cluster_.queue_.now();
    outcome.ops = st.report.ops;
    outcome.data_local = data_local;
    outcome.speculative_won = speculative;
    if (data_local) ++result_.data_local_tasks;
    result_.total_ops += st.report.ops;
    result_.tasks.push_back(outcome);
    completed_durations_.push_back(outcome.finish_time - outcome.start_time);

    --remaining_;
    if (remaining_ == 0) {
      Finish();
      return;
    }
    MaybeSpeculate();
    KickAll();
  }

  void MaybeSpeculate() {
    const ClusterSpec& spec = cluster_.spec_;
    if (spec.speculative_factor <= 0 || completed_durations_.empty()) return;
    // Median completed duration as the straggler yardstick.
    std::vector<double> durs = completed_durations_;
    std::nth_element(durs.begin(), durs.begin() + durs.size() / 2, durs.end());
    const double median = durs[durs.size() / 2];
    const double now = cluster_.queue_.now();

    for (uint32_t t = 0; t < tasks_.size(); ++t) {
      TaskState& st = tasks_[t];
      if (st.done || st.backup_launched || !st.attempt_running) continue;
      if (now - st.attempt_start < spec.speculative_factor * median) continue;
      // Find any node with a free slot for the backup attempt.
      std::optional<net::NodeId> found;
      for (net::NodeId node = 0; node < spec.num_nodes(); ++node) {
        if (cluster_.slot_count(node, type_) > 0) {
          found = node;
          break;
        }
      }
      if (!found.has_value()) return;  // no capacity for backups
      --cluster_.slot_count(*found, type_);
      st.backup_launched = true;
      ++result_.speculative_attempts;
      StartAttempt(t, *found, /*speculative=*/true);
    }
  }

  void Finish() {
    result_.finish_time = cluster_.queue_.now();
    std::sort(result_.tasks.begin(), result_.tasks.end(),
              [](const TaskOutcome& a, const TaskOutcome& b) {
                return a.task_index < b.task_index;
              });
    // Detach from the cluster's active set, then hand over the result.
    auto& waves = cluster_.active_waves_;
    auto self = shared_from_this();
    waves.erase(std::remove(waves.begin(), waves.end(), self), waves.end());
    if (on_done_) on_done_(std::move(result_));
  }

  SimCluster& cluster_;
  std::vector<TaskSpec> specs_;
  SlotType type_;
  LocalityScheduler sched_;
  WaveCallback on_done_;
  WaveResult result_;
  std::vector<TaskState> tasks_;
  std::vector<double> completed_durations_;
  uint32_t remaining_ = 0;
  size_t reserved_assigns_ = 0;
};

// ---------------------------------------------------------------------------
// SimCluster
// ---------------------------------------------------------------------------

SimCluster::SimCluster(ClusterSpec spec)
    : spec_(std::move(spec)),
      queue_(spec_.queue_mode),
      network_(queue_, net::Topology(spec_.topology),
               net::RebalanceMode::kIncremental, MixSeed(spec_.seed, 0xAD7E)),
      rpc_(network_),
      dfs_(queue_, network_, spec_.dfs, MixSeed(spec_.seed, 0xDF5)),
      rng_(MixSeed(spec_.seed, 0xC1)) {
  AMR_CHECK_EQ(spec_.nodes.size(), spec_.topology.num_nodes);
  if (spec_.bg_load_rate > 0.0) bg_load_.resize(spec_.nodes.size());
  if (spec_.gray_rate > 0.0) gray_.resize(spec_.nodes.size());
  free_map_slots_.reserve(spec_.nodes.size());
  free_reduce_slots_.reserve(spec_.nodes.size());
  for (const NodeSpec& n : spec_.nodes) {
    free_map_slots_.push_back(n.map_slots);
    free_reduce_slots_.push_back(n.reduce_slots);
  }
  map_slot_waiters_.resize(spec_.nodes.size());
  reduce_slot_waiters_.resize(spec_.nodes.size());
}

uint32_t& SimCluster::slot_count(net::NodeId node, SlotType type) {
  return type == SlotType::kMap ? free_map_slots_[node] : free_reduce_slots_[node];
}

std::deque<std::function<void()>>& SimCluster::slot_waiters(net::NodeId node,
                                                            SlotType type) {
  return type == SlotType::kMap ? map_slot_waiters_[node]
                                : reduce_slot_waiters_[node];
}

void SimCluster::AcquireSlot(net::NodeId node, SlotType type,
                             std::function<void()> on_acquired) {
  uint32_t& free = slot_count(node, type);
  // Invariant: waiters exist only while the free count is zero.
  if (free > 0) {
    --free;
    queue_.ScheduleAfter(0.0, std::move(on_acquired));
    return;
  }
  if (trace_ != nullptr) {
    // Only the queued path is interesting (and only it pays for the wrapper):
    // record how long the request sat behind the busy node.
    const double enqueued_at = queue_.now();
    slot_waiters(node, type)
        .push_back([this, node, enqueued_at,
                    inner = std::move(on_acquired)]() mutable {
          if (trace_ != nullptr) {
            trace_->Span("slot-wait", "cluster", obs::kPidControl, node,
                         enqueued_at, queue_.now());
          }
          inner();
        });
    return;
  }
  slot_waiters(node, type).push_back(std::move(on_acquired));
}

void SimCluster::ReleaseSlot(net::NodeId node, SlotType type) {
  auto& waiters = slot_waiters(node, type);
  if (!waiters.empty()) {
    // Hand the slot straight to the oldest waiter (it stays allocated).
    std::function<void()> next = std::move(waiters.front());
    waiters.pop_front();
    queue_.ScheduleAfter(0.0, std::move(next));
    return;
  }
  ++slot_count(node, type);
}

uint32_t SimCluster::free_slots(net::NodeId node, SlotType type) const {
  return type == SlotType::kMap ? free_map_slots_[node] : free_reduce_slots_[node];
}

double SimCluster::NodeLoadFactor(net::NodeId node) {
  if (bg_load_.empty()) return 1.0;
  BgLoad& bg = bg_load_[node];
  if (!bg.inited) {
    bg.inited = true;
    bg.rng = Rng(MixSeed(MixSeed(spec_.seed, 0xB610AD), node));
    bg.next_change = bg.rng.NextExponential(1.0 / spec_.bg_load_rate);
  }
  const double now = queue_.now();
  while (bg.next_change <= now) {
    if (bg.loaded) {
      bg.loaded = false;
      bg.next_change += bg.rng.NextExponential(1.0 / spec_.bg_load_rate);
    } else {
      bg.loaded = true;
      bg.next_change += spec_.bg_load_duration_s;
    }
  }
  return bg.loaded ? spec_.bg_load_factor : 1.0;
}

double SimCluster::NodeGrayFactor(net::NodeId node) {
  if (gray_.empty()) return 1.0;
  // Same lazy alternating-renewal timeline as NodeLoadFactor, on its own
  // per-node substream so adding gray failures never perturbs bg-load draws.
  BgLoad& g = gray_[node];
  if (!g.inited) {
    g.inited = true;
    g.rng = Rng(MixSeed(MixSeed(spec_.seed, 0x62A4), node));
    g.next_change = g.rng.NextExponential(1.0 / spec_.gray_rate);
  }
  const double now = queue_.now();
  while (g.next_change <= now) {
    if (g.loaded) {
      g.loaded = false;
      g.next_change += g.rng.NextExponential(1.0 / spec_.gray_rate);
    } else {
      g.loaded = true;
      g.next_change += spec_.gray_duration_s;
    }
  }
  return g.loaded ? spec_.gray_factor : 1.0;
}

double SimCluster::NextWorkerCrashDelay() {
  if (spec_.worker_crash_rate <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return rng_.NextExponential(1.0 / spec_.worker_crash_rate);
}

double SimCluster::NextNodeCrashDelay() {
  if (spec_.node_crash_rate <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return rng_.NextExponential(1.0 / spec_.node_crash_rate);
}

double SimCluster::NextRackCrashDelay() {
  if (spec_.rack_crash_rate <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return rng_.NextExponential(1.0 / spec_.rack_crash_rate);
}

void SimCluster::RunWave(std::vector<TaskSpec> tasks, SlotType type,
                         WaveCallback on_done) {
  auto runner = std::make_shared<WaveRunner>(*this, std::move(tasks), type,
                                             std::move(on_done));
  active_waves_.push_back(runner);
  runner->Start();
}

WaveResult SimCluster::RunWaveBlocking(std::vector<TaskSpec> tasks, SlotType type) {
  std::optional<WaveResult> result;
  RunWave(std::move(tasks), type, [&result](WaveResult r) { result = std::move(r); });
  RunUntilIdle();
  AMR_CHECK(result.has_value()) << "wave did not complete";
  return std::move(*result);
}

}  // namespace asyncmr::cluster
