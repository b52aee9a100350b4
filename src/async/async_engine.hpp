// Barrier-free asynchronous iterative engine on the simulated cluster.
//
// Where mr::Job runs map-wave -> shuffle barrier -> reduce-wave per global
// iteration (the cost the paper identifies as dominant), this engine runs one
// long-lived logical worker per partition. Each worker repeatedly:
//
//   1. leases a task slot on its host node (workers time-share slots, so
//      partitions > slots serialize exactly like waves do),
//   2. runs the application's compute callback — typically a local solve to
//      convergence, the paper's lmap/lreduce loop — charged in virtual time
//      from the same cost model as wave tasks (ops rate, jitter, stragglers),
//      plus one op per update record delivered since its previous iteration
//      (applying peers' state is not free; the wave engines pay the
//      equivalent inside reduce, and records delivered to a worker that
//      never iterates again are not charged),
//   3. pushes its update batches directly to the peer partitions that need
//      them, as real byte-counted flows through net::Network — no shuffle,
//      no DFS round trip, no job-submit overhead.
//
// Updates are app-defined: a batch is an opaque byte payload encoded through
// serde (AsyncContext::Emit<U> appends a record, ForEachUpdate<U> walks a
// delivered batch), so PageRank contributions, SSSP candidates, K-Means
// count-weighted centroid partials, component labels, and Jacobi boundary
// rows all ride the same engine, and network byte counts come from the real
// encoded size rather than a fixed per-record estimate.
//
// Staleness: updates carry the sender's iteration clock. With a bounded
// staleness window S a worker may start its k-th iteration only once every
// peer has completed k-1-S (see state_store.hpp — a lag bound: fresher
// already-delivered updates remain visible, per the SSP contract); S = 0
// gives barrier-strength synchronized rounds for A/B comparison,
// S = kUnboundedStaleness is pure asynchrony. Under a bounded window the engine symmetrizes the peer graph
// and sends (possibly empty) clock-bearing batches each iteration so clocks
// propagate; idle workers take keepalive iterations when peers pull ahead of
// the window, which keeps lockstep deadlock-free.
//
// Termination is detected without a barrier by the Safra-style residual token
// of progress.hpp circulating on the RPC layer.
//
// Fault tolerance (checkpoint/replay — see checkpoint.hpp): when the cluster
// spec sets worker_crash_rate > 0, workers crash at Poisson times. A crashed
// worker loses its in-memory state and, after the spec's restart delay plus
// the checkpoint read time, resumes from its last durable WorkerSnapshot
// with a bumped *epoch*. Every outgoing batch is stamped with the sender's
// epoch; deliveries from a dead epoch — in flight when the sender died — are
// dropped, as are deliveries to a worker that is down (both still count as
// received so the Safra sent == received proof stays balanced; the per-batch
// counters live in the node runtime, not the crashed process). On restore
// the engine resets peers' gating view of the worker's rolled-back clock,
// refreshes the worker's own gating view from current clocks (master-
// assisted, or the SSP gate could deadlock on peers that converged and went
// silent), and notifies every worker that sends to the restarted one so apps
// drop dead-epoch state and force their delta filters to re-announce — the
// recovery analogue of the initial seeding pass. A token circuit that missed
// a restart (the crash happened after its visit) is tainted by the token's
// restart count trailing the engine's, so the termination proof stays sound.
//
// Everything is scheduled on the cluster's deterministic DES event queue:
// two runs with the same seed are bit-identical, crashes included; with
// crash rate 0 the engine draws nothing extra and checkpoint writes are
// write-behind, so results and the event timeline are bit-identical to a run
// with checkpointing disabled — the checkpoint cost surfaces in the
// AsyncResult accounting and in recovery time when crashes do happen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "async/checkpoint.hpp"
#include "async/clock_table.hpp"
#include "async/progress.hpp"
#include "cluster/cluster.hpp"
#include "common/stats.hpp"
#include "obs/obs.hpp"
#include "serde/serde.hpp"

namespace asyncmr::async {

/// An update batch in flight between two workers: `records` values of the
/// application's update type encoded back-to-back with serde. The engine
/// never looks inside the payload — it only counts records (merge cost) and
/// bytes (network cost).
struct UpdateBatch {
  serde::Buffer payload;
  uint32_t records = 0;

  bool empty() const { return records == 0; }
  /// Drops contents, keeping the payload's capacity for reuse.
  void clear() {
    payload.clear();
    records = 0;
  }
};

/// Appends one update record to a batch.
template <typename U>
void AppendUpdate(UpdateBatch& batch, const U& update) {
  serde::Writer w(batch.payload);
  serde::Serde<U>::Write(w, update);
  ++batch.records;
}

/// Decodes a delivered batch record by record. The update type must match
/// what the sender emitted; a mismatch surfaces as a decode failure, not UB.
template <typename U, typename Fn>
void ForEachUpdate(const UpdateBatch& batch, Fn&& fn) {
  serde::Reader r(batch.payload);
  for (uint32_t i = 0; i < batch.records; ++i) {
    U u{};
    const Status s = serde::Serde<U>::Read(r, u);
    AMR_CHECK(s.ok()) << "corrupt async update batch: " << s.ToString();
    fn(u);
  }
  AMR_CHECK(r.AtEnd()) << "async update batch has trailing bytes ("
                       << batch.records << " records, " << r.remaining()
                       << " bytes left)";
}

/// Decodes a whole batch into a vector (test/debug convenience; hot paths
/// should use ForEachUpdate and skip the allocation).
template <typename U>
std::vector<U> DecodeBatch(const UpdateBatch& batch) {
  std::vector<U> out;
  out.reserve(batch.records);
  ForEachUpdate<U>(batch, [&](const U& u) { out.push_back(u); });
  return out;
}

/// Wire envelope bytes per update batch; record bytes are the real encoded
/// size.
inline constexpr uint64_t kUpdateEnvelopeBytes = 64;

/// The transport, termination, checkpoint and fault knobs applications
/// expose to callers without replicating the whole AsyncConfig (apps own the
/// other AsyncConfig fields — thresholds, caps, names — and copy this struct
/// into AsyncConfig::tuning). Benches sweep them for the P >> slots regime.
struct EngineTuning {
  /// Per-peer update-batch coalescing: while a flow to a peer is in flight,
  /// merge subsequent emissions to that peer into one pending batch (records
  /// appended in emission order, so replacement semantics are preserved) and
  /// launch it when the in-flight flow lands — at most one flow per
  /// (worker, peer) edge plus one pending batch, instead of a flow per
  /// iteration. This is what keeps the active-flow population bounded when
  /// workers iterate faster than the network drains (P >> slots, broadcast
  /// apps). Batches merged into a pending batch are counted in
  /// coalesced_batches / coalesced_bytes_saved, not in update_batches. The
  /// Safra proof is unaffected: a pending batch exists only while its edge
  /// has a flow in flight, which already holds sent > received.
  bool coalesce_batches = false;
  /// Adaptive inter-circuit pause: back off by the previous circuit's own
  /// (virtual) duration, clamped to [token_backoff_s, 30 s]. A circuit is P
  /// sequential RPC hops, so at P in the thousands a fixed small backoff
  /// keeps the ring saturated with control traffic; scaling the pause to the
  /// measured circuit time bounds token overhead at ~50% of the RPC path
  /// regardless of P, deterministically (virtual time only).
  bool adaptive_token_backoff = false;
  /// Pause between termination-token circuits that fail to prove termination
  /// (the base, and in adaptive mode the minimum, inter-circuit pause).
  double token_backoff_s = 0.25;
  /// Completed iterations between worker checkpoints (0 = only the free
  /// initial snapshot). Checkpoints are taken only when a snapshot callback
  /// is installed; crash injection (ClusterSpec::worker_crash_rate > 0)
  /// requires both snapshot and restore callbacks. Writes are write-behind
  /// (see checkpoint.hpp): they never perturb the failure-free timeline, but
  /// a crash can only restore a snapshot whose DFS write had completed.
  uint32_t checkpoint_interval = 8;

  // --- robustness under adversarial networks --------------------------------
  // (Failed update batches are retried on a fixed backoff schedule; see
  // AsyncEngine::OnFlowFailed.)
  /// Bounded-staleness peer suspicion (0 = disabled, and irrelevant under
  /// unbounded staleness): a worker gate-blocked for longer than this
  /// suspects every peer whose clock is below the gate's need and stops
  /// waiting on them — bounded degradation instead of a partition-length
  /// stall. A suspected peer is trusted again the moment any batch from it
  /// arrives. CAVEAT: while a peer is suspected the SSP lag bound no longer
  /// holds against it (iterations may consume staler state than S promises);
  /// convergence contracts that *rely* on bounded staleness should pick a
  /// timeout well above the slowest peer's honest iteration time so only
  /// genuinely unreachable peers get suspected.
  double suspicion_timeout_s = 0.0;
  /// Probability each paid checkpoint write is corrupted (one byte flipped
  /// after its CRC is recorded, so recovery detects it and falls back to the
  /// previous retained snapshot). Test/chaos knob; 0 = clean, no draws.
  double checkpoint_corruption_prob = 0.0;
  /// Safra-token loss recovery: base timeout after which the initiator
  /// presumes the circulating token lost and regenerates it under a fresh
  /// generation (the token's circuit id — see progress.hpp; handlers drop
  /// tokens from abandoned generations). The timer backs off exponentially
  /// across consecutive regenerations of the same logical circuit so a
  /// merely-slow ring cannot be regenerated into a livelock, and it is armed
  /// at all ONLY when the configured network/failure knobs can actually lose
  /// or strand a token — clean runs schedule no timer and stay bit-identical.
  double token_regen_timeout_s = 3.0;
  /// Speculative backup workers: every speculation_check_interval_s the
  /// engine compares per-worker iteration rates observed since the previous
  /// scan; a worker whose rate falls below median/speculation_factor gets a
  /// backup replica launched from its latest durable checkpoint on the
  /// fastest other live node with a free slot. First to progress wins: if
  /// the straggler advanced before the backup finished incubating, the
  /// backup is discarded; otherwise the straggler is fenced through the
  /// existing epoch machinery (its in-flight batches die as dead-epoch) and
  /// the backup becomes the worker. 0 disables — no timers, no draws.
  /// Requires snapshot/restore callbacks, like crash injection.
  double speculation_factor = 0.0;
  double speculation_check_interval_s = 1.0;

  /// Observability sinks (null = disabled, the default; see obs/obs.hpp).
  /// The sinks must outlive the engine; the engine detaches what it installed
  /// (network/cluster trace pointers, metric probes) in its destructor.
  obs::Observability obs;
};

struct AsyncConfig {
  /// Staleness window S (see file comment). 0 = lockstep, kUnboundedStaleness
  /// = pure async.
  uint32_t staleness_bound = kUnboundedStaleness;
  /// A worker idles once its iteration residual drops below this; the run
  /// terminates (converged) when all workers idle below it with no updates in
  /// flight.
  double convergence_threshold = 1e-5;
  /// Hard per-worker iteration cap; a capped run terminates converged=false.
  uint32_t max_iterations_per_worker = 10'000;
  /// Transport, termination, checkpoint and fault knobs (see EngineTuning).
  EngineTuning tuning;
  std::string name = "async";
};

/// Worker lifecycle phase, exposed for the termination predicate below.
/// kDown = crashed and awaiting checkpoint restore.
enum class WorkerPhase { kIdle, kBlocked, kWaitingSlot, kComputing, kDown };

/// Safra-visit quiescence: may the termination token count this worker as
/// done? A worker mid-restart (kDown) never is — its restored state WILL
/// recompute, whatever the rest of the ring looks like, so a circuit that
/// counted it done could prove "termination" out from under the recovery
/// (even a capped worker restores to a rolled-back, un-capped clock). A
/// capped live worker never iterates again, whatever input it holds —
/// counting it non-quiescent would circulate the token forever. Any other
/// worker is quiescent only when parked (idle or gate-blocked) with NO
/// unconsumed input: a blocked worker with pending_input WILL recompute once
/// its staleness gate opens, so counting it quiescent lets a circuit prove
/// "termination" while input that would change the final residual sits
/// unapplied.
constexpr bool QuiescentForTermination(WorkerPhase phase, bool capped,
                                       bool pending_input) {
  if (phase == WorkerPhase::kDown) return false;
  if (capped) return true;
  return (phase == WorkerPhase::kIdle || phase == WorkerPhase::kBlocked) &&
         !pending_input;
}

/// Handed to the compute callback: collects update emissions, op counts and
/// the iteration residual. Emissions encode directly into the worker's
/// per-peer batch buffers (index-aligned with its sorted out-peer list),
/// which the engine reuses across iterations — no per-iteration map nodes.
class AsyncContext {
 public:
  /// Queues an update for `peer` (must be a declared out-peer, not self).
  /// U is the application's update type; every record of a run must use the
  /// same type (receivers decode with ForEachUpdate<U>).
  template <typename U>
  void Emit(uint32_t peer, const U& update) {
    AppendUpdate((*slots_)[SlotOf(peer)], update);
  }

  /// Queues one already-encoded record (`record` = serde::Encode of a single
  /// update) for `peer`. For broadcast-style apps this pays the encode once
  /// instead of once per peer; the payload bytes are identical to Emit's.
  void EmitEncoded(uint32_t peer, const serde::Buffer& record) {
    UpdateBatch& batch = (*slots_)[SlotOf(peer)];
    batch.payload.Append(record.data(), record.size());
    ++batch.records;
  }
  void AddOps(uint64_t ops) { ops_ += ops; }
  /// Convergence measure of this iteration; the worker idles below the
  /// engine's convergence_threshold.
  void set_residual(double r) { residual_ = r; }

  uint32_t partition() const { return partition_; }
  /// 1-based index of the iteration being computed.
  uint32_t iteration() const { return iteration_; }

 private:
  friend class AsyncEngine;

  size_t SlotOf(uint32_t peer) const {
    const auto it = std::lower_bound(peers_->begin(), peers_->end(), peer);
    AMR_CHECK(it != peers_->end() && *it == peer)
        << "partition " << partition_ << " emitted to undeclared peer " << peer;
    return static_cast<size_t>(it - peers_->begin());
  }

  uint32_t partition_ = 0;
  uint32_t iteration_ = 0;
  uint64_t ops_ = 0;
  double residual_ = 0.0;
  const std::vector<uint32_t>* peers_ = nullptr;  // sorted out-peer list
  std::vector<UpdateBatch>* slots_ = nullptr;     // parallel batch buffers
};

struct WorkerStats {
  uint32_t iterations = 0;
  uint64_t ops = 0;
  uint64_t merge_ops = 0;  // subset of ops charged for applying batches
  uint64_t batches_sent = 0;
  uint64_t batches_received = 0;
  uint64_t records_sent = 0;
  /// Emissions merged into an already-pending batch instead of opening a new
  /// flow, and the envelope bytes that saved (coalesce_batches only).
  uint64_t coalesced_batches = 0;
  uint64_t coalesced_bytes_saved = 0;
  /// Epoch bumps this worker went through (== final epoch): every crash,
  /// worker- or node-level, and every speculative fence that replaced it
  /// with a winning backup.
  uint32_t restarts = 0;
  /// Total virtual time this worker spent dead (crash to restore), across
  /// worker- and node-level failures. Speculative fencing is not downtime —
  /// the replacement is live the instant the loser is fenced.
  double downtime_seconds = 0.0;
  /// Robustness counters: outgoing flows that failed (dropped/killed/timed
  /// out), retry attempts launched for them, total backoff waited before
  /// those retries, and batches abandoned after kMaxBatchRetries (each one
  /// repaired by a forced re-announcement instead).
  uint64_t flow_drops = 0;
  uint64_t batch_retries = 0;
  double retry_backoff_seconds = 0.0;
  uint64_t batches_abandoned = 0;
  /// Checkpoints written after the free initial snapshot, and their bytes.
  uint32_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  /// Residual of the last completed iteration. Meaningless (0.0) when
  /// residual_known is false — the worker terminated before completing a
  /// single iteration, so it never measured one.
  double last_residual = 0.0;
  bool residual_known = false;

  bool operator==(const WorkerStats&) const = default;
};

struct AsyncResult {
  bool converged = false;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  /// Sum of iterations across workers — the async analogue of the paper's
  /// partial synchronization count.
  uint64_t total_iterations = 0;
  uint64_t total_ops = 0;
  uint64_t total_merge_ops = 0;
  uint64_t update_batches = 0;
  uint64_t update_records = 0;
  uint64_t bytes_sent = 0;
  /// Coalescing savings: emissions that rode an already-pending batch (each
  /// is one network flow NOT opened) and the envelope bytes avoided.
  /// update_records counts every record delivered either way; update_batches
  /// and bytes_sent count only what actually hit the wire.
  uint64_t coalesced_batches = 0;
  uint64_t coalesced_bytes_saved = 0;
  uint32_t token_circuits = 0;
  /// Fault-tolerance accounting. Checkpoint writes are write-behind, so
  /// checkpoint_write_seconds is background DFS time (it bounds snapshot
  /// freshness, not the failure-free critical path); recovery_seconds IS
  /// critical-path virtual time — restart delay + checkpoint reads — paid by
  /// crashed workers. worker_restarts sums WorkerStats::restarts, so it
  /// counts speculative fences as well as crashes (speculation alone can
  /// report restarts with zero crashes).
  uint32_t worker_restarts = 0;
  uint32_t checkpoints_written = 0;
  uint64_t checkpoint_bytes = 0;
  double checkpoint_write_seconds = 0.0;
  double recovery_seconds = 0.0;
  /// Node-level failure domains: whole-node crashes injected, rack-wide
  /// failure episodes, and in-flight checkpoint writes lost because their
  /// node died before the DFS pipeline flushed (each falls back to an older
  /// durable snapshot).
  uint32_t node_crashes = 0;
  uint32_t rack_crash_episodes = 0;
  uint64_t checkpoint_writes_lost = 0;
  /// Survivable control plane: token request hops dropped by the faulty
  /// network or addressed to a down node, initiator regenerations after a
  /// presumed loss, and stale-generation tokens discarded by handlers.
  uint64_t tokens_lost = 0;
  uint32_t token_regenerations = 0;
  uint32_t stale_tokens_dropped = 0;
  /// Speculative backups: launched, won (straggler fenced, replica took
  /// over), lost (straggler progressed first; replica discarded).
  uint32_t speculative_launches = 0;
  uint32_t speculative_wins = 0;
  uint32_t speculative_losses = 0;
  /// Recovery telemetry: completed crash→restore cycles, their total
  /// downtime, the mean time to recover, and the downtime distribution.
  uint32_t recoveries = 0;
  double downtime_seconds = 0.0;
  double mttr_seconds = 0.0;
  double downtime_p50 = 0.0;
  double downtime_p95 = 0.0;
  double downtime_max = 0.0;
  /// Robustness accounting (sums of the per-worker counters, plus the
  /// engine-level suspicion/heal events). flow_drops counts failed outgoing
  /// batch flows; every one was either retried (batch_retries, with
  /// retry_backoff_seconds of cumulative backoff) or abandoned
  /// (batches_abandoned) and repaired by a forced re-announcement.
  uint64_t flow_drops = 0;
  uint64_t batch_retries = 0;
  double retry_backoff_seconds = 0.0;
  uint64_t batches_abandoned = 0;
  /// Peers suspected by the staleness-gate timeout (suspicion_timeout_s).
  uint64_t peers_suspected = 0;
  /// Directed send edges force-re-announced when a partition window healed.
  uint64_t partition_heal_reannouncements = 0;
  /// Corrupt checkpoints detected (and skipped) during crash recovery.
  uint64_t checkpoint_corruptions_detected = 0;
  /// Max last-iteration residual across workers that completed at least one
  /// iteration. When residual_known is false some worker never iterated
  /// (e.g. max_iterations_per_worker = 0), the global residual is unknown,
  /// and the run reports converged = false regardless of this value.
  double final_residual = 0.0;
  bool residual_known = true;
  /// Staleness-lag distribution observed at update-apply time: receiver
  /// clock minus sender clock per applied (non-empty) batch, aggregated
  /// across workers. Negative lag (sender ahead of receiver) clamps into the
  /// first bucket for the percentiles; staleness_min keeps the raw extreme.
  /// Always measured — the histogram update is a dozen-entry lower_bound per
  /// applied batch, noise next to decoding the batch.
  uint64_t staleness_samples = 0;
  double staleness_p50 = 0.0;
  double staleness_p95 = 0.0;
  double staleness_min = 0.0;
  double staleness_max = 0.0;
  std::vector<WorkerStats> workers;

  double seconds() const { return end_seconds - start_seconds; }
  bool operator==(const AsyncResult&) const = default;
};

class AsyncEngine {
 public:
  /// One asynchronous iteration of `partition`: read state, emit updates.
  /// Runs exactly once per iteration on the host; virtual compute time is
  /// charged from ctx ops.
  using ComputeFn = std::function<void(uint32_t partition, AsyncContext& ctx)>;
  /// Merges a delivered batch into `partition`'s state. `from_clock` is the
  /// sender's completed-iteration count when it emitted the batch and
  /// `from_epoch` its incarnation (bumped per restart) — replacement-
  /// semantics apps pass both into StateStore::Put so a restarted sender's
  /// (newer epoch, lower clock) records land. Decode with ForEachUpdate<U>
  /// for the application's update type. The engine never delivers batches
  /// from dead epochs or to a worker that is down.
  using ApplyFn = std::function<void(uint32_t partition, uint32_t from,
                                     uint32_t from_clock, uint32_t from_epoch,
                                     const UpdateBatch& batch)>;
  /// Partitions that `partition` emits updates to (static topology; queried
  /// once at Run). Defaults to all-to-all.
  using OutPeersFn = std::function<std::vector<uint32_t>(uint32_t partition)>;
  /// Serializes `partition`'s application state into a checkpoint. Must
  /// capture everything the compute/apply callbacks mutate for that
  /// partition; delta-filter caches may be skipped if RestoreFn forces a
  /// re-announce (see below).
  using SnapshotFn = std::function<void(uint32_t partition, serde::Writer& w)>;
  /// Rebuilds `partition`'s application state from a checkpoint written by
  /// SnapshotFn. Must also force the partition's outgoing delta filters to
  /// re-announce EVERY boundary key on the next iteration: receivers hold
  /// dead-epoch state this incarnation knows nothing about, and only a full
  /// re-announcement (epoch-aware StateStore::Put replaces it) closes every
  /// eps-sized delta-filter gap.
  using RestoreFn = std::function<void(uint32_t partition, serde::Reader& r)>;
  /// Notifies `partition` that `restarted_peer` (one of the partitions it
  /// sends to) lost its in-memory state and resumed from a checkpoint: the
  /// app must force its delta filter TOWARD that peer so the next iteration
  /// re-announces every boundary key (the peer's restored view of this
  /// partition is stale). The re-announced records carry the sender's
  /// current epoch and clock, so StateStore::Put accepts them over whatever
  /// the peer restored. The engine schedules the forced iteration itself.
  using PeerRestartFn =
      std::function<void(uint32_t partition, uint32_t restarted_peer)>;

  AsyncEngine(cluster::SimCluster& cluster, uint32_t num_partitions,
              AsyncConfig config);
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  void set_compute(ComputeFn fn) { compute_ = std::move(fn); }
  void set_apply(ApplyFn fn) { apply_ = std::move(fn); }
  void set_out_peers(OutPeersFn fn) { out_peers_ = std::move(fn); }
  void set_snapshot(SnapshotFn fn) { snapshot_ = std::move(fn); }
  void set_restore(RestoreFn fn) { restore_ = std::move(fn); }
  void set_on_peer_restart(PeerRestartFn fn) { on_peer_restart_ = std::move(fn); }

  /// Runs all workers to global termination (drains virtual time).
  AsyncResult Run();

  /// Round-robin partition placement over the cluster's nodes.
  net::NodeId NodeOfPartition(uint32_t p) const;

  const AsyncConfig& config() const { return config_; }

 private:
  struct Worker {
    net::NodeId node = 0;
    WorkerPhase phase = WorkerPhase::kIdle;
    uint32_t iterations = 0;  // completed iterations == this worker's clock
    bool pending_input = false;
    bool capped = false;
    /// One-shot cap bypass granted by RestoreWorker to senders-to-a-restarted
    /// peer: the recovery re-announcement must flow even from a worker that
    /// hit its iteration cap. Cleared when the iteration begins.
    bool force_iteration = false;
    /// Incarnation: bumped at every crash. Stamped into outgoing batches and
    /// into in-flight engine callbacks (slot grants, compute completions) so
    /// events belonging to a dead incarnation are recognized and dropped.
    uint32_t epoch = 0;
    ProgressLedger ledger;
    /// This worker's counters, accumulated in place. Run() fills the fields
    /// that mirror protocol state (iterations, restarts, the ledger's batch
    /// counts and residual) once, at the end.
    WorkerStats stats;
    /// Records delivered since the last BeginCompute; their merge cost is
    /// charged into the next iteration's virtual time.
    uint64_t unmerged_records = 0;
    /// Trace bookkeeping (plain stores, kept current even when tracing is
    /// off — cheaper than branching on every phase transition).
    double compute_started_at = 0.0;
    double blocked_since = 0.0;
    bool keepalive = false;  // the running iteration is clock-advance only
    /// Per-out-peer emission buffers, index-aligned with send_peers_[p].
    /// Cleared at BeginCompute, filled via AsyncContext, and moved into
    /// network payloads at FinishCompute, which reserves each moved batch's
    /// size in its slot for the next iteration.
    std::vector<UpdateBatch> out;
    /// Per-out-peer coalescing state (coalesce_batches only), index-aligned
    /// with send_peers_[p]: one flow in flight per edge at most, subsequent
    /// emissions merge into `pending` until the flow lands. Pending data
    /// dies with the process on a crash (it was never counted sent); the
    /// recovery re-announcement repairs it.
    struct PeerLink {
      bool in_flight = false;
      bool has_pending = false;
      uint32_t pending_clock = 0;
      UpdateBatch pending;
    };
    std::vector<PeerLink> links;
    /// Retries scheduled but not yet re-launched. A worker with a pending
    /// retry is never counted quiescent: the retry WILL put a batch back on
    /// the wire, so a token circuit observing balanced sent == received in
    /// the backoff gap must not prove termination.
    uint32_t pending_retries = 0;
    /// When the current down span began (valid while kDown).
    double down_since = 0.0;
  };

  void BuildTopology();
  bool KeepaliveDue(const Worker& w, uint32_t p) const;
  void TryStartIteration(uint32_t p);
  /// `grant_node` is the node whose slot the AcquireSlot grant holds — the
  /// worker's node at acquisition time. Relocation (node crash, speculation)
  /// can move the worker between grant and fire, so the early-out paths must
  /// release the slot on the node that granted it, not on workers_[p].node.
  void BeginCompute(uint32_t p, uint32_t epoch, net::NodeId grant_node);
  void FinishCompute(uint32_t p, uint32_t epoch, uint64_t ops,
                     uint64_t merge_ops, double residual);
  /// `flow_id` is the network flow that carried the batch (0 when tracing is
  /// off — it is only used to close the sender→receiver trace arrow).
  void OnBatchDelivered(uint32_t to, uint32_t from, uint32_t from_clock,
                        uint32_t from_epoch, const UpdateBatch& batch,
                        uint64_t flow_id);
  /// Routes one emission from `p` to send_peers_[p][peer_index]: merges into
  /// the edge's pending batch when coalescing and a flow is in flight,
  /// otherwise launches a flow (LaunchBatch).
  void EmitBatch(uint32_t p, size_t peer_index, UpdateBatch batch,
                 uint32_t clock);
  /// Opens the network flow for one batch and books the send accounting.
  void LaunchBatch(uint32_t p, size_t peer_index, UpdateBatch batch,
                   uint32_t clock);
  /// One wire attempt for a batch: books the per-attempt send accounting and
  /// opens the loss-aware network flow. attempt 0 is the original launch;
  /// retries re-enter here with the same shared payload.
  void OpenFlow(uint32_t p, size_t peer_index,
                std::shared_ptr<UpdateBatch> payload, uint32_t clock,
                uint32_t epoch, uint32_t attempt);
  /// Terminal failure of one wire attempt: self-acks the batch (Safra sums
  /// balance like a delivery), then either schedules a backoff retry or, at
  /// kMaxBatchRetries, abandons and forces a re-announcement toward the peer.
  void OnFlowFailed(uint32_t p, size_t peer_index,
                    std::shared_ptr<UpdateBatch> payload, uint32_t clock,
                    uint32_t epoch, uint32_t attempt);
  /// Sender-side flow-landed hook (coalescing): frees the edge and launches
  /// the pending batch, if any.
  void OnFlowDelivered(uint32_t p, size_t peer_index, uint32_t epoch);
  /// Forces sender `p` to re-announce everything receiver `q` gates on:
  /// notifies the app's delta filter (PeerRestartFn) and schedules a forced
  /// iteration of `p`, bypassing the cap once. Shared by peer-restart
  /// recovery, batch abandonment, and partition-heal re-announcement.
  void ForceSenderReannounce(uint32_t p, uint32_t q);
  /// A partition window just healed: every directed send edge it severed
  /// re-announces, so receivers reconverge to what they missed.
  void OnPartitionHealed(size_t window_index);

  // --- peer suspicion (bounded staleness only) -------------------------------
  /// The staleness gate, minus suspected peers: admits worker `p`'s next
  /// iteration when every NON-suspected peer clock has reached the SSP need.
  bool GateAdmits(uint32_t p, uint32_t next_iteration) const;
  /// Arms a one-shot suspicion timer when `p` enters kBlocked; if `p` is
  /// still in the very same blocked stretch when it fires, every peer
  /// holding the gate below its need becomes suspected and `p` retries.
  void ArmSuspicionTimer(uint32_t p);
  void SuspectBlockingPeers(uint32_t p);

  // --- observability ---------------------------------------------------------
  /// Wires the configured sinks into the cluster/network/checkpoint layers,
  /// names the trace rows, and registers the engine's metric probes. The
  /// destructor undoes all of it (the sinks outlive the engine, the engine
  /// must not leak callbacks into them).
  void InstallObservability();
  /// Closes the "gate-blocked" span of a worker leaving kBlocked.
  void EmitBlockedSpan(uint32_t p);
  /// Self-rescheduling virtual-time tick reading every metric probe; the
  /// chain stops once finished_ so RunUntilIdle still drains the queue.
  /// Probes only read engine state — the extra queue events renumber event
  /// sequence ids but preserve the relative firing order of all other
  /// events, so the simulation stays bit-identical with metrics on or off.
  void ScheduleMetricsSample();

  // --- checkpoint/replay -----------------------------------------------------
  /// Serializes worker `p`'s full state (engine record + app payload) into a
  /// WorkerSnapshot and hands it to the checkpoint store. free_write marks
  /// the iteration-0 snapshot (the staged input, already durable).
  void TakeCheckpoint(uint32_t p, bool free_write);
  /// Arms worker `p`'s next Poisson crash timer (no-op when injection is off).
  void ScheduleNextCrash(uint32_t p);
  /// Kills worker `p`: bumps its epoch, frees its slot if it held one, picks
  /// the restore target among checkpoints durable *now* (aborting in-flight
  /// writes — unless node_failure, where the node already marked them LOST),
  /// relocates the worker off a dead node onto the best surviving one, and
  /// schedules RestoreWorker after the restart delay plus the checkpoint
  /// read time.
  void CrashWorker(uint32_t p, bool node_failure);
  /// Rebuilds worker `p` from its checkpoint, resets peers' gating view of
  /// its rolled-back clock, refreshes its own gating view from current
  /// clocks, and forces every sender-to-`p` to re-announce.
  void RestoreWorker(uint32_t p, uint32_t epoch);
  /// The state-rebuild core of RestoreWorker, also used by a winning
  /// speculative backup: decodes `encoded`, installs it as `p`'s live state,
  /// repairs both gating directions, and force-re-announces every sender.
  void RestoreFromImage(uint32_t p, const serde::Buffer& encoded);

  // --- node-level failure domains --------------------------------------------
  bool NodeDownNow(net::NodeId node) const;
  /// Arms one node's (or rack's) Poisson crash chain (no-op at rate 0). The
  /// chain keeps drawing while the node is down — a crash landing on a dead
  /// machine is skipped, not deferred — so fault pressure is memoryless.
  void ScheduleNextNodeCrash(net::NodeId node);
  void ScheduleNextRackCrash(uint32_t rack);
  /// Whole-node failure: marks the node down for spec.node_repair_s, flags
  /// its in-flight checkpoint writes lost, and crashes every resident worker.
  void OnNodeCrash(net::NodeId node);
  /// Rack-correlated episode: OnNodeCrash for every up node in the rack.
  void OnRackCrash(uint32_t rack);
  /// Best host for a relaunch/backup: fastest up node, ties broken by fewer
  /// resident workers then lower id. `avoid` (the straggler's own node for
  /// backups; the dead node for relaunches, already excluded as down) never
  /// qualifies. nullopt when no node qualifies — relaunch then defers until
  /// a repair.
  std::optional<net::NodeId> PickRelaunchNode(net::NodeId avoid) const;
  /// Rehomes worker `p`, keeping the node_worker_count_ ledger exact.
  void MoveWorker(uint32_t p, net::NodeId target);

  // --- speculative backup workers --------------------------------------------
  void ScheduleSpeculationScan();
  /// Compares per-worker iteration rates since the previous scan and
  /// launches backups for stragglers (see AsyncConfig::speculation_factor).
  void SpeculationScan();
  void LaunchBackup(uint32_t p);
  /// Backup finished incubating: wins (fences the straggler, restores the
  /// copied image on the target node) unless the straggler progressed,
  /// crashed, or the target died in the meantime.
  void OnBackupReady(uint32_t p, uint32_t seq);
  /// Fences worker `p` out of the epoch: in-flight batches/events die as
  /// dead-epoch, the slot is released, volatile send state is cleared. The
  /// shared kill half of CrashWorker and a losing straggler's fencing.
  void FenceWorker(uint32_t p);

  // --- termination token -----------------------------------------------------
  std::string TokenMethod() const { return "amr.async." + config_.name + ".token"; }
  void RegisterTokenHandlers();
  void StartCircuit();
  void HandleTokenAt(uint32_t position, ProgressToken token);
  void CompleteCircuit(const ProgressToken& token);
  /// Can the configured fault model lose or strand a token? Gates the
  /// regeneration timer: when false the token is provably reliable, no timer
  /// is armed, and clean runs schedule zero extra events.
  bool TokenCanBeLost() const;
  /// One-shot regeneration timer armed per StartCircuit: if the circuit it
  /// watches (identified by its generation == circuit id) has neither
  /// completed nor been superseded when the timer fires, the initiator
  /// abandons that generation and starts a fresh circuit. Exponential
  /// per-consecutive-regeneration backoff guards against regenerating a
  /// slow-but-alive ring forever.
  void ArmTokenRegenTimer();
  void Finish(bool converged, double residual, bool residual_known);

  cluster::SimCluster& cluster_;
  uint32_t num_partitions_;
  AsyncConfig config_;
  ComputeFn compute_;
  ApplyFn apply_;
  OutPeersFn out_peers_;
  SnapshotFn snapshot_;
  RestoreFn restore_;
  PeerRestartFn on_peer_restart_;

  std::vector<Worker> workers_;
  /// Per partition: peers it sends to each iteration (symmetrized under a
  /// bounded staleness window so clocks propagate everywhere they gate).
  std::vector<std::vector<uint32_t>> send_peers_;
  /// Per partition p: the partitions q with p in send_peers_[q] — the
  /// workers that must re-announce when p restarts.
  std::vector<std::vector<uint32_t>> senders_to_;
  /// Per partition: observed peer clocks (gating view; bounded staleness only).
  std::vector<ClockTable> clocks_;
  /// Per partition, parallel to clocks_[p].peers(): 1 = suspected (non-empty
  /// only when suspicion is enabled under bounded staleness), plus the count
  /// of currently-suspected peers per partition for a cheap gate fast path.
  std::vector<std::vector<uint8_t>> suspected_;
  std::vector<uint32_t> suspected_count_;
  CheckpointStore checkpoints_;

  // --- node-level failure domains --------------------------------------------
  /// Per node: virtual time until which the node is down (0 = never crashed;
  /// empty when node/rack injection is off AND speculation is off — sized in
  /// Run only when some consumer exists, so default runs allocate nothing).
  std::vector<double> node_down_until_;
  /// Per node: resident workers (the ledger AuditNodeLedger checks against a
  /// scan). Sized with node_down_until_; maintained by MoveWorker.
  std::vector<uint32_t> node_worker_count_;

  // --- speculative backup workers --------------------------------------------
  /// At most one incubating backup per partition. `image` is a COPY of the
  /// straggler's snapshot at launch time (the store prunes/quarantines slots
  /// underneath long-lived pointers); `seq` invalidates superseded backups.
  struct Backup {
    bool active = false;
    uint32_t seq = 0;
    uint32_t launch_iters = 0;
    uint32_t launch_epoch = 0;
    net::NodeId target = 0;
    serde::Buffer image;
  };
  std::vector<Backup> backups_;
  /// Per worker: iteration clock at the previous speculation scan.
  std::vector<uint32_t> iters_at_scan_;
  double last_scan_time_ = 0.0;

  // --- survivable control plane ----------------------------------------------
  /// Regenerations since the last successfully completed circuit; drives the
  /// regen timer's exponential backoff and resets in CompleteCircuit.
  uint32_t consecutive_regens_ = 0;

  // --- recovery telemetry ----------------------------------------------------
  /// Downtime per completed crash→restore cycle: exponential buckets from
  /// 50 ms (sub-restart-delay recoveries) to ~27 min of virtual downtime.
  Histogram downtime_{Histogram::Exponential(0.05, 2.0, 16)};

  /// Per partition: staleness lag at apply time (see AsyncResult). Built at
  /// Run regardless of the obs config.
  std::vector<Histogram> staleness_;
  /// Probe handles registered with config_.tuning.obs.metrics, removed in ~AsyncEngine.
  std::vector<size_t> metric_probe_ids_;
  /// Min worker clock cached by the "clock.min" probe for the per-worker
  /// skew probes sampled after it (MetricsRegistry samples in registration
  /// order), avoiding an O(P) scan per skew probe.
  uint32_t cached_min_clock_ = 0;
  bool trace_installed_ = false;

  bool running_ = false;
  bool handlers_registered_ = false;
  bool finished_ = false;
  double circuit_start_time_ = 0.0;  // adaptive backoff: current circuit launch
  /// The run's counters, accumulated in place at their event sites and
  /// returned by Run(). Mid-run, token_circuits doubles as the live token
  /// generation and worker_restarts as the termination proof's restart
  /// count; the per-worker reductions and derived percentiles are filled at
  /// the end.
  AsyncResult result_;
#ifdef AMR_AUDIT
  /// Loss-aware batch flows opened but not yet terminally acked — the
  /// right-hand side of the Safra ledger-balance audit (AuditSafraBalance,
  /// checked at every token visit). Incremented per wire attempt in
  /// OpenFlow; decremented exactly once per terminal outcome (delivery ack
  /// in OnBatchDelivered, sender self-ack in OnFlowFailed).
  uint64_t audit_batch_flows_in_flight_ = 0;
#endif
};

}  // namespace asyncmr::async
