#include "async/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/logging.hpp"

namespace asyncmr::async {

namespace {

/// Sender-side retry for update batches whose flow FAILED (dropped by a lossy
/// link, killed/timed out by a partition). Attempt k waits
/// min(kRetryBackoffBaseS * 2^k, kRetryBackoffMaxS) * (1 + jitter), jitter
/// uniform in [0, kRetryJitterFrac). After kMaxBatchRetries total attempts
/// the batch is abandoned and the sender's delta filter is forced to
/// re-announce toward that peer instead (the same repair path a peer restart
/// uses), so no update is ever silently lost. Retries draw RNG and schedule
/// events only when a flow actually fails: with all link-fault knobs off, no
/// batch ever fails and runs stay bit-identical.
constexpr uint32_t kMaxBatchRetries = 16;
constexpr double kRetryBackoffBaseS = 0.05;
constexpr double kRetryBackoffMaxS = 10.0;
constexpr double kRetryJitterFrac = 0.2;

/// Upper clamp of the adaptive inter-circuit pause (see
/// EngineTuning::adaptive_token_backoff).
constexpr double kTokenBackoffMaxS = 30.0;

/// Workers lease map slots, like the map waves they replace.
constexpr cluster::SlotType kWorkerSlot = cluster::SlotType::kMap;

}  // namespace

AsyncEngine::AsyncEngine(cluster::SimCluster& cluster, uint32_t num_partitions,
                         AsyncConfig config)
    : cluster_(cluster),
      num_partitions_(num_partitions),
      config_(std::move(config)),
      checkpoints_(cluster.dfs()) {
  AMR_CHECK(num_partitions_ > 0) << "async engine needs at least one partition";
  workers_.resize(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    workers_[p].node = NodeOfPartition(p);
  }
}

AsyncEngine::~AsyncEngine() {
  // Detach everything InstallObservability leaked into longer-lived objects:
  // the trace pointers installed into the cluster/network would dangle once
  // the caller's sink dies, and the metric probes capture `this`.
  if (trace_installed_) {
    cluster_.network().set_trace(nullptr);
    cluster_.set_trace(nullptr);
  }
  if (obs::MetricsRegistry* metrics = config_.tuning.obs.metrics) {
    for (size_t id : metric_probe_ids_) metrics->RemoveProbe(id);
  }
  // The token handlers capture `this`; they must not outlive the engine in
  // the longer-lived cluster.
  if (!handlers_registered_) return;
  // Mirror RegisterTokenHandlers: handlers live on every node so the token
  // can chase relaunched workers anywhere.
  for (net::NodeId node = 0; node < cluster_.spec().num_nodes(); ++node) {
    cluster_.rpc().UnregisterHandler(node, TokenMethod());
  }
}

net::NodeId AsyncEngine::NodeOfPartition(uint32_t p) const {
  return p % cluster_.spec().num_nodes();
}

void AsyncEngine::BuildTopology() {
  send_peers_.assign(num_partitions_, {});
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    std::vector<uint32_t> out;
    if (out_peers_) {
      out = out_peers_(p);
    } else {
      out.reserve(num_partitions_ - 1);
      for (uint32_t q = 0; q < num_partitions_; ++q) {
        if (q != p) out.push_back(q);
      }
    }
    for (uint32_t q : out) {
      AMR_CHECK(q < num_partitions_ && q != p)
          << "bad out-peer " << q << " for partition " << p;
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    send_peers_[p] = std::move(out);
  }

  if (config_.staleness_bound != kUnboundedStaleness) {
    // Symmetrize: clocks must propagate along every edge they gate, so each
    // directed peer edge carries (possibly empty) batches both ways.
    std::vector<std::vector<uint32_t>> sym = send_peers_;
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      for (uint32_t q : send_peers_[p]) sym[q].push_back(p);
    }
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      std::sort(sym[p].begin(), sym[p].end());
      sym[p].erase(std::unique(sym[p].begin(), sym[p].end()), sym[p].end());
    }
    send_peers_ = std::move(sym);
    clocks_.clear();
    clocks_.reserve(num_partitions_);
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      clocks_.emplace_back(send_peers_[p]);
    }
    if (config_.tuning.suspicion_timeout_s > 0.0) {
      suspected_.assign(num_partitions_, {});
      suspected_count_.assign(num_partitions_, 0);
      for (uint32_t p = 0; p < num_partitions_; ++p) {
        suspected_[p].assign(clocks_[p].peers().size(), 0);
      }
    }
  }

  senders_to_.assign(num_partitions_, {});
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    for (uint32_t q : send_peers_[p]) senders_to_[q].push_back(p);
  }

  for (uint32_t p = 0; p < num_partitions_; ++p) {
    workers_[p].out.assign(send_peers_[p].size(), UpdateBatch{});
    if (config_.tuning.coalesce_batches) {
      workers_[p].links.assign(send_peers_[p].size(), Worker::PeerLink{});
    }
  }
}

bool AsyncEngine::KeepaliveDue(const Worker& w, uint32_t p) const {
  // An idle worker must take a clock-bearing iteration once a peer pulls
  // ahead of the staleness window, or lockstep peers would gate on it
  // forever.
  if (config_.staleness_bound == kUnboundedStaleness || w.capped) return false;
  if (clocks_[p].peers().empty()) return false;
  return static_cast<uint64_t>(clocks_[p].max_clock()) >
         static_cast<uint64_t>(w.iterations) + config_.staleness_bound;
}

void AsyncEngine::TryStartIteration(uint32_t p) {
  if (finished_) return;
  Worker& w = workers_[p];
  if (w.phase != WorkerPhase::kIdle && w.phase != WorkerPhase::kBlocked) return;
  const bool was_blocked = w.phase == WorkerPhase::kBlocked;
  // force_iteration (granted once per peer restart, see RestoreWorker) lets
  // a capped sender take the recovery re-announce iteration the protocol
  // depends on: the cap bounds convergence work, and without this the
  // restored peer would recompute against permanently stale input.
  if (w.iterations >= config_.max_iterations_per_worker && !w.force_iteration) {
    if (was_blocked) EmitBlockedSpan(p);
    w.capped = true;
    w.phase = WorkerPhase::kIdle;
    return;
  }
  if (config_.staleness_bound != kUnboundedStaleness &&
      !GateAdmits(p, w.iterations + 1)) {
    if (!was_blocked) {
      w.blocked_since = cluster_.now();
      ArmSuspicionTimer(p);
    }
    w.phase = WorkerPhase::kBlocked;
    return;
  }
  if (was_blocked) EmitBlockedSpan(p);
  w.phase = WorkerPhase::kWaitingSlot;
  const uint32_t epoch = w.epoch;
  const net::NodeId node = w.node;
  cluster_.AcquireSlot(node, kWorkerSlot,
                       [this, p, epoch, node] { BeginCompute(p, epoch, node); });
}

void AsyncEngine::BeginCompute(uint32_t p, uint32_t epoch,
                               net::NodeId grant_node) {
  Worker& w = workers_[p];
  if (finished_) {
    cluster_.ReleaseSlot(grant_node, kWorkerSlot);
    return;
  }
  if (w.epoch != epoch || w.phase != WorkerPhase::kWaitingSlot) {
    // The incarnation that queued this slot request died (and its
    // replacement — possibly relocated to another node — may already hold or
    // await another slot): the grant goes straight back to the node that
    // made it.
    cluster_.ReleaseSlot(grant_node, kWorkerSlot);
    return;
  }
  // Live path: relocation always bumps the epoch, so the guard above proves
  // the worker still sits on the node whose slot this grant holds.
  // An iteration forced only by the keepalive rule has no new input and an
  // already-converged state: it exists to advance the clock, so skip the
  // application compute and just carry the residual — charging a full block
  // solve would distort the async cost model.
  const bool keepalive_only =
      w.iterations > 0 && !w.pending_input &&
      w.ledger.last_residual < config_.convergence_threshold;

  w.phase = WorkerPhase::kComputing;
  w.pending_input = false;
  w.force_iteration = false;
  w.compute_started_at = cluster_.now();
  w.keepalive = keepalive_only;
  // Batches applied since the previous iteration are merged "now": one op
  // per record lands in this iteration's virtual time.
  const uint64_t merge_ops = w.unmerged_records;
  w.unmerged_records = 0;

  // The real work runs exactly once, now; its virtual duration is charged
  // from the same cost model as wave tasks. Emissions accumulate in the
  // worker's per-peer buffers, cleared here (FinishCompute sized them).
  for (UpdateBatch& b : w.out) b.clear();
  AsyncContext ctx;
  ctx.partition_ = p;
  ctx.iteration_ = w.iterations + 1;
  ctx.peers_ = &send_peers_[p];
  ctx.slots_ = &w.out;
  if (keepalive_only) {
    ctx.residual_ = w.ledger.last_residual;
  } else {
    compute_(p, ctx);
  }

  const cluster::ClusterSpec& spec = cluster_.spec();
  Rng& rng = cluster_.rng();
  double slowdown = 1.0 + spec.speed_jitter * (2.0 * rng.NextDouble() - 1.0);
  if (rng.NextBool(spec.straggler_prob)) {
    slowdown =
        rng.NextDouble(spec.straggler_slowdown_min, spec.straggler_slowdown_max);
  }
  // Per-node speed spread, background-load episodes, and gray-failure
  // episodes (the heterogeneity and sick-machine knobs) scale compute
  // exactly like they do for wave tasks. All are x1.0 identities when off.
  const double load =
      cluster_.NodeLoadFactor(w.node) * cluster_.NodeGrayFactor(w.node);

  const uint64_t ops = ctx.ops_ + merge_ops;
  const double compute_s = static_cast<double>(ops) * spec.per_op_seconds *
                           slowdown * load / spec.nodes[w.node].speed_factor;

  if (config_.tuning.obs.trace != nullptr && load > 1.0) {
    // A background-load episode is stretching this iteration: future-date the
    // span over the whole slowed compute so the straggling shows in traces.
    config_.tuning.obs.trace->Span("straggling", "fault", obs::kPidWorkers, p,
                                   cluster_.now(), cluster_.now() + compute_s,
                                   {"load", load});
  }

  const double residual = ctx.residual_;
  cluster_.queue().ScheduleAfter(
      compute_s, [this, p, epoch, ops, merge_ops, residual] {
        FinishCompute(p, epoch, ops, merge_ops, residual);
      });
}

void AsyncEngine::FinishCompute(uint32_t p, uint32_t epoch, uint64_t ops,
                                uint64_t merge_ops, double residual) {
  Worker& w = workers_[p];
  if (w.epoch != epoch) {
    // The computing incarnation crashed mid-iteration: its results die with
    // it (nothing was sent yet) and CrashWorker already freed the slot.
    return;
  }
  cluster_.ReleaseSlot(w.node, kWorkerSlot);
  ++w.iterations;
  w.stats.ops += ops;
  w.stats.merge_ops += merge_ops;
  w.ledger.last_residual = residual;
  w.ledger.dirty = true;
  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Span(w.keepalive ? "keepalive" : "compute",
                                   "worker", obs::kPidWorkers, p,
                                   w.compute_started_at, cluster_.now(),
                                   {"iter", static_cast<double>(w.iterations)},
                                   {"ops", static_cast<double>(ops)});
  }

  // Batches sit in w.out, index-aligned with the sorted send_peers_[p] (so
  // send order — and thus the DES trace — is deterministic, ascending by
  // peer as before). Each non-empty batch is moved, not copied, into its
  // network payload (or merged into the edge's pending batch when
  // coalescing); its slot then reserves the moved batch's size, so the next
  // iteration's emissions append without regrowing from empty.
  const uint32_t clock = w.iterations;
  const std::vector<uint32_t>& peers = send_peers_[p];
  // Bounded window: every peer edge carries the new clock each iteration,
  // with an empty batch when there is no payload.
  const bool send_empty = config_.staleness_bound != kUnboundedStaleness;
  for (size_t i = 0; i < peers.size(); ++i) {
    UpdateBatch& out = w.out[i];
    if (out.empty() && !send_empty) continue;
    const size_t bytes = out.payload.size();
    EmitBatch(p, i, std::move(out), clock);
    out.payload.reserve(bytes);
  }

  if (snapshot_ && config_.tuning.checkpoint_interval > 0 &&
      w.iterations % config_.tuning.checkpoint_interval == 0) {
    TakeCheckpoint(p, /*free_write=*/false);
  }

  w.phase = WorkerPhase::kIdle;
  if (residual >= config_.convergence_threshold || w.pending_input ||
      KeepaliveDue(w, p)) {
    TryStartIteration(p);
  }
}

void AsyncEngine::OnBatchDelivered(uint32_t to, uint32_t from,
                                   uint32_t from_clock, uint32_t from_epoch,
                                   const UpdateBatch& batch, uint64_t flow_id) {
  Worker& w = workers_[to];
  if (config_.tuning.obs.trace != nullptr && flow_id != 0) {
    // Arrow head at the receiver, bound to the FlowBegin LaunchBatch emitted
    // (dropped deliveries still get their arrow — the network moved the
    // bytes either way).
    config_.tuning.obs.trace->FlowEnd("batch", "net", obs::kPidWorkers, to,
                                      cluster_.now(), flow_id);
  }
  // Every delivery counts as received, applied or not: the sender counted it
  // at send time, and the Safra proof needs the global sums to balance. The
  // counters belong to the node runtime, not the (crashable) worker process.
  ++w.ledger.batches_received;
  AMR_IF_AUDIT(--audit_batch_flows_in_flight_;);
  w.ledger.dirty = true;
  if (w.phase == WorkerPhase::kDown) return;  // process down: delivery lost
  if (from_epoch != workers_[from].epoch) {
    // In flight when its sender crashed. The replacement's trajectory
    // supersedes this batch's content — and its delta filters do not know
    // the batch was ever sent, so applying it could never be repaired.
    return;
  }
  if (!batch.empty()) {
    // Staleness lag at apply time: how far the receiver's clock had advanced
    // past the sender's when it emitted. Negative = sender ahead.
    staleness_[to].Add(static_cast<double>(w.iterations) -
                       static_cast<double>(from_clock));
    apply_(to, from, from_clock, from_epoch, batch);
    w.pending_input = true;
    w.unmerged_records += batch.records;
  }
  if (config_.staleness_bound != kUnboundedStaleness) {
    clocks_[to].Observe(from, from_clock);
    if (!suspected_.empty() && suspected_count_[to] > 0) {
      // Any delivery from a suspected peer clears the suspicion: the peer is
      // reachable again, so the gate resumes waiting on its real clock.
      const size_t idx = clocks_[to].IndexOf(from);
      if (suspected_[to][idx] != 0) {
        suspected_[to][idx] = 0;
        --suspected_count_[to];
        if (config_.tuning.obs.trace != nullptr) {
          config_.tuning.obs.trace->Instant(
              "peer-healed", "fault", obs::kPidWorkers, to, cluster_.now(),
              {"peer", static_cast<double>(from)});
        }
      }
    }
  }
  if (finished_) return;
  if (w.phase == WorkerPhase::kBlocked ||
      (w.phase == WorkerPhase::kIdle && (w.pending_input || KeepaliveDue(w, to)))) {
    TryStartIteration(to);
  }
}

void AsyncEngine::EmitBatch(uint32_t p, size_t peer_index, UpdateBatch batch,
                            uint32_t clock) {
  Worker& w = workers_[p];
  if (config_.tuning.coalesce_batches) {
    Worker::PeerLink& link = w.links[peer_index];
    if (link.in_flight) {
      // A flow to this peer is still in the pipe: append to the pending
      // batch instead of opening another flow. Records keep emission order,
      // so a receiver applying the merged batch sees the same sequence of
      // Put()s; the merged batch carries the newest clock (Observe is a max,
      // and equal-version Puts are accepted, so skipping intermediate clock
      // stamps loses nothing).
      link.pending.payload.Append(batch.payload.data(), batch.payload.size());
      link.pending.records += batch.records;
      link.pending_clock = clock;
      link.has_pending = true;
      ++w.stats.coalesced_batches;
      w.stats.coalesced_bytes_saved += kUpdateEnvelopeBytes;
      return;
    }
    link.in_flight = true;
  }
  LaunchBatch(p, peer_index, std::move(batch), clock);
}

void AsyncEngine::LaunchBatch(uint32_t p, size_t peer_index, UpdateBatch batch,
                              uint32_t clock) {
  Worker& w = workers_[p];
  w.stats.records_sent += batch.records;
  auto payload = std::make_shared<UpdateBatch>(std::move(batch));
  OpenFlow(p, peer_index, std::move(payload), clock, w.epoch, /*attempt=*/0);
}

void AsyncEngine::OpenFlow(uint32_t p, size_t peer_index,
                           std::shared_ptr<UpdateBatch> payload, uint32_t clock,
                           uint32_t epoch, uint32_t attempt) {
  Worker& w = workers_[p];
  const uint32_t q = send_peers_[p][peer_index];
  // Every wire attempt counts as sent — and every terminal outcome counts as
  // received (the receiver acks a delivery, the SENDER self-acks a failure in
  // OnFlowFailed) — so the Safra sums always balance, retries included.
  ++w.ledger.batches_sent;
  AMR_IF_AUDIT(++audit_batch_flows_in_flight_;);
  const uint64_t bytes = kUpdateEnvelopeBytes + payload->payload.size();
  result_.bytes_sent += bytes;
  uint64_t fid = 0;
  if (config_.tuning.obs.trace != nullptr) {
    // Arrow tail at the sender, bound to the id Transfer is about to assign
    // (and that the network's own flow span carries).
    fid = cluster_.network().next_flow_id();
    config_.tuning.obs.trace->FlowBegin(
        "batch", "net", obs::kPidWorkers, p, cluster_.now(), fid,
        {"records", static_cast<double>(payload->records)},
        {"clock", static_cast<double>(clock)});
  }
  cluster_.network().Transfer(
      w.node, workers_[q].node, bytes,
      [this, q, p, peer_index, clock, epoch, payload, fid] {
        OnBatchDelivered(q, p, clock, epoch, *payload, fid);
        OnFlowDelivered(p, peer_index, epoch);
      },
      [this, p, peer_index, payload, clock, epoch, attempt] {
        OnFlowFailed(p, peer_index, payload, clock, epoch, attempt);
      });
}

void AsyncEngine::OnFlowFailed(uint32_t p, size_t peer_index,
                               std::shared_ptr<UpdateBatch> payload,
                               uint32_t clock, uint32_t epoch,
                               uint32_t attempt) {
  Worker& w = workers_[p];
  // Sender self-ack: this attempt reached a terminal outcome, so it balances
  // its own sent count — mirroring the dead-epoch accounting, where the
  // node runtime acks batches the process never applied.
  ++w.ledger.batches_received;
  AMR_IF_AUDIT(--audit_batch_flows_in_flight_;);
  ++w.stats.flow_drops;
  w.ledger.dirty = true;
  if (finished_) return;
  if (w.epoch != epoch) return;  // dead incarnation; its restore re-announces
  const uint32_t q = send_peers_[p][peer_index];
  if (attempt + 1 < kMaxBatchRetries) {
    // Exponential backoff with jitter; the jitter draw happens only on an
    // actual retry, so fault-free runs never touch the RNG stream.
    double backoff = std::min(
        kRetryBackoffBaseS * std::pow(2.0, static_cast<double>(attempt)),
        kRetryBackoffMaxS);
    backoff *= 1.0 + kRetryJitterFrac * cluster_.rng().NextDouble();
    ++w.stats.batch_retries;
    w.stats.retry_backoff_seconds += backoff;
    ++w.pending_retries;
    if (config_.tuning.obs.trace != nullptr) {
      config_.tuning.obs.trace->Instant(
          "batch-retry", "fault", obs::kPidWorkers, p, cluster_.now(),
          {"peer", static_cast<double>(q)},
          {"attempt", static_cast<double>(attempt + 1)});
    }
    cluster_.queue().ScheduleAfter(
        backoff, [this, p, peer_index, payload, clock, epoch, attempt] {
          // The decrement is unconditional — exactly one per increment — so
          // the pending count stays exact across crashes and termination.
          --workers_[p].pending_retries;
          if (finished_) return;
          if (workers_[p].epoch != epoch) return;
          OpenFlow(p, peer_index, payload, clock, epoch, attempt + 1);
        });
    return;
  }
  // Out of retries: drop the payload and repair by force-re-announcing
  // everything q gates on — the same path a peer restart uses, so the lost
  // records are superseded rather than resent.
  ++w.stats.batches_abandoned;
  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Instant("batch-abandoned", "fault",
                                      obs::kPidWorkers, p, cluster_.now(),
                                      {"peer", static_cast<double>(q)});
  }
  OnFlowDelivered(p, peer_index, epoch);  // free the coalescing edge
  ForceSenderReannounce(p, q);
}

void AsyncEngine::ForceSenderReannounce(uint32_t p, uint32_t q) {
  Worker& w = workers_[p];
  if (on_peer_restart_) on_peer_restart_(p, q);
  if (w.phase == WorkerPhase::kDown) return;
  w.pending_input = true;
  w.ledger.dirty = true;
  if (w.capped) {
    // Un-cap for the forced re-announce iteration (also keeps the worker
    // non-quiescent until it flows); TryStartIteration re-caps afterwards.
    w.capped = false;
    w.force_iteration = true;
  }
  if (w.phase == WorkerPhase::kIdle || w.phase == WorkerPhase::kBlocked) {
    TryStartIteration(p);
  }
}

void AsyncEngine::OnPartitionHealed(size_t window_index) {
  if (finished_) return;
  const net::Topology& topo = cluster_.network().topology();
  const net::PartitionWindow& window = topo.config().partitions[window_index];
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    for (uint32_t q : send_peers_[p]) {
      if (!topo.WindowSevers(window, workers_[p].node, workers_[q].node)) {
        continue;
      }
      ++result_.partition_heal_reannouncements;
      if (config_.tuning.obs.trace != nullptr) {
        config_.tuning.obs.trace->Instant("heal-reannounce", "fault",
                                          obs::kPidWorkers, p, cluster_.now(),
                                          {"peer", static_cast<double>(q)});
      }
      ForceSenderReannounce(p, q);
    }
  }
}

// --- peer suspicion ----------------------------------------------------------

bool AsyncEngine::GateAdmits(uint32_t p, uint32_t next_iteration) const {
  const ClockTable& table = clocks_[p];
  if (suspected_.empty() || suspected_count_[p] == 0) {
    return table.AdmitsIteration(next_iteration, config_.staleness_bound);
  }
  const int64_t need = static_cast<int64_t>(next_iteration) - 1 -
                       static_cast<int64_t>(config_.staleness_bound);
  if (need <= 0) return true;
  const std::vector<uint32_t>& clocks = table.clock_values();
  const std::vector<uint8_t>& suspected = suspected_[p];
  for (size_t i = 0; i < clocks.size(); ++i) {
    if (suspected[i] != 0) continue;  // unreachable peer: don't wait on it
    if (static_cast<int64_t>(clocks[i]) < need) return false;
  }
  return true;
}

void AsyncEngine::ArmSuspicionTimer(uint32_t p) {
  if (config_.tuning.suspicion_timeout_s <= 0.0 ||
      config_.staleness_bound == kUnboundedStaleness) {
    return;
  }
  const uint32_t epoch = workers_[p].epoch;
  const double since = workers_[p].blocked_since;
  cluster_.queue().ScheduleAfter(
      config_.tuning.suspicion_timeout_s, [this, p, epoch, since] {
        if (finished_) return;
        const Worker& w = workers_[p];
        // Only the very blocked stretch this timer was armed for counts; any
        // unblock (or crash) in between makes the timer stale.
        if (w.epoch != epoch || w.phase != WorkerPhase::kBlocked ||
            w.blocked_since != since) {
          return;
        }
        SuspectBlockingPeers(p);
      });
}

void AsyncEngine::SuspectBlockingPeers(uint32_t p) {
  Worker& w = workers_[p];
  const int64_t need = static_cast<int64_t>(w.iterations) + 1 - 1 -
                       static_cast<int64_t>(config_.staleness_bound);
  if (need <= 0) return;
  const ClockTable& table = clocks_[p];
  const std::vector<uint32_t>& clocks = table.clock_values();
  bool any = false;
  for (size_t i = 0; i < clocks.size(); ++i) {
    if (suspected_[p][i] != 0) continue;
    if (static_cast<int64_t>(clocks[i]) >= need) continue;
    suspected_[p][i] = 1;
    ++suspected_count_[p];
    ++result_.peers_suspected;
    any = true;
    if (config_.tuning.obs.trace != nullptr) {
      config_.tuning.obs.trace->Instant(
          "peer-suspected", "fault", obs::kPidWorkers, p, cluster_.now(),
          {"peer", static_cast<double>(table.peers()[i])},
          {"clock", static_cast<double>(clocks[i])});
    }
  }
  if (any) TryStartIteration(p);
}

void AsyncEngine::OnFlowDelivered(uint32_t p, size_t peer_index,
                                  uint32_t epoch) {
  if (!config_.tuning.coalesce_batches) return;
  Worker& w = workers_[p];
  if (w.epoch != epoch) return;  // sender restarted; CrashWorker reset links
  Worker::PeerLink& link = w.links[peer_index];
  link.in_flight = false;
  if (!link.has_pending || finished_) return;
  // The pending batch was never counted sent, so the Safra sums stayed
  // balanced around it; launching it here (same event as the delivery that
  // balanced the previous flow) re-opens the sent > received window before
  // any token hop can observe the gap.
  UpdateBatch batch = std::move(link.pending);
  link.pending.clear();
  link.has_pending = false;
  link.in_flight = true;
  LaunchBatch(p, peer_index, std::move(batch), link.pending_clock);
}

// --- checkpoint/replay -------------------------------------------------------

void AsyncEngine::TakeCheckpoint(uint32_t p, bool free_write) {
  Worker& w = workers_[p];
  WorkerSnapshot snap;
  snap.partition = p;
  snap.epoch = w.epoch;
  snap.iterations = w.iterations;
  snap.unmerged_records = w.unmerged_records;
  snap.last_residual = w.ledger.last_residual;
  if (config_.staleness_bound != kUnboundedStaleness) {
    snap.peer_clocks = clocks_[p].clock_values();
  }
  serde::Buffer app_state;
  serde::Writer app_writer(app_state);
  snapshot_(p, app_writer);
  snap.app_state.assign(reinterpret_cast<const char*>(app_state.data()),
                        app_state.size());

  serde::Buffer encoded = serde::Encode(snap);
  // Round-trip the image before the store records its CRC (and before the
  // corruption knob can touch it): see AuditCheckpointImage.
  AMR_IF_AUDIT(AuditCheckpointImage(encoded);)
  if (!free_write) {
    ++w.stats.checkpoints;
    w.stats.checkpoint_bytes += encoded.size();
    if (config_.tuning.obs.trace != nullptr) {
      config_.tuning.obs.trace->Instant(
          "checkpoint", "ckpt", obs::kPidWorkers, p, cluster_.now(),
          {"iter", static_cast<double>(w.iterations)},
          {"bytes", static_cast<double>(encoded.size())});
    }
  }
  checkpoints_.Write(p, std::move(encoded), cluster_.now(), free_write);
}

void AsyncEngine::ScheduleNextCrash(uint32_t p) {
  const double delay = cluster_.NextWorkerCrashDelay();
  if (!std::isfinite(delay)) return;
  cluster_.queue().ScheduleAfter(delay, [this, p] {
    if (finished_) return;  // breaks the timer chain so the queue drains
    // A crash timer firing while the worker is already down hits the dead
    // process: nothing further to kill.
    if (workers_[p].phase != WorkerPhase::kDown) {
      CrashWorker(p, /*node_failure=*/false);
    }
    ScheduleNextCrash(p);
  });
}

void AsyncEngine::FenceWorker(uint32_t p) {
  Worker& w = workers_[p];
  ++w.epoch;  // in-flight batches/grants/completions of the old epoch die
  ++result_.worker_restarts;
  if (w.phase == WorkerPhase::kComputing) {
    // Process death frees the slot immediately; the scheduled FinishCompute
    // sees the epoch bump and drops out. A kWaitingSlot grant returns its
    // slot when it fires (BeginCompute's epoch guard).
    cluster_.ReleaseSlot(w.node, kWorkerSlot);
  }
  w.phase = WorkerPhase::kDown;
  w.pending_input = false;
  w.force_iteration = false;
  w.unmerged_records = 0;
  w.ledger.dirty = true;  // taints any in-progress token circuit
  // Coalescing state dies with the process: pending batches were never
  // counted sent (the recovery re-announcement supersedes them), and the
  // in-flight flags belong to dead-epoch flows whose landing callbacks will
  // see the epoch bump and leave the restored links alone.
  for (Worker::PeerLink& link : w.links) {
    link.in_flight = false;
    link.has_pending = false;
    link.pending.clear();
  }
}

void AsyncEngine::CrashWorker(uint32_t p, bool node_failure) {
  Worker& w = workers_[p];
  const WorkerPhase phase_at_crash = w.phase;
  FenceWorker(p);

  const double now = cluster_.now();
  w.down_since = now;
  if (!node_failure) {
    // The dying incarnation's own write pipeline is aborted cleanly. In the
    // node-failure case OnNodeCrash already marked those writes LOST (the
    // durability, not just the incarnation, died with the machine).
    checkpoints_.AbortPending(p, now);
  }
  if (NodeDownNow(w.node)) {
    // The host machine is gone: relaunch on the best surviving node. When no
    // node survives, stay put — RestoreWorker defers until the first repair.
    const std::optional<net::NodeId> target = PickRelaunchNode(w.node);
    if (target.has_value()) MoveWorker(p, *target);
  }
  // Verified pick: a corrupt newest snapshot is detected (and quarantined)
  // here, falling back to the previous retained one — the pinned free
  // initial snapshot is never corrupted, so a restore target always exists.
  const serde::Buffer* snapshot = checkpoints_.LatestDurableVerified(p, now);
  AMR_CHECK(snapshot != nullptr)
      << "worker " << p << " crashed with no durable checkpoint (the engine "
      << "writes a free initial snapshot at Run)";
  const double restart_delay = cluster_.spec().worker_restart_delay_s;
  const double delay = restart_delay + checkpoints_.ReadSeconds(*snapshot);
  result_.recovery_seconds += delay;
  if (config_.tuning.obs.trace != nullptr) {
    // The outage is future-dated at crash time: its length is already
    // deterministic here, and this way a run that terminates mid-recovery
    // still shows the outage that was in progress.
    if (phase_at_crash == WorkerPhase::kBlocked) EmitBlockedSpan(p);
    config_.tuning.obs.trace->Instant("crash", "fault", obs::kPidWorkers, p,
                                      now,
                                      {"epoch", static_cast<double>(w.epoch)});
    config_.tuning.obs.trace->Span("down", "fault", obs::kPidWorkers, p, now,
                                   now + restart_delay);
    config_.tuning.obs.trace->Span("recovering", "fault", obs::kPidWorkers, p,
                                   now + restart_delay, now + delay);
  }
  AMR_LOG_DEBUG << "async worker " << p << " crashed at t=" << now
                << "; restoring in " << delay << " s (epoch " << w.epoch << ")";
  const uint32_t epoch = w.epoch;
  cluster_.queue().ScheduleAfter(delay,
                                 [this, p, epoch] { RestoreWorker(p, epoch); });
}

void AsyncEngine::RestoreWorker(uint32_t p, uint32_t epoch) {
  if (finished_) return;
  Worker& w = workers_[p];
  if (w.epoch != epoch || w.phase != WorkerPhase::kDown) return;

  if (NodeDownNow(w.node)) {
    // The host died (again) while the worker was mid-recovery. Relaunch on a
    // survivor if one exists; with the whole cluster down, defer the restore
    // to the earliest repair (only genuinely-future repair times qualify —
    // up nodes hold stale past values).
    const std::optional<net::NodeId> target = PickRelaunchNode(w.node);
    if (!target.has_value()) {
      double wake = std::numeric_limits<double>::infinity();
      for (double until : node_down_until_) {
        if (until > cluster_.now()) wake = std::min(wake, until);
      }
      AMR_CHECK(std::isfinite(wake));  // w.node itself is down
      cluster_.queue().Schedule(wake,
                                [this, p, epoch] { RestoreWorker(p, epoch); });
      return;
    }
    MoveWorker(p, *target);
  }

  // The crash froze the restore target (the in-flight writes were aborted or
  // marked lost, CrashWorker's verified pick quarantined anything corrupt,
  // and nothing new was written while down).
  const serde::Buffer* encoded =
      checkpoints_.LatestDurableVerified(p, cluster_.now());
  AMR_CHECK(encoded != nullptr);

  const double downtime = cluster_.now() - w.down_since;
  w.stats.downtime_seconds += downtime;
  downtime_.Add(downtime);
  result_.downtime_seconds += downtime;
  ++result_.recoveries;

  RestoreFromImage(p, *encoded);
}

void AsyncEngine::RestoreFromImage(uint32_t p, const serde::Buffer& encoded) {
  Worker& w = workers_[p];
  auto snap = serde::Decode<WorkerSnapshot>(encoded);
  AMR_CHECK(snap.ok()) << "corrupt worker checkpoint: "
                       << snap.status().ToString();
  AMR_CHECK_EQ(snap.value().partition, p);

  serde::Reader app_reader(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(snap.value().app_state.data()),
      snap.value().app_state.size()));
  restore_(p, app_reader);

  w.iterations = snap.value().iterations;
  w.unmerged_records = snap.value().unmerged_records;
  w.ledger.last_residual = snap.value().last_residual;
  w.ledger.dirty = true;
  w.capped = false;  // recomputed against the rolled-back clock
  // Force a full recompute whatever the snapshot held: input delivered after
  // the checkpoint was lost with the process, and the re-announcements below
  // arrive with arbitrary delay.
  w.pending_input = true;
  w.phase = WorkerPhase::kIdle;

  if (config_.staleness_bound != kUnboundedStaleness) {
    ClockTable& table = clocks_[p];
    table.RestoreClockValues(snap.value().peer_clocks);
    // Master-assisted refresh: the snapshot's view of peers may lag far
    // enough that the SSP gate blocks on peers that converged and went
    // silent (they only re-announce once — below — which advances their
    // clock by a single tick), or may be INFLATED relative to a peer that
    // itself rolled back since the snapshot was taken. The control plane
    // knows every worker's true clock, so set (not monotone-observe) each
    // entry; a real implementation would fetch these from the master on
    // restart. A peer that is currently down still reads as its pre-crash
    // clock here — its own restore resets everyone's view of it below.
    for (uint32_t q : table.peers()) table.Reset(q, workers_[q].iterations);
  }

  // Peers: their gating view of p must reflect the rollback, their app-level
  // view of p's dead epochs must be dropped/re-announced, and each sender to
  // p takes one forced iteration so the re-announcement actually flows even
  // if it had converged and parked — or capped out (force_iteration bypasses
  // the cap once; a capped worker that stays silent would leave p computing
  // against permanently stale input). A sender that is itself down is
  // skipped: its own restore re-announces to every peer anyway.
  for (uint32_t q : senders_to_[p]) {
    if (config_.staleness_bound != kUnboundedStaleness) {
      clocks_[q].Reset(p, w.iterations);
    }
    ForceSenderReannounce(q, p);
  }

  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Instant(
        "restored", "fault", obs::kPidWorkers, p, cluster_.now(),
        {"iter", static_cast<double>(w.iterations)},
        {"epoch", static_cast<double>(w.epoch)});
  }
  AMR_LOG_DEBUG << "async worker " << p << " restored at t=" << cluster_.now()
                << " to iteration " << w.iterations << " (epoch " << w.epoch
                << ")";
  TryStartIteration(p);
}

// --- node-level failure domains ----------------------------------------------

bool AsyncEngine::NodeDownNow(net::NodeId node) const {
  return !node_down_until_.empty() && cluster_.now() < node_down_until_[node];
}

void AsyncEngine::ScheduleNextNodeCrash(net::NodeId node) {
  const double delay = cluster_.NextNodeCrashDelay();
  if (!std::isfinite(delay)) return;
  cluster_.queue().ScheduleAfter(delay, [this, node] {
    if (finished_) return;  // breaks the timer chain so the queue drains
    // A crash landing on an already-down node hits a dead machine.
    if (!NodeDownNow(node)) OnNodeCrash(node);
    ScheduleNextNodeCrash(node);
  });
}

void AsyncEngine::ScheduleNextRackCrash(uint32_t rack) {
  const double delay = cluster_.NextRackCrashDelay();
  if (!std::isfinite(delay)) return;
  cluster_.queue().ScheduleAfter(delay, [this, rack] {
    if (finished_) return;
    OnRackCrash(rack);
    ScheduleNextRackCrash(rack);
  });
}

void AsyncEngine::OnNodeCrash(net::NodeId node) {
  const double now = cluster_.now();
  node_down_until_[node] = now + cluster_.spec().node_repair_s;
  ++result_.node_crashes;
  AMR_IF_AUDIT({
    // Node-ledger contract: the cached resident count this crash is about to
    // act on must match a fresh placement scan (see AuditNodeLedger).
    uint32_t resident = 0;
    for (const Worker& aw : workers_) resident += aw.node == node ? 1 : 0;
    AuditNodeLedger(resident, node_worker_count_[node]);
  });
  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Instant(
        "node-crash", "fault", obs::kPidControl, node, now,
        {"repair_s", cluster_.spec().node_repair_s});
  }
  AMR_LOG_DEBUG << "node " << node << " crashed at t=" << now << " (repair "
                << cluster_.spec().node_repair_s << " s)";
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    Worker& w = workers_[p];
    if (w.node != node || w.phase == WorkerPhase::kDown) continue;
    // The machine's write-behind DFS pipeline dies first: this worker's
    // in-flight checkpoint writes are LOST (never restorable), not merely
    // aborted — recovery falls back through the keep-last-two chain to the
    // newest image that actually flushed.
    checkpoints_.MarkPendingLost(p, now);
    CrashWorker(p, /*node_failure=*/true);
  }
}

void AsyncEngine::OnRackCrash(uint32_t rack) {
  ++result_.rack_crash_episodes;
  const uint32_t npr = cluster_.network().topology().config().nodes_per_rack;
  const uint32_t n = cluster_.spec().num_nodes();
  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Instant("rack-crash", "fault", obs::kPidControl,
                                      rack, cluster_.now());
  }
  const uint32_t first = rack * npr;
  for (net::NodeId node = first; node < std::min(first + npr, n); ++node) {
    if (!NodeDownNow(node)) OnNodeCrash(node);
  }
}

std::optional<net::NodeId> AsyncEngine::PickRelaunchNode(
    net::NodeId avoid) const {
  std::optional<net::NodeId> best;
  const std::vector<cluster::NodeSpec>& nodes = cluster_.spec().nodes;
  for (net::NodeId n = 0; n < cluster_.spec().num_nodes(); ++n) {
    if (n == avoid || NodeDownNow(n)) continue;
    if (!best.has_value()) {
      best = n;
      continue;
    }
    // Strictly-better replacement: ties keep the lowest node id.
    if (nodes[n].speed_factor > nodes[*best].speed_factor ||
        (nodes[n].speed_factor == nodes[*best].speed_factor &&
         node_worker_count_[n] < node_worker_count_[*best])) {
      best = n;
    }
  }
  return best;
}

void AsyncEngine::MoveWorker(uint32_t p, net::NodeId target) {
  Worker& w = workers_[p];
  if (w.node == target) return;
  AMR_CHECK(!node_worker_count_.empty());
  --node_worker_count_[w.node];
  ++node_worker_count_[target];
  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Instant("relaunch", "fault", obs::kPidWorkers, p,
                                      cluster_.now(),
                                      {"from", static_cast<double>(w.node)},
                                      {"to", static_cast<double>(target)});
  }
  AMR_LOG_DEBUG << "worker " << p << " relaunching on node " << target
                << " (was " << w.node << ")";
  w.node = target;
}

// --- speculative backup workers ----------------------------------------------

void AsyncEngine::ScheduleSpeculationScan() {
  cluster_.queue().ScheduleAfter(
      config_.tuning.speculation_check_interval_s, [this] {
        if (finished_) return;  // breaks the timer chain so the queue drains
        SpeculationScan();
        ScheduleSpeculationScan();
      });
}

void AsyncEngine::SpeculationScan() {
  const double now = cluster_.now();
  const double dt = now - last_scan_time_;
  if (dt <= 0.0) return;
  last_scan_time_ = now;

  // Iteration rates observed since the previous scan. Restores roll clocks
  // back, so the delta is computed in doubles and clamped at zero — an
  // unsigned wrap would read as an absurdly fast worker.
  std::vector<double> rates(num_partitions_, 0.0);
  std::vector<double> live_rates;
  live_rates.reserve(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const Worker& w = workers_[p];
    rates[p] = std::max(0.0, static_cast<double>(w.iterations) -
                                 static_cast<double>(iters_at_scan_[p])) /
               dt;
    iters_at_scan_[p] = w.iterations;
    if (w.phase != WorkerPhase::kDown && !w.capped && rates[p] > 0.0) {
      live_rates.push_back(rates[p]);
    }
  }
  // The median yardstick needs a quorum of progressing workers, like the
  // wave engine's median-completed-duration rule needs completed tasks.
  if (live_rates.size() < 3) return;
  std::nth_element(live_rates.begin(), live_rates.begin() + live_rates.size() / 2,
                   live_rates.end());
  const double median = live_rates[live_rates.size() / 2];
  if (median <= 0.0) return;

  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const Worker& w = workers_[p];
    if (backups_[p].active) continue;  // one incubating backup per partition
    // Not a straggler candidate: down (crash recovery owns it), gate-blocked
    // (a replica would block on the same peers), capped, or converged and
    // parked (zero rate by design).
    if (w.phase == WorkerPhase::kDown || w.phase == WorkerPhase::kBlocked ||
        w.capped) {
      continue;
    }
    if (w.phase == WorkerPhase::kIdle && !w.pending_input &&
        w.ledger.last_residual < config_.convergence_threshold) {
      continue;
    }
    if (rates[p] * config_.tuning.speculation_factor >= median) continue;
    LaunchBackup(p);
  }
}

void AsyncEngine::LaunchBackup(uint32_t p) {
  const serde::Buffer* snapshot =
      checkpoints_.LatestDurableVerified(p, cluster_.now());
  if (snapshot == nullptr) return;  // nothing durable to seed a replica from
  const std::optional<net::NodeId> target = PickRelaunchNode(workers_[p].node);
  if (!target.has_value()) return;  // no other live node to host it
  Backup& b = backups_[p];
  b.active = true;
  ++b.seq;
  b.launch_iters = workers_[p].iterations;
  b.launch_epoch = workers_[p].epoch;
  b.target = *target;
  // COPY the image: the store prunes and quarantines slots underneath any
  // long-lived pointer, and the straggler may checkpoint again meanwhile.
  b.image = *snapshot;
  ++result_.speculative_launches;
  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Instant(
        "backup-launch", "spec", obs::kPidWorkers, p, cluster_.now(),
        {"target", static_cast<double>(*target)},
        {"iter", static_cast<double>(b.launch_iters)});
  }
  // Incubation = replacement spawn + checkpoint read, the same recovery cost
  // a crash pays. First to progress wins; the check happens at readiness.
  const double incubate = cluster_.spec().worker_restart_delay_s +
                          checkpoints_.ReadSeconds(b.image);
  const uint32_t seq = b.seq;
  cluster_.queue().ScheduleAfter(incubate,
                                 [this, p, seq] { OnBackupReady(p, seq); });
}

void AsyncEngine::OnBackupReady(uint32_t p, uint32_t seq) {
  if (finished_) return;
  Backup& b = backups_[p];
  if (!b.active || b.seq != seq) return;
  b.active = false;
  Worker& w = workers_[p];
  // First to progress wins. The straggler wins by advancing its clock or by
  // having gone through a crash/restore (new epoch — the recovery already
  // re-announced, and this image may predate it); the backup also loses if
  // its target node has since died.
  const bool straggler_progressed =
      w.epoch != b.launch_epoch || w.iterations > b.launch_iters;
  if (straggler_progressed || w.phase == WorkerPhase::kDown ||
      NodeDownNow(b.target)) {
    ++result_.speculative_losses;
    if (config_.tuning.obs.trace != nullptr) {
      config_.tuning.obs.trace->Instant("backup-lost", "spec", obs::kPidWorkers,
                                        p, cluster_.now());
    }
    b.image = serde::Buffer{};
    return;
  }
  // The backup wins: fence the straggler out of the epoch (its in-flight
  // batches and events die as dead-epoch, exactly like a crash) and bring
  // the replica up in its place — no downtime, the replacement is live now.
  ++result_.speculative_wins;
  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Instant(
        "backup-win", "spec", obs::kPidWorkers, p, cluster_.now(),
        {"target", static_cast<double>(b.target)});
  }
  AMR_LOG_DEBUG << "speculative backup for worker " << p << " wins at t="
                << cluster_.now() << "; fencing straggler on node " << w.node;
  FenceWorker(p);
  MoveWorker(p, b.target);
  RestoreFromImage(p, b.image);
  b.image = serde::Buffer{};
}

// --- observability -----------------------------------------------------------

namespace {

/// Staleness-lag buckets: 0 (covers lockstep and every sender-ahead lag),
/// then powers of two out to 1024 iterations, overflow beyond. Shared by the
/// per-worker recorders and the merged run-level summary (Merge requires
/// identical bounds).
Histogram MakeStalenessHistogram() {
  return Histogram(
      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0});
}

}  // namespace

void AsyncEngine::EmitBlockedSpan(uint32_t p) {
  if (config_.tuning.obs.trace == nullptr) return;
  const Worker& w = workers_[p];
  config_.tuning.obs.trace->Span("gate-blocked", "worker", obs::kPidWorkers, p,
                                 w.blocked_since, cluster_.now(),
                                 {"iter", static_cast<double>(w.iterations)});
}

void AsyncEngine::InstallObservability() {
  obs::TraceSink* trace = config_.tuning.obs.trace;
  if (trace != nullptr) {
    cluster_.network().set_trace(trace);
    cluster_.set_trace(trace);
    checkpoints_.set_trace(trace);
    trace_installed_ = true;
    trace->SetProcessName(obs::kPidWorkers, "workers (" + config_.name + ")");
    trace->SetProcessName(obs::kPidNetwork, "network");
    trace->SetProcessName(obs::kPidControl, "control");
    trace->SetThreadName(obs::kPidControl, 0, "termination token");
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      trace->SetThreadName(obs::kPidWorkers, p, "worker " + std::to_string(p));
    }
  }

  obs::MetricsRegistry* m = config_.tuning.obs.metrics;
  if (m == nullptr) return;
  auto probe = [&](std::string name, std::function<double()> fn) {
    metric_probe_ids_.push_back(m->AddProbe(std::move(name), std::move(fn)));
  };
  auto count_phase = [this](WorkerPhase phase) {
    uint32_t n = 0;
    for (const Worker& w : workers_) n += w.phase == phase ? 1 : 0;
    return static_cast<double>(n);
  };
  // Registered first: caches the minimum for the per-worker skew probes
  // below (probes are sampled in registration order).
  probe("clock.min", [this] {
    uint32_t lo = workers_[0].iterations;
    for (const Worker& w : workers_) lo = std::min(lo, w.iterations);
    cached_min_clock_ = lo;
    return static_cast<double>(lo);
  });
  probe("clock.max", [this] {
    uint32_t hi = 0;
    for (const Worker& w : workers_) hi = std::max(hi, w.iterations);
    return static_cast<double>(hi);
  });
  probe("workers.computing",
        [count_phase] { return count_phase(WorkerPhase::kComputing); });
  probe("workers.blocked",
        [count_phase] { return count_phase(WorkerPhase::kBlocked); });
  probe("workers.waiting_slot",
        [count_phase] { return count_phase(WorkerPhase::kWaitingSlot); });
  probe("workers.down",
        [count_phase] { return count_phase(WorkerPhase::kDown); });
  probe("pending.records", [this] {
    uint64_t n = 0;
    for (const Worker& w : workers_) n += w.unmerged_records;
    return static_cast<double>(n);
  });
  probe("pending.workers", [this] {
    uint32_t n = 0;
    for (const Worker& w : workers_) n += w.pending_input ? 1 : 0;
    return static_cast<double>(n);
  });
  probe("net.active_flows",
        [this] { return static_cast<double>(cluster_.network().active_flows()); });
  probe("restarts",
        [this] { return static_cast<double>(result_.worker_restarts); });
  // Robustness counters: flat sums over workers, in the same worker order
  // Run() reduces them in — cheap relative to the phase scans above.
  auto worker_sum = [this](auto WorkerStats::*field) {
    double n = 0.0;
    for (const Worker& w : workers_) n += static_cast<double>(w.stats.*field);
    return n;
  };
  probe("flow_drops",
        [worker_sum] { return worker_sum(&WorkerStats::flow_drops); });
  probe("batch_retries",
        [worker_sum] { return worker_sum(&WorkerStats::batch_retries); });
  probe("retry_backoff_seconds", [worker_sum] {
    return worker_sum(&WorkerStats::retry_backoff_seconds);
  });
  probe("peers_suspected",
        [this] { return static_cast<double>(result_.peers_suspected); });
  probe("partition_heal_reannouncements", [this] {
    return static_cast<double>(result_.partition_heal_reannouncements);
  });
  // Recovery gauge family (node-level failure-domain telemetry).
  probe("recovery.recoveries",
        [this] { return static_cast<double>(result_.recoveries); });
  probe("recovery.downtime_seconds",
        [this] { return result_.downtime_seconds; });
  probe("recovery.node_crashes",
        [this] { return static_cast<double>(result_.node_crashes); });
  probe("recovery.token_regenerations",
        [this] { return static_cast<double>(result_.token_regenerations); });
  probe("recovery.speculative_wins",
        [this] { return static_cast<double>(result_.speculative_wins); });
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    probe("worker.skew.p" + std::to_string(p), [this, p] {
      return static_cast<double>(workers_[p].iterations) -
             static_cast<double>(cached_min_clock_);
    });
  }
}

void AsyncEngine::ScheduleMetricsSample() {
  const double interval = std::max(config_.tuning.obs.metrics_interval_s, 1e-6);
  cluster_.queue().ScheduleAfter(interval, [this] {
    if (finished_) return;  // breaks the tick chain so the queue drains
    config_.tuning.obs.metrics->Sample(cluster_.now());
    ScheduleMetricsSample();
  });
}

// --- termination token -------------------------------------------------------

void AsyncEngine::RegisterTokenHandlers() {
  handlers_registered_ = true;
  // Register on EVERY node, not just the initial placement footprint: a
  // relaunched worker can land on any surviving node, and the token must be
  // able to follow it there. Registration is bookkeeping, not an event, so
  // the extra handlers cost nothing in virtual time.
  for (net::NodeId node = 0; node < cluster_.spec().num_nodes(); ++node) {
    cluster_.rpc().RegisterHandler(
        node, TokenMethod(),
        [this, node](net::NodeId /*from*/,
                     const serde::Buffer& request) -> Result<serde::Buffer> {
          auto token = serde::Decode<ProgressToken>(request);
          AMR_CHECK(token.ok()) << token.status().ToString();
          if (NodeDownNow(node)) {
            // The token arrived at a dead machine: it dies with it. The
            // initiator's regeneration timer is what recovers from this.
            ++result_.tokens_lost;
            return serde::Buffer{};
          }
          HandleTokenAt(token.value().position, token.value());
          return serde::Buffer{};  // ack
        });
  }
}

bool AsyncEngine::TokenCanBeLost() const {
  const net::TopologyConfig& topo = cluster_.network().topology().config();
  const cluster::ClusterSpec& spec = cluster_.spec();
  return topo.flow_loss_prob > 0.0 || !topo.partitions.empty() ||
         spec.node_crash_rate > 0.0 || spec.rack_crash_rate > 0.0;
}

void AsyncEngine::ArmTokenRegenTimer() {
  // Only armed when some fault mode can actually eat a token — in clean runs
  // the timer never exists, so the event timeline is untouched and stored
  // trajectories stay bit-identical.
  if (!TokenCanBeLost()) return;
  const uint32_t gen = result_.token_circuits;
  // Exponential backoff on consecutive regenerations: if the timeout is set
  // shorter than an honest slow circuit, doubling it guarantees the timer
  // eventually outwaits the circuit instead of livelocking the control plane.
  const double timeout =
      config_.tuning.token_regen_timeout_s *
      static_cast<double>(1u << std::min(consecutive_regens_, 6u));
  cluster_.queue().ScheduleAfter(timeout, [this, gen] {
    if (finished_) return;
    // The generation moved on (circuit completed, or an earlier timer already
    // regenerated): this timer is stale, let it die.
    if (result_.token_circuits != gen) return;
    ++result_.token_regenerations;
    ++consecutive_regens_;
    // Abandon the stranded generation: bumping the live counter makes every
    // handler drop the old token if it ever limps home.
    ++result_.token_circuits;
    if (config_.tuning.obs.trace != nullptr) {
      config_.tuning.obs.trace->Instant(
          "token-regen", "token", obs::kPidControl, 0, cluster_.now(),
          {"gen", static_cast<double>(result_.token_circuits)});
    }
    AMR_LOG_DEBUG << "token generation " << gen << " presumed lost at t="
                  << cluster_.now() << "; regenerating as "
                  << result_.token_circuits;
    StartCircuit();
  });
}

void AsyncEngine::StartCircuit() {
  circuit_start_time_ = cluster_.now();
  ProgressToken token;
  token.circuit = result_.token_circuits;
  token.position = 0;
  // The on_failed callback opts the token's request leg into the network's
  // loss/partition fault model: control traffic traverses the same faulty
  // fabric as data. A swallowed token is recovered by the regeneration timer;
  // counting it here just makes the loss observable.
  cluster_.rpc().Call(workers_[num_partitions_ - 1].node, workers_[0].node,
                      TokenMethod(), serde::Encode(token),
                      [](Result<serde::Buffer>) {},
                      [this] { ++result_.tokens_lost; });
  ArmTokenRegenTimer();
}

void AsyncEngine::HandleTokenAt(uint32_t position, ProgressToken token) {
  if (finished_) return;
  if (token.circuit != result_.token_circuits) {
    // A regenerated circuit has superseded this token's generation (its
    // circuit id doubles as one): a stranded token that finally escaped a
    // partition must not finish a circuit the initiator already wrote off —
    // two live tokens could otherwise double-complete.
    ++result_.stale_tokens_dropped;
    return;
  }
  AMR_IF_AUDIT({
    // Safra ledger-balance contract at every token visit: summed over all
    // workers, sent - received must equal the batch flows currently on the
    // wire (see AuditSafraBalance). O(P), so audit builds only.
    uint64_t audit_sent = 0;
    uint64_t audit_received = 0;
    for (const Worker& aw : workers_) {
      audit_sent += aw.ledger.batches_sent;
      audit_received += aw.ledger.batches_received;
    }
    AuditSafraBalance(audit_sent, audit_received, audit_batch_flows_in_flight_);
  });
  Worker& w = workers_[position];
  if (w.iterations == 0) {
    // Never completed an iteration: its ledger residual is the +inf "not yet
    // measured" sentinel, which must not leak into the aggregate. The global
    // residual is unknown for this circuit instead.
    token.residual_known = false;
  } else {
    token.residual = std::max(token.residual, w.ledger.last_residual);
  }
  token.sent += w.ledger.batches_sent;
  token.received += w.ledger.batches_received;
  token.restarts += w.epoch;
  if (w.ledger.dirty) token.tainted = true;
  w.ledger.dirty = false;
  // A pending retry WILL re-open a flow: during its backoff gap the ledgers
  // balance (the failed attempt self-acked), so without this the circuit
  // could prove termination with an undelivered batch still owed.
  if (!QuiescentForTermination(w.phase, w.capped, w.pending_input) ||
      w.pending_retries > 0) {
    token.all_quiescent = false;
  }

  if (position + 1 < num_partitions_) {
    token.position = position + 1;
    cluster_.rpc().Call(w.node, workers_[token.position].node, TokenMethod(),
                        serde::Encode(token), [](Result<serde::Buffer>) {},
                        [this] { ++result_.tokens_lost; });
  } else {
    CompleteCircuit(token);
  }
}

void AsyncEngine::CompleteCircuit(const ProgressToken& token) {
  AMR_IF_AUDIT({
    // Generation contract: only the live generation can complete a circuit —
    // the HandleTokenAt drop must have filtered everything stale.
    AuditTokenGeneration(token.circuit, result_.token_circuits);
  });
  // An honest circuit came home: reset the regeneration backoff.
  consecutive_regens_ = 0;
  ++result_.token_circuits;
  // A token that observed fewer restarts than have happened visited some
  // worker before it crashed: that quiescence observation is stale, so the
  // circuit is tainted and re-circulates (restart-count monotonicity makes
  // this exact — epochs only grow, and a crash after the visit is precisely
  // a sum mismatch at completion).
  const bool proved =
      token.ProvesTermination() && token.restarts == result_.worker_restarts;
  if (config_.tuning.obs.trace != nullptr) {
    config_.tuning.obs.trace->Span(
        "token-circuit", "token", obs::kPidControl, 0, circuit_start_time_,
        cluster_.now(),
        {"circuit", static_cast<double>(result_.token_circuits - 1)},
        {"proved", proved ? 1.0 : 0.0});
  }
  if (proved) {
    // An unknown residual (some worker never iterated) can terminate — the
    // workers are provably done — but never *converged*.
    Finish(token.residual_known &&
               token.residual < config_.convergence_threshold,
           token.residual, token.residual_known);
    return;
  }
  double backoff = config_.tuning.token_backoff_s;
  if (config_.tuning.adaptive_token_backoff) {
    // Pause for as long as the failed circuit itself took (P RPC hops plus
    // worker-visit latencies), so token traffic stays a bounded fraction of
    // the control plane at any partition count.
    backoff = std::clamp(
        cluster_.now() - circuit_start_time_, config_.tuning.token_backoff_s,
        std::max(config_.tuning.token_backoff_s, kTokenBackoffMaxS));
  }
  cluster_.queue().ScheduleAfter(backoff, [this] {
    if (!finished_) StartCircuit();
  });
}

void AsyncEngine::Finish(bool converged, double residual, bool residual_known) {
  AMR_LOG_DEBUG << "async engine '" << config_.name << "' terminated at t="
                << cluster_.now() << " converged=" << converged
                << " residual=" << residual
                << " residual_known=" << residual_known;
  finished_ = true;
  result_.converged = converged;
  result_.final_residual = residual;
  result_.residual_known = residual_known;
  result_.end_seconds = cluster_.now();
}

AsyncResult AsyncEngine::Run() {
  AMR_CHECK(compute_) << "async engine needs a compute callback";
  AMR_CHECK(apply_) << "async engine needs an apply callback";
  AMR_CHECK(!running_) << "async engine is single-use";
  running_ = true;
  const bool crashes = cluster_.spec().worker_crash_rate > 0.0;
  const bool node_faults = cluster_.spec().node_crash_rate > 0.0 ||
                           cluster_.spec().rack_crash_rate > 0.0;
  const bool speculation = config_.tuning.speculation_factor > 0.0;
  AMR_CHECK(!(crashes || node_faults || speculation) ||
            (snapshot_ && restore_))
      << "crash injection and speculation require snapshot and restore "
      << "callbacks (checkpoint/replay is the async engine's only recovery "
      << "path, and backups incubate from checkpoints)";

  BuildTopology();
  if (node_faults || speculation) {
    // The relaunch/speculation placement ledger. Sized lazily so plain runs
    // never pay for it (and NodeDownNow stays a trivial `empty()` no).
    node_down_until_.assign(cluster_.spec().num_nodes(), 0.0);
    node_worker_count_.assign(cluster_.spec().num_nodes(), 0);
    for (const Worker& w : workers_) ++node_worker_count_[w.node];
  }
  RegisterTokenHandlers();
  InstallObservability();
  staleness_.clear();
  staleness_.reserve(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    staleness_.push_back(MakeStalenessHistogram());
  }
  checkpoints_.ResetPartitions(num_partitions_);
  if (config_.tuning.checkpoint_corruption_prob > 0.0) {
    checkpoints_.set_corruption(config_.tuning.checkpoint_corruption_prob,
                                cluster_.spec().seed);
  }
  if (snapshot_) {
    // The free iteration-0 snapshot: the staged input, durable before the
    // run starts, so a worker crashing before its first checkpoint interval
    // still has a restore target.
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      TakeCheckpoint(p, /*free_write=*/true);
    }
  }
  result_.start_seconds = cluster_.now();
  if (config_.tuning.obs.metrics != nullptr) {
    config_.tuning.obs.metrics->Sample(cluster_.now());  // t = start row
    ScheduleMetricsSample();
  }
  for (uint32_t p = 0; p < num_partitions_; ++p) TryStartIteration(p);
  if (crashes) {
    for (uint32_t p = 0; p < num_partitions_; ++p) ScheduleNextCrash(p);
  }
  if (node_faults) {
    for (net::NodeId n = 0; n < cluster_.spec().num_nodes(); ++n) {
      ScheduleNextNodeCrash(n);
    }
    const uint32_t racks = cluster_.network().topology().num_racks();
    for (uint32_t r = 0; r < racks; ++r) ScheduleNextRackCrash(r);
  }
  if (speculation) {
    backups_.assign(num_partitions_, {});
    iters_at_scan_.assign(num_partitions_, 0);
    last_scan_time_ = cluster_.now();
    ScheduleSpeculationScan();
  }
  // Partition-heal boundary re-announcements: at each window's end every
  // send edge the window severed re-announces, riding the force-resend path.
  const auto& windows = cluster_.network().topology().config().partitions;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].end_s <= cluster_.now()) continue;  // healed before Run
    cluster_.queue().Schedule(windows[i].end_s,
                              [this, i] { OnPartitionHealed(i); });
  }
  StartCircuit();
  cluster_.RunUntilIdle();
  AMR_CHECK(finished_)
      << "async engine drained the event queue without terminating";
  if (config_.tuning.obs.metrics != nullptr) {
    config_.tuning.obs.metrics->Sample(cluster_.now());  // end-of-run row
  }

  // Event sites accumulated result_ and each worker's stats in place; what
  // is left are the fields the checkpoint store owns, the derived
  // distributions, and the per-worker reductions.
  const CheckpointStore::Stats& ckpt = checkpoints_.stats();
  result_.checkpoints_written = static_cast<uint32_t>(ckpt.checkpoints_written);
  result_.checkpoint_bytes = ckpt.bytes_written;
  result_.checkpoint_write_seconds = ckpt.write_seconds;
  result_.checkpoint_corruptions_detected = ckpt.corruptions_detected;
  result_.checkpoint_writes_lost = ckpt.writes_lost;
  if (result_.recoveries > 0) {
    result_.mttr_seconds =
        result_.downtime_seconds / static_cast<double>(result_.recoveries);
    result_.downtime_p50 = downtime_.Percentile(50);
    result_.downtime_p95 = downtime_.Percentile(95);
    result_.downtime_max = downtime_.max_seen();
  }
  Histogram staleness = MakeStalenessHistogram();
  for (const Histogram& h : staleness_) staleness.Merge(h);
  result_.staleness_samples = staleness.total();
  result_.staleness_p50 = staleness.Percentile(50);
  result_.staleness_p95 = staleness.Percentile(95);
  result_.staleness_min = staleness.min_seen();
  result_.staleness_max = staleness.max_seen();
  if (config_.tuning.obs.metrics != nullptr) {
    config_.tuning.obs.metrics
        ->AddHistogram("staleness_lag", MakeStalenessHistogram())
        ->Merge(staleness);
  }
  result_.workers.reserve(num_partitions_);
  for (Worker& w : workers_) {
    WorkerStats& stats = w.stats;
    stats.iterations = w.iterations;
    stats.batches_sent = w.ledger.batches_sent;
    stats.batches_received = w.ledger.batches_received;
    stats.restarts = w.epoch;
    stats.residual_known = w.iterations > 0;
    stats.last_residual = stats.residual_known ? w.ledger.last_residual : 0.0;
    result_.total_iterations += stats.iterations;
    result_.total_ops += stats.ops;
    result_.total_merge_ops += stats.merge_ops;
    result_.update_batches += stats.batches_sent;
    result_.update_records += stats.records_sent;
    result_.coalesced_batches += stats.coalesced_batches;
    result_.coalesced_bytes_saved += stats.coalesced_bytes_saved;
    result_.flow_drops += stats.flow_drops;
    result_.batch_retries += stats.batch_retries;
    result_.retry_backoff_seconds += stats.retry_backoff_seconds;
    result_.batches_abandoned += stats.batches_abandoned;
    result_.workers.push_back(stats);
  }
  return std::move(result_);
}

}  // namespace asyncmr::async
