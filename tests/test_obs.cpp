// Observability tests: TraceSink / MetricsRegistry units, the JSON linter,
// and the engine-integration guarantees the subsystem is built around —
// traced runs emit the span inventory the ISSUE promises (compute,
// gate-blocked, down/recovering, flow arrows, token circuits), the trace is
// bit-deterministic at a fixed seed, and attaching observability does NOT
// perturb the simulation (same results, same event count, same virtual
// clock as an unobserved run).
#include <gtest/gtest.h>

#include <cmath>

#include "apps/pagerank.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"
#include "obs/json_lint.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace asyncmr {
namespace {

// --- TraceSink ---------------------------------------------------------------

TEST(TraceSink, RecordsSpansInstantsAndFlows) {
  obs::TraceSink sink;
  sink.Span("compute", "worker", obs::kPidWorkers, 3, 1.0, 2.5, {"iter", 7});
  sink.Instant("crash", "fault", obs::kPidWorkers, 3, 2.5);
  sink.FlowBegin("batch", "net", obs::kPidWorkers, 3, 2.5, 42);
  sink.FlowEnd("batch", "net", obs::kPidWorkers, 1, 3.0, 42);
  ASSERT_EQ(sink.num_events(), 4u);
  EXPECT_EQ(sink.CountNamed("compute"), 1u);
  EXPECT_EQ(sink.CountNamed("batch"), 2u);
  const auto& span = sink.events()[0];
  EXPECT_EQ(span.phase, obs::TraceSink::Phase::kSpan);
  EXPECT_DOUBLE_EQ(span.ts_s, 1.0);
  EXPECT_DOUBLE_EQ(span.dur_s, 1.5);
  EXPECT_STREQ(span.args[0].name, "iter");
  EXPECT_DOUBLE_EQ(span.args[0].value, 7.0);
}

TEST(TraceSink, JsonIsValidAndCarriesTraceEventFields) {
  obs::TraceSink sink;
  sink.SetProcessName(obs::kPidWorkers, "workers");
  sink.SetThreadName(obs::kPidWorkers, 0, "w0");
  sink.Span("compute", "worker", obs::kPidWorkers, 0, 0.25, 1.0, {"ops", 12});
  sink.FlowBegin("batch", "net", obs::kPidWorkers, 0, 1.0, 9);
  sink.FlowEnd("batch", "net", obs::kPidWorkers, 0, 1.5, 9);
  const std::string json = sink.ToJson();
  EXPECT_TRUE(obs::ValidateJson(json).ok()) << json;
  // Spot checks: complete-span phase, microsecond timestamps (0.25 s ->
  // 250000 us), flow binding ids, and the binding-point marker on the head.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":250000.000"), std::string::npos);
  EXPECT_NE(json.find("\"id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

TEST(TraceSink, SerializationIsDeterministic) {
  auto record = [](obs::TraceSink& sink) {
    sink.SetProcessName(obs::kPidNetwork, "network");
    for (int i = 0; i < 50; ++i) {
      sink.Span("flow", "net", obs::kPidNetwork, i % 4, 0.1 * i, 0.1 * i + 0.05,
                {"bytes", 1000.0 * i});
    }
  };
  obs::TraceSink a, b;
  record(a);
  record(b);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

// --- ValidateJson ------------------------------------------------------------

TEST(ValidateJson, AcceptsWellFormedDocuments) {
  EXPECT_TRUE(obs::ValidateJson("{}").ok());
  EXPECT_TRUE(obs::ValidateJson("[1, 2.5, -3e-2, \"x\\n\", true, null]").ok());
  EXPECT_TRUE(obs::ValidateJson("{\"a\":{\"b\":[{}]}}").ok());
}

TEST(ValidateJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::ValidateJson("").ok());
  EXPECT_FALSE(obs::ValidateJson("{\"a\":1,}").ok());
  EXPECT_FALSE(obs::ValidateJson("[1 2]").ok());
  EXPECT_FALSE(obs::ValidateJson("{\"a\":01}").ok());
  EXPECT_FALSE(obs::ValidateJson("\"unterminated").ok());
  EXPECT_FALSE(obs::ValidateJson("{} trailing").ok());
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, ProbesSampleInRegistrationOrder) {
  obs::MetricsRegistry registry;
  double base = 0.0;
  // The second probe reads state the first one wrote during the same Sample
  // call — the registration-order contract the engine's cached-min-clock
  // skew probes rely on.
  registry.AddProbe("base", [&] { return base += 1.0; });
  registry.AddProbe("derived", [&] { return base * 10.0; });
  registry.Sample(0.0);
  registry.Sample(1.0);
  EXPECT_EQ(registry.num_samples(), 2u);
  EXPECT_DOUBLE_EQ(registry.LastValue("base"), 2.0);
  EXPECT_DOUBLE_EQ(registry.LastValue("derived"), 20.0);
}

TEST(MetricsRegistry, LateAndRemovedProbesKeepSeriesAligned) {
  obs::MetricsRegistry registry;
  registry.Sample(0.0);  // before any probe exists
  const size_t id = registry.AddProbe("g", [] { return 5.0; });
  registry.Sample(1.0);
  registry.RemoveProbe(id);
  registry.Sample(2.0);  // detached: repeats the last value
  EXPECT_EQ(registry.num_samples(), 3u);
  EXPECT_DOUBLE_EQ(registry.LastValue("g"), 5.0);
  EXPECT_TRUE(obs::ValidateJson(registry.ToJson()).ok());
}

TEST(MetricsRegistry, HistogramsSerializeWithSummary) {
  obs::MetricsRegistry registry;
  Histogram* h = registry.AddHistogram("lag", Histogram({1.0, 4.0, 16.0}));
  h->Add(0.5);
  h->Add(3.0);
  h->Add(100.0);
  EXPECT_EQ(registry.AddHistogram("lag", Histogram({9.0})), h);  // get-or-create
  ASSERT_NE(registry.FindHistogram("lag"), nullptr);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(obs::ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"lag\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// --- engine integration ------------------------------------------------------

cluster::ClusterSpec QuietSpec() {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  return spec;
}

graph::Digraph TestGraph(graph::VertexId n = 2000, uint64_t seed = 7) {
  graph::PrefAttachConfig config;
  config.num_vertices = n;
  config.num_in = 3;
  config.num_out = 3;
  config.locality_window = std::max<graph::VertexId>(4, n / 150);
  config.max_edge_age = 4 * config.locality_window;
  config.seed = seed;
  return graph::PreferentialAttachment(config);
}

struct ObservedRun {
  apps::PageRankResult result;
  async::AsyncResult stats;
  uint64_t fired = 0;
};

ObservedRun RunObserved(const cluster::ClusterSpec& spec, uint32_t staleness,
                        obs::TraceSink* trace, obs::MetricsRegistry* metrics,
                        double interval_s = 0.05) {
  const auto g = TestGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  apps::PageRankConfig config;
  config.async_tuning.checkpoint_interval = 4;
  config.async_tuning.obs.trace = trace;
  config.async_tuning.obs.metrics = metrics;
  config.async_tuning.obs.metrics_interval_s = interval_s;
  cluster::SimCluster sim(spec);
  ObservedRun run;
  run.result = apps::AsyncPageRank(sim, g, part, config, staleness, &run.stats);
  run.fired = sim.queue().fired_count();
  return run;
}

TEST(TracedAsyncRun, EmitsTheSpanInventory) {
  obs::TraceSink trace;
  const auto run = RunObserved(QuietSpec(), async::kUnboundedStaleness, &trace,
                               nullptr);
  EXPECT_TRUE(run.result.converged);
  // Worker iteration spans, one per completed iteration.
  EXPECT_EQ(trace.CountNamed("compute"), run.stats.total_iterations);
  // Fluid-model transfer spans on the network rows.
  EXPECT_GT(trace.CountNamed("flow"), 0u);
  // Sender->receiver arrows come in matched s/f pairs bound by flow id
  // (nothing is dropped in a crash-free run).
  size_t begins = 0, ends = 0;
  for (const auto& e : trace.events()) {
    if (e.phase == obs::TraceSink::Phase::kFlowBegin) ++begins;
    if (e.phase == obs::TraceSink::Phase::kFlowEnd) ++ends;
  }
  EXPECT_EQ(begins, run.stats.update_batches);
  EXPECT_EQ(begins, ends);
  // Termination-token circuits on the control row.
  EXPECT_EQ(trace.CountNamed("token-circuit"), run.stats.token_circuits);
  // Write-behind checkpoints: one instant at the worker + one write span.
  EXPECT_EQ(trace.CountNamed("checkpoint"), run.stats.checkpoints_written);
  EXPECT_EQ(trace.CountNamed("ckpt-write"), run.stats.checkpoints_written);
  // The whole log parses.
  EXPECT_TRUE(obs::ValidateJson(trace.ToJson()).ok());
}

TEST(TracedAsyncRun, LockstepRunEmitsGateBlockedSpans) {
  // S=0 forces synchronized rounds: fast workers must block on the staleness
  // gate waiting for the slowest peer, and every such wait is a span.
  obs::TraceSink trace;
  const auto run = RunObserved(QuietSpec(), /*staleness=*/0, &trace, nullptr);
  EXPECT_TRUE(run.result.converged);
  EXPECT_GT(trace.CountNamed("gate-blocked"), 0u);
}

TEST(TracedAsyncRun, CrashRunEmitsFaultTimeline) {
  auto spec = QuietSpec();
  spec.worker_crash_rate = 0.6;
  spec.worker_restart_delay_s = 0.5;
  obs::TraceSink trace;
  const auto run =
      RunObserved(spec, async::kUnboundedStaleness, &trace, nullptr);
  ASSERT_GE(run.stats.worker_restarts, 1u);
  EXPECT_EQ(trace.CountNamed("crash"), run.stats.worker_restarts);
  EXPECT_EQ(trace.CountNamed("down"), run.stats.worker_restarts);
  EXPECT_EQ(trace.CountNamed("recovering"), run.stats.worker_restarts);
  EXPECT_EQ(trace.CountNamed("restored"), run.stats.worker_restarts);
  EXPECT_TRUE(obs::ValidateJson(trace.ToJson()).ok());
}

TEST(TracedAsyncRun, TraceBytesAreDeterministicAcrossRuns) {
  auto spec = QuietSpec();
  spec.worker_crash_rate = 0.6;  // include the fault timeline in the log
  spec.worker_restart_delay_s = 0.5;
  obs::TraceSink a, b;
  RunObserved(spec, async::kUnboundedStaleness, &a, nullptr);
  RunObserved(spec, async::kUnboundedStaleness, &b, nullptr);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(TracedAsyncRun, ObservabilityDoesNotPerturbTheSimulation) {
  // The determinism half of "disabled is free": the observed run must fire
  // the SAME simulation (results, event count, virtual clock) as the bare
  // run — probes only read, trace records only append. The metrics sampler
  // does schedule events, so fired counts are compared net of its ticks.
  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  const auto observed = RunObserved(QuietSpec(), async::kUnboundedStaleness,
                                    &trace, &metrics);
  const auto bare =
      RunObserved(QuietSpec(), async::kUnboundedStaleness, nullptr, nullptr);
  EXPECT_EQ(observed.result.ranks, bare.result.ranks);
  EXPECT_EQ(observed.stats.total_iterations, bare.stats.total_iterations);
  EXPECT_EQ(observed.stats.update_batches, bare.stats.update_batches);
  EXPECT_EQ(observed.stats.bytes_sent, bare.stats.bytes_sent);
  EXPECT_DOUBLE_EQ(observed.stats.end_seconds, bare.stats.end_seconds);
  EXPECT_GT(metrics.num_samples(), 0u);
  // Sampler ticks are the only extra events (tick count == samples taken
  // after the initial inline one, plus the final no-op tick that found the
  // run finished).
  EXPECT_GE(observed.fired, bare.fired);
  EXPECT_LE(observed.fired - bare.fired, metrics.num_samples() + 1);
}

TEST(TracedAsyncRun, StalenessTelemetrySurfacesInResultAndRegistry) {
  obs::MetricsRegistry metrics;
  const auto run = RunObserved(QuietSpec(), async::kUnboundedStaleness,
                               nullptr, &metrics);
  EXPECT_GT(run.stats.staleness_samples, 0u);
  EXPECT_LE(run.stats.staleness_p50, run.stats.staleness_p95);
  EXPECT_LE(run.stats.staleness_min, run.stats.staleness_max);
  // The registry's copy is the same distribution the result summarized.
  const Histogram* lag = metrics.FindHistogram("staleness_lag");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->total(), run.stats.staleness_samples);
  EXPECT_DOUBLE_EQ(lag->Percentile(50), run.stats.staleness_p50);
  EXPECT_DOUBLE_EQ(lag->Percentile(95), run.stats.staleness_p95);
  EXPECT_DOUBLE_EQ(lag->max_seen(), run.stats.staleness_max);
  // And it is measured even with observability fully off.
  const auto bare =
      RunObserved(QuietSpec(), async::kUnboundedStaleness, nullptr, nullptr);
  EXPECT_EQ(bare.stats.staleness_samples, run.stats.staleness_samples);
  EXPECT_DOUBLE_EQ(bare.stats.staleness_p95, run.stats.staleness_p95);
}

TEST(TracedAsyncRun, LockstepLagIsTight) {
  // Under S=0 a receiver can never apply a batch from a sender more than one
  // iteration away — the telemetry should show a collapsed distribution.
  const auto run =
      RunObserved(QuietSpec(), /*staleness=*/0, nullptr, nullptr);
  EXPECT_GT(run.stats.staleness_samples, 0u);
  EXPECT_LE(run.stats.staleness_max, 1.0);
  EXPECT_GE(run.stats.staleness_min, -1.0);
}

TEST(TracedAsyncRun, MetricsSeriesTrackEngineGauges) {
  // Worker and node crashes over lossy links with a partition window, so the
  // fault counters move.
  obs::MetricsRegistry metrics;
  auto spec = QuietSpec();
  spec.worker_crash_rate = 0.3;
  spec.worker_restart_delay_s = 0.3;
  spec.node_crash_rate = 0.3;
  spec.node_repair_s = 0.4;
  spec.topology.flow_loss_prob = 0.1;
  spec.topology.partitions = {{0.0, 0.2, {1}}};
  spec.topology.partition_detect_s = 0.05;
  const auto run = RunObserved(spec, async::kUnboundedStaleness, nullptr,
                               &metrics, /*interval_s=*/0.02);
  const async::AsyncResult& r = run.stats;
  ASSERT_GT(r.recoveries, 0u);
  ASSERT_GT(r.node_crashes, 0u);
  ASSERT_GT(r.flow_drops, 0u);
  EXPECT_GE(metrics.num_samples(), 2u);
  // The final sample is taken at termination: all clocks settled, nothing
  // pending, and every counter probe reading exactly the field the run
  // returns.
  auto last = [&](const char* name) { return metrics.LastValue(name); };
  EXPECT_DOUBLE_EQ(last("pending.records"), 0.0);
  EXPECT_DOUBLE_EQ(last("net.active_flows"), 0.0);
  EXPECT_GT(last("clock.min"), 0.0);
  EXPECT_DOUBLE_EQ(last("restarts"), r.worker_restarts);
  EXPECT_DOUBLE_EQ(last("flow_drops"), static_cast<double>(r.flow_drops));
  EXPECT_DOUBLE_EQ(last("batch_retries"), static_cast<double>(r.batch_retries));
  EXPECT_DOUBLE_EQ(last("retry_backoff_seconds"), r.retry_backoff_seconds);
  EXPECT_DOUBLE_EQ(last("peers_suspected"),
                   static_cast<double>(r.peers_suspected));
  EXPECT_DOUBLE_EQ(last("partition_heal_reannouncements"),
                   static_cast<double>(r.partition_heal_reannouncements));
  EXPECT_DOUBLE_EQ(last("recovery.recoveries"), r.recoveries);
  EXPECT_DOUBLE_EQ(last("recovery.downtime_seconds"), r.downtime_seconds);
  EXPECT_DOUBLE_EQ(last("recovery.node_crashes"), r.node_crashes);
  EXPECT_DOUBLE_EQ(last("recovery.token_regenerations"),
                   r.token_regenerations);
  EXPECT_DOUBLE_EQ(last("recovery.speculative_wins"), r.speculative_wins);
  EXPECT_TRUE(obs::ValidateJson(metrics.ToJson()).ok());
}

}  // namespace
}  // namespace asyncmr
