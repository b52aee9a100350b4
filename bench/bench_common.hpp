// Shared sweep runners for the figure benchmarks.
//
// Scaling: every figure bench honours AMR_SCALE (default 1.0 = the paper's
// sizes). At scale s both the vertex/point counts AND the partition-count
// axis scale by s, preserving the partition-size regimes (n/k) the paper
// sweeps — so curve shapes are comparable at any scale. AMR_SEED seeds the
// generators; AMR_CSV=1 adds machine-readable rows.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/kmeans.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "common/options.hpp"
#include "common/status.hpp"
#include "graph/generator.hpp"
#include "graph/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace asyncmr::bench {

/// Version of the one-line BENCH_* JSON records the figure benches append to
/// their trajectory files. Bump when a bench line gains/renames fields, and
/// document the change in the README's "Bench-line schema" section.
///   v1 — pre-versioned lines (no schema_version field)
///   v2 — adds schema_version itself
///   v3 — micro_des gains the calendar-queue and sharded-mode columns
///   v4 — ablation_faults gains the node-crash column (node_* fields);
///        ablation_chaos lines introduced
///   v5 — micro_des drops the legacy-queue and sharded-mode columns;
///        scale_async drops its DES-mode field (the sharded DES mode was
///        deleted)
inline constexpr int kBenchSchemaVersion = 5;

/// Owns the optional observability sinks for a bench binary, resolved from
/// BenchOptions (--trace-out / --metrics-out / AMR_TRACE_OUT / ...). When
/// neither output is requested the session is inert: View() returns null
/// sinks and the instrumented code pays only its null-pointer guards.
///
/// Benches attach the session to ONE representative run (e.g. the largest-P
/// async cell), not every run — a trace of forty overlaid sweeps is noise.
class ObsSession {
 public:
  explicit ObsSession(const BenchOptions& opts);

  bool enabled() const { return trace_ != nullptr || metrics_ != nullptr; }

  /// The view instrumented code consumes (EngineTuning::obs). The sinks it
  /// points at live as long as this session.
  obs::Observability View();

  /// Writes the requested output files; no-op when disabled.
  Status Flush() const;

  /// Flush(), reporting failure to stderr instead of propagating (benches
  /// should still print their results when a sink path is unwritable).
  void FlushOrWarn() const;

  const obs::TraceSink* trace() const { return trace_.get(); }
  const obs::MetricsRegistry* metrics() const { return metrics_.get(); }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  double metrics_interval_s_ = 1.0;
  std::unique_ptr<obs::TraceSink> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
};

/// The paper's partition-count axis (Figures 2-7).
inline const std::vector<uint32_t> kPaperPartitionCounts = {100,  200,  400, 800,
                                                            1600, 3200, 6400};

/// The paper's threshold axis (Figures 8-9).
inline const std::vector<double> kPaperThresholds = {0.1, 0.01, 0.001, 0.0001};

/// Partition counts scaled consistently with the workload scale.
std::vector<uint32_t> ScaledPartitionCounts(const BenchOptions& opts);

/// Which paper graph a bench runs on.
enum class PaperGraph { kA, kB };
graph::PrefAttachConfig GraphConfig(PaperGraph which, const BenchOptions& opts);

/// The power-law graph scenario shared by ablation_async and micro_des
/// (crawl-locality preferential attachment, multilevel-partitioned): one
/// definition so the perf-trajectory anchor and the ablation never drift.
struct AblationGraphScenario {
  graph::Digraph g;
  uint32_t k = 0;  // partition count
  graph::Partitioning part;
};
AblationGraphScenario BuildAblationGraphScenario(const BenchOptions& opts);

struct GraphSweepRow {
  uint32_t partitions = 0;
  double cut_fraction = 0.0;
  uint32_t general_iterations = 0;
  double general_seconds = 0.0;
  uint64_t general_ops = 0;
  bool general_converged = false;
  uint32_t eager_iterations = 0;
  double eager_seconds = 0.0;
  uint64_t eager_ops = 0;
  uint64_t eager_local_iterations = 0;
  bool eager_converged = false;
  double speedup() const {
    return eager_seconds > 0 ? general_seconds / eager_seconds : 0.0;
  }
};

/// Runs General + Eager PageRank across the partition sweep on a fresh
/// Ec2Large8 cluster per run. Prints progress to stderr.
std::vector<GraphSweepRow> RunPageRankSweep(PaperGraph which, const BenchOptions& opts);

/// Same sweep for Single-Source Shortest Path (Graph A, random weights).
std::vector<GraphSweepRow> RunSsspSweep(const BenchOptions& opts);

struct KmeansSweepRow {
  double threshold = 0.0;
  uint32_t general_iterations = 0;
  double general_seconds = 0.0;
  bool general_converged = false;
  uint32_t eager_iterations = 0;
  double eager_seconds = 0.0;
  uint64_t eager_local_iterations = 0;
  bool eager_converged = false;
  double general_sse = 0.0;
  double eager_sse = 0.0;
  double speedup() const {
    return eager_seconds > 0 ? general_seconds / eager_seconds : 0.0;
  }
};

/// Runs General + Eager K-Means across the paper's threshold axis with the
/// paper's fixed 52 partitions.
std::vector<KmeansSweepRow> RunKmeansSweep(const BenchOptions& opts);

/// Pretty-prints one graph sweep as the paper's two figure series, iterations
/// to converge and time to converge, then the supporting detail.
void PrintGraphSweep(const std::string& iterations_title,
                     const std::string& time_title,
                     const std::vector<GraphSweepRow>& rows,
                     const BenchOptions& opts);

/// The same for one K-Means threshold sweep.
void PrintKmeansSweep(const std::string& iterations_title,
                      const std::string& time_title,
                      const std::vector<KmeansSweepRow>& rows,
                      const BenchOptions& opts);

/// A figure bench's exit code: 0 when every General and Eager run in the sweep
/// converged, else 1, with the count of runs that did not on stderr (stdout
/// stays the figure alone).
template <typename Row>
int SweepExitCode(const std::vector<Row>& rows) {
  size_t failed = 0;
  for (const Row& row : rows) failed += !row.general_converged + !row.eager_converged;
  if (failed == 0) return 0;
  std::fprintf(stderr, "FAILED: %zu of %zu sweep runs did not converge\n", failed,
               2 * rows.size());
  return 1;
}

/// Prints the standard bench banner (scale, seed, testbed).
void PrintBanner(const std::string& title, const BenchOptions& opts);

}  // namespace asyncmr::bench
