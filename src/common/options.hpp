// Environment-variable / command-line driven options for benches and
// examples.
//
// Every figure bench honours:
//   AMR_SCALE      — multiplies workload sizes (default 1.0 = paper scale)
//   AMR_SEED       — master RNG seed (default 42)
//   AMR_CSV        — when set, benches also emit machine-readable CSV rows
//   AMR_LOG_LEVEL  — logger threshold: debug|info|warn|error|off
//   AMR_TRACE_OUT  — write a Chrome trace-event JSON of the run here
//   AMR_METRICS_OUT        — write the metrics time-series JSON here
//   AMR_METRICS_INTERVAL   — virtual-time gauge sample cadence in seconds
// so the full paper-scale run and quick smoke runs use the same binaries.
// The FromEnv(argc, argv) overload additionally accepts the same knobs as
// flags (--log-level=, --trace-out=, --metrics-out=, --metrics-interval=),
// which override the environment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace asyncmr {

/// Reads an environment variable; nullopt when unset or empty.
std::optional<std::string> GetEnv(const std::string& name);

double GetEnvDouble(const std::string& name, double fallback);
int64_t GetEnvInt(const std::string& name, int64_t fallback);
bool GetEnvBool(const std::string& name, bool fallback);

/// Bench-wide knobs, resolved once from the environment (and optionally the
/// command line).
struct BenchOptions {
  double scale = 1.0;       // workload scale factor vs the paper
  uint64_t seed = 42;       // master seed
  bool csv = false;         // also print CSV rows
  std::string trace_out;    // Chrome trace-event JSON path; empty = off
  std::string metrics_out;  // metrics time-series JSON path; empty = off
  double metrics_interval_s = 1.0;  // virtual-time gauge sample cadence

  /// Resolves from the environment alone; applies AMR_LOG_LEVEL to the
  /// global Logger when set (and valid).
  static BenchOptions FromEnv();

  /// Resolves from the environment, then lets command-line flags override:
  /// --log-level=LVL, --trace-out=PATH, --metrics-out=PATH,
  /// --metrics-interval=SECONDS (each also as "--flag value"). Unknown
  /// arguments are ignored with a warning on stderr, so binaries keep
  /// working under wrappers that append their own flags.
  static BenchOptions FromEnv(int argc, char** argv);

  /// Scales a paper-sized count, keeping at least min_value.
  uint64_t Scaled(uint64_t paper_value, uint64_t min_value = 1) const;
};

}  // namespace asyncmr
