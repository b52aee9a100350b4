// Determinism lint for the asyncmr tree.
//
// The simulator's whole value proposition is bit-reproducibility: every
// result in BENCH_*.json and every differential test assumes that a (seed,
// config) pair fixes the entire virtual timeline. Five classes of C++ are
// the classic ways that property silently dies, and this lint rejects them
// mechanically instead of hoping review catches them:
//
//   wall-clock            std::chrono / time() / clock() outside the
//                         explicit allowlist (common/stopwatch.hpp wraps the
//                         host clock for bench self-timing; simulation code
//                         must advance time only through sim::EventQueue).
//   randomness            rand() / std::random_device / locally-seeded
//                         std::mt19937 etc. outside common/rng — all
//                         stochastic draws must flow through the seeded,
//                         splittable asyncmr::Rng streams.
//   unordered-iteration   range-for over std::unordered_map/unordered_set:
//                         hash order is not part of the simulation contract,
//                         so iteration order leaking into emitted events,
//                         floating-point accumulation order or serialized
//                         bytes is the classic determinism bug. Sites that
//                         are genuinely order-insensitive (e.g. collecting
//                         keys that are sorted before use) carry a
//                         `// lint:order-insensitive` annotation on the loop
//                         line or the line above it.
//   raw-output            printf-family / std::cout / std::cerr from src/
//                         outside common/logging — all diagnostics go
//                         through AMR_LOG so tests can capture them and a
//                         log level gates them. (snprintf-to-buffer is
//                         formatting, not output, and is not flagged.)
//   host-threads          #include <thread> / <future>, std::thread,
//                         std::jthread, std::async. The simulator runs on
//                         one host thread; parallelism the paper assumes
//                         (e.g. an intra-host lmap pool) is modeled in
//                         virtual time, never executed, so no host thread
//                         count can reach a result's bits.
//
// Any rule can also be suppressed on a specific line with
// `// lint:allow(<rule>)`. The checker is a deliberately dependency-free,
// single-file heuristic analyzer (comments and string literals are stripped,
// declarations are tracked per file, no real type resolution); the fixture
// tests in tests/test_lint.cpp pin exactly what it catches.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace asyncmr::lint {

struct Violation {
  std::string file;
  int line = 0;         // 1-based
  std::string rule;     // "wall-clock", "randomness", "unordered-iteration",
                        // "raw-output", "host-threads"
  std::string message;  // what was matched, and how to fix or annotate it
};

/// Lints one translation unit's text. `path` is used for reporting and for
/// the per-rule file allowlists (matched by path suffix).
std::vector<Violation> LintSource(std::string_view path, std::string_view content);

/// Reads and lints `path`. Unreadable files produce a single pseudo-violation
/// with rule "io-error" so a vanished file fails CI instead of passing it.
std::vector<Violation> LintFile(const std::string& path);

/// Lints every *.hpp/*.cpp/*.h/*.cc under `dir` (recursively), in sorted
/// path order so output and exit status are stable across filesystems.
std::vector<Violation> LintTree(const std::string& dir);

/// One "path:line: [rule] message" line.
std::string FormatViolation(const Violation& v);

}  // namespace asyncmr::lint
