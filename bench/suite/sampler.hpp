// SIGPROF host-time sampler for the benchmark's traced pass.
//
// ITIMER_PROF interrupts the process every few milliseconds of CPU time; the
// handler stores the interrupted PC plus a backtrace() of its callers into a
// preallocated table (no allocation, no locks). The samples are written out
// after the run as executable-relative addresses, and run.py maps them to
// source files with one addr2line batch — so the program under test is never
// modified to be profiled.
#pragma once

#include <cstddef>
#include <string>

namespace suite {

/// Starts sampling. The first call installs the handler and warms the
/// unwinder (backtrace() loads libgcc_s lazily, which must not happen inside
/// a signal handler).
void ArmSampler();

/// Stops sampling; samples taken so far are kept.
void DisarmSampler();

/// Samples recorded since the process started.
size_t SampleCount();

/// Appends samples [first, SampleCount()) to `path`, one line each:
/// "<tag> <addr>..." with hex executable-relative addresses, innermost frame
/// first. Frames outside the executable (libc, libstdc++) are left out.
/// Caller frames are return addresses minus one, so they resolve to the
/// call site. Returns false if the file cannot be written.
bool AppendSamples(const std::string& path, const char* tag, size_t first);

}  // namespace suite
