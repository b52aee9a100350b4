#include "sampler.hpp"

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>

namespace suite {
namespace {

constexpr size_t kMaxSamples = size_t{1} << 15;
constexpr int kMaxDepth = 64;
// 4 ms of process CPU time; the kernel's 250 Hz profiling tick caps the
// effective rate there anyway.
constexpr long kIntervalUs = 4000;

struct Sample {
  int depth = 0;
  uintptr_t frames[kMaxDepth] = {};  // [0] = interrupted PC, then callers
};

// Static storage: the handler must not allocate. Pages are only touched once
// samples land in them, so an unsampled run pays no memory for the table.
Sample g_samples[kMaxSamples];
std::atomic<size_t> g_count{0};
std::atomic<bool> g_recording{false};

uintptr_t InterruptedPc(const void* uc) {
  const auto* ctx = static_cast<const ucontext_t*>(uc);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(ctx->uc_mcontext.pc);
#else
#error "the sampler reads the interrupted PC on x86_64 and aarch64 only"
#endif
}

void OnProf(int, siginfo_t*, void* uc) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  const size_t i = g_count.load(std::memory_order_relaxed);
  if (i >= kMaxSamples) return;
  const int saved_errno = errno;
  void* stack[kMaxDepth + 4];
  const int n = backtrace(stack, kMaxDepth + 4);
  // The unwind starts in this handler and crosses the signal trampoline; the
  // interrupted frame is where the ucontext PC shows up. If the unwinder
  // could not cross the trampoline, the sample keeps the PC alone.
  Sample& s = g_samples[i];
  s.frames[0] = InterruptedPc(uc);
  int from = n;
  for (int j = 0; j < n; ++j) {
    if (reinterpret_cast<uintptr_t>(stack[j]) == s.frames[0]) {
      from = j + 1;
      break;
    }
  }
  int depth = 1;
  for (int j = from; j < n && depth < kMaxDepth; ++j) {
    s.frames[depth++] = reinterpret_cast<uintptr_t>(stack[j]);
  }
  s.depth = depth;
  g_count.store(i + 1, std::memory_order_relaxed);
  errno = saved_errno;
}

struct ExeRange {
  uintptr_t base = 0;  // load bias: executable-relative = address - base
  uintptr_t lo = UINTPTR_MAX;
  uintptr_t hi = 0;
};

// The first object dl_iterate_phdr reports is the main executable.
ExeRange FindExecutable() {
  ExeRange range;
  dl_iterate_phdr(
      [](dl_phdr_info* info, size_t, void* out) {
        auto* r = static_cast<ExeRange*>(out);
        r->base = info->dlpi_addr;
        for (int i = 0; i < info->dlpi_phnum; ++i) {
          const ElfW(Phdr)& ph = info->dlpi_phdr[i];
          if (ph.p_type != PT_LOAD) continue;
          r->lo = std::min<uintptr_t>(r->lo, info->dlpi_addr + ph.p_vaddr);
          r->hi = std::max<uintptr_t>(r->hi, info->dlpi_addr + ph.p_vaddr + ph.p_memsz);
        }
        return 1;
      },
      &range);
  return range;
}

void SetTimer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace

void ArmSampler() {
  static const bool installed = [] {
    void* warm[4];
    backtrace(warm, 4);
    struct sigaction sa {};
    sa.sa_sigaction = OnProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    return true;
  }();
  (void)installed;
  g_recording.store(true);
  SetTimer(kIntervalUs);
}

void DisarmSampler() {
  SetTimer(0);
  g_recording.store(false);
}

size_t SampleCount() { return g_count.load(); }

bool AppendSamples(const std::string& path, const char* tag, size_t first) {
  FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) return false;
  const ExeRange exe = FindExecutable();
  const size_t last = SampleCount();
  for (size_t i = first; i < last; ++i) {
    const Sample& s = g_samples[i];
    std::fprintf(out, "%s", tag);
    for (int d = 0; d < s.depth; ++d) {
      const uintptr_t addr = s.frames[d] - (d == 0 ? 0 : 1);
      if (addr < exe.lo || addr >= exe.hi) continue;
      std::fprintf(out, " %jx", static_cast<uintmax_t>(addr - exe.base));
    }
    std::fputc('\n', out);
  }
  return std::fclose(out) == 0;
}

}  // namespace suite
