#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <numeric>

namespace perfbench {

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> seeded_order(std::size_t n, SeedStream& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

bool Gate::record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    // The first few failures name themselves; a systematic failure must
    // not flood the report.
    if (reported_++ < 5) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  return ok;
}

void Gate::merge(const Gate& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

bool gate_self_test() {
  Gate gate;
  const std::uint64_t expected = 0x1234;
  const std::uint64_t wrong = expected ^ 1;
  gate.record(expected == expected, "self-test good frame");
  std::fprintf(stderr, "perfbench: gate self-test, one failure expected:\n");
  gate.record(wrong == expected, "self-test wrong checksum");
  return gate.attempted() == 2 && gate.failed() == 1 && !gate.correct();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

/// Value of a "Key:   <n> ..." line of /proc/self/status (-1 if absent).
long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::stol(line.substr(n));
  }
  return -1;
}

}  // namespace

double peak_rss_mb() { return proc_status_field("VmHWM:") / 1024.0; }

long os_threads() { return proc_status_field("Threads:"); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

std::string describe_sample(const std::vector<double>& values,
                            const char* unit) {
  return fmt("p25=%.4g p50=%.4g p75=%.4g p90=%.4g %s (n=%zu)",
             percentile(values, 25), percentile(values, 50),
             percentile(values, 75), percentile(values, 90), unit,
             values.size());
}

void report_phase(const Phase& phase, const std::vector<double>& setup_samples,
                  Result* result) {
  result->set("setup_s", percentile(setup_samples, 50), "s");
  result->set("throughput_fps", phase.fps(), "1/s");
  result->set("frame_p50_ms", percentile(phase.latency_ms, 50), "ms");
  result->set("frame_p90_ms", percentile(phase.latency_ms, 90), "ms");
  result->set("cpu_ms_per_frame", phase.cpu_ms_per_frame(), "ms");
  result->set("peak_rss_mb", peak_rss_mb(), "MB");
  result->note(fmt("setup_s: median of %zu set-ups: %s", setup_samples.size(),
                   describe_sample(setup_samples, "s").c_str()));
  result->note(fmt("throughput_fps = %lld frames ok / %.3f s measured",
                   static_cast<long long>(phase.frames_ok), phase.seconds));
  result->note("latency " + describe_sample(phase.latency_ms, "ms"));
  std::vector<double> windows(static_cast<std::size_t>(phase.seconds), 0.0);
  for (const double t : phase.done_s) {
    if (static_cast<std::size_t>(t) < windows.size()) windows[static_cast<std::size_t>(t)] += 1;
  }
  std::string per_window;
  for (const double w : windows) per_window += fmt(" %.0f", w);
  result->note("frames per 1-s window:" + per_window);
  result->note(fmt("cpu_ms_per_frame = %.3f CPU-s / %lld frames; %ld OS threads",
                   phase.cpu_s, static_cast<long long>(phase.frames_ok),
                   phase.threads));
}

}  // namespace perfbench
