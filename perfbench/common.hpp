// Shared plumbing of the benchmark harness: command-line options, seeded
// input derivation, the correctness gate, statistics, process probes and
// the result record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory receiving the Chrome trace and the layer report of a
  /// traced run (inside the checkout).
  std::string out_dir = ".bench_out";
  /// Gate self-test: corrupts golden references before the measured
  /// phase, so the run must report failed frames and exit non-zero.
  bool corrupt_golden = false;
};

/// Seeded generator of every input the benchmark makes (splitmix64). The
/// program under test only ever sees the values drawn from it.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed, std::uint64_t salt = 0)
      : state_(seed * 0x9e3779b97f4a7c15ull ^ (salt + 0x632be59bd9b4e019ull)) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Seeded permutation of [0, n): the order a client rotates through its
/// kernels.
std::vector<std::size_t> seeded_order(std::size_t n, SeedStream& rng);

/// Correctness gate: every frame is checked against a golden reference
/// computed before the timed phase. A shed, cancelled or failed frame and
/// any output mismatch count as failed.
class Gate {
 public:
  /// Records one attempted frame; returns `ok`.
  bool record(bool ok, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }
  /// Folds another gate's counts in (per-thread gates merge at the end).
  void merge(const Gate& other);

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int reported_ = 0;
};

/// Trips the gate on a known-bad checksum and a failed-frame verdict and
/// checks it reports both; runs before every measurement so a broken gate
/// can never pass a run.
bool gate_self_test();

/// Linear-interpolated percentile, p in [0, 100] (empty -> 0).
double percentile(std::vector<double> values, double p);

/// Process CPU time (user + system, getrusage) in seconds.
double process_cpu_s();
/// CPU time of the calling thread in seconds.
double thread_cpu_s();
/// VmHWM of this process in MB.
double peak_rss_mb();
/// OS threads of this process right now.
long os_threads();

double seconds_since(Clock::time_point t0);

/// One metric of the final JSON line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the gate's counts, the metrics of
/// the requested mode and free-form report lines (base counts of every
/// ratio, host facts, span tables) printed before the JSON line.
struct Result {
  Gate gate;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Formats with printf semantics into a std::string.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// "p50=.. p90=.. n=.." summary of a sample, for the report lines.
std::string describe_sample(const std::vector<double>& values,
                            const char* unit);

/// Latency/throughput block shared by the workloads: the end-to-end
/// metrics of one measured phase.
struct Phase {
  double seconds = 0;            ///< measured wall time
  double cpu_s = 0;              ///< process CPU over the phase
  std::int64_t frames_ok = 0;    ///< frames that resolved correctly
  std::vector<double> latency_ms;  ///< per request, submit -> verified
  std::vector<double> done_s;      ///< completion times, s since phase start
  long threads = 0;              ///< OS threads sampled in the phase

  /// Appends another phase measured on the same service.
  void add(const Phase& other) {
    for (const double t : other.done_s) done_s.push_back(seconds + t);
    seconds += other.seconds;
    cpu_s += other.cpu_s;
    frames_ok += other.frames_ok;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
    threads = std::max(threads, other.threads);
  }

  double fps() const { return seconds > 0 ? frames_ok / seconds : 0; }
  double cpu_ms_per_frame() const {
    return frames_ok > 0 ? 1e3 * cpu_s / static_cast<double>(frames_ok) : 0;
  }
};

/// Sets the end-to-end metrics of a measured phase -- setup_s is the
/// median of the set-up samples -- plus their report lines.
void report_phase(const Phase& phase, const std::vector<double>& setup_samples,
                  Result* result);

}  // namespace perfbench
