// Shared plumbing for the host-time benchmark: clocks, the segment meter
// behind the end-to-end metrics, per-layer span accumulators, and the
// result every workload returns to main().
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace hostbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time, user + system, of every thread (there is one).
inline int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Peak resident set of this process image. VmHWM is the high-water mark
// of the current address space; getrusage's ru_maxrss would also carry the
// resident set of whatever process forked this one (Linux keeps it across
// exec), so it is only the fallback.
inline double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(f);
    if (kib > 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// Heap allocations made by this process so far (the counting operator new
// lives in main.cc).
uint64_t AllocCount();

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Host time spent in one layer's calls, as timed by the benchmark around
// them, and how many items (packets, frames, sweeps) those calls handled.
struct Span {
  uint64_t items = 0;
  int64_t ns = 0;
  void Add(int64_t elapsed_ns, uint64_t n = 1) {
    ns += elapsed_ns;
    items += n;
  }
  double NsPerItem() const { return Ratio(static_cast<double>(ns), static_cast<double>(items)); }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;      // end-to-end, or per-layer when traced
  std::vector<std::string> notes;   // human-readable lines printed first
};

// Percentile by linear interpolation between order statistics; q in [0, 1].
// Sorts `values` in place.
inline double Percentile(std::span<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// The end-to-end measurements of a timed phase, taken over consecutive
// segments of at least kSegmentNs and kMinSegmentOps operations each.
//
// The host is shared: for seconds at a time it runs up to ~1.8x faster
// than its usual speed, and how much of a run those spells cover differs
// from run to run. An average over the run, or a median over its
// operations, moves with that share. What repeats is the level a run
// sustains in nine of ten segments, so every end-to-end figure is that
// level: the packet rate met or exceeded in 90% of segments, and the CPU
// cost and latency percentiles not exceeded in 90% of segments.
class SegmentMeter {
 public:
  static constexpr int64_t kSegmentNs = 100'000'000;
  // Enough operations that a segment's p90 has ten samples beyond it.
  static constexpr size_t kMinSegmentOps = 100;

  SegmentMeter() {
    // Touched up front, so peak RSS does not depend on the host's speed.
    latencies_.assign(kMaxSegmentOps, 0);
  }

  // Starts a segment, dropping any partial one (also after a pause).
  void Start(int64_t wall_ns, uint64_t packets) {
    wall_ns_ = wall_ns;
    cpu_ns_ = CpuNs();
    packets_ = packets;
    ops_ = 0;
  }

  // Called after every operation with its latency, the clock, and the
  // running count of frames demultiplexed.
  void Tick(int64_t latency_ns, int64_t wall_ns, uint64_t packets) {
    latencies_[ops_++] = static_cast<double>(latency_ns);
    if ((wall_ns - wall_ns_ < kSegmentNs || ops_ < kMinSegmentOps) && ops_ < kMaxSegmentOps) {
      return;
    }
    const int64_t cpu_ns = CpuNs();
    const auto n = static_cast<double>(packets - packets_);
    rate_.push_back(n * 1e9 / static_cast<double>(wall_ns - wall_ns_));
    cpu_per_packet_.push_back(Ratio(static_cast<double>(cpu_ns - cpu_ns_), n));
    const std::span<double> ops(latencies_.data(), ops_);
    p50_.push_back(Percentile(ops, 0.50));
    p90_.push_back(Percentile(ops, 0.90));
    p99_.push_back(Percentile(ops, 0.99));
    ops_ = 0;
    wall_ns_ = wall_ns;
    cpu_ns_ = cpu_ns;
    packets_ = packets;
  }

  size_t segments() const { return rate_.size(); }
  // Frames per second met or exceeded in 90% of segments.
  double SustainedPacketsPerSecond() const { return Level(rate_, 0.10); }
  // CPU ns per frame not exceeded in 90% of segments.
  double SustainedCpuNsPerPacket() const { return Level(cpu_per_packet_, 0.90); }
  // A segment latency percentile (0.5, 0.9 or 0.99) not exceeded in 90% of
  // segments, in microseconds.
  double SustainedLatencyUs(double q) const {
    return Level(q == 0.5 ? p50_ : q == 0.9 ? p90_ : p99_, 0.90) / 1e3;
  }

 private:
  static constexpr size_t kMaxSegmentOps = size_t{1} << 17;

  static double Level(std::vector<double> values, double q) { return Percentile(values, q); }

  int64_t wall_ns_ = 0;
  int64_t cpu_ns_ = 0;
  uint64_t packets_ = 0;
  std::vector<double> latencies_;  // this segment's, in ns
  size_t ops_ = 0;
  std::vector<double> rate_;
  std::vector<double> cpu_per_packet_;
  std::vector<double> p50_;
  std::vector<double> p90_;
  std::vector<double> p99_;
};

// When to time the run's set-ups: kCount of them, spread evenly over the
// timed phase, which pauses for each. Set-ups taken back to back would all
// land in whatever speed spell the host was in at that moment; spread out,
// their median follows the speed the host sustains over the run.
class SetUpSchedule {
 public:
  static constexpr int kCount = 7;

  SetUpSchedule(int64_t start_ns, int64_t length_ns) : start_ns_(start_ns), length_ns_(length_ns) {}

  bool Due(int64_t now_ns) const {
    return taken() < kCount && now_ns >= start_ns_ + length_ns_ * (taken() + 1) / (kCount + 1);
  }
  int taken() const { return static_cast<int>(seconds_.size()); }
  void Record(double seconds) { seconds_.push_back(seconds); }
  double MedianSeconds() const { return Median(seconds_); }

 private:
  int64_t start_ns_;
  int64_t length_ns_;
  std::vector<double> seconds_;
};

// Turns a timed phase into the six end-to-end metrics. `setup_s` is the
// median over the run's set-ups.
void AddEndToEnd(const SegmentMeter& meter, double setup_s, RunResult* result);

// Every per-layer metric; the traced run of each workload fills the ones
// on its path and leaves the rest 0 (see README.md).
struct LayerMetrics {
  double sim_events_per_pkt = 0;
  double sim_ns_per_event = 0;
  double sim_residual_ns_per_pkt = 0;
  double link_frames_per_op = 0;
  double link_fcs_ns_per_frame = 0;
  double kernel_sim_ms_per_op = 0;
  double kernel_switches_per_op = 0;
  double kernel_syscalls_per_op = 0;
  double kernel_copies_per_op = 0;
  double net_retransmits_per_op = 0;
  double proto_parse_ns_per_pkt = 0;
  double pf_demux_ns_per_pkt = 0;
  double pf_demux_hit_ns = 0;
  double pf_demux_miss_ns = 0;
  double pf_fastpath_hit_ratio = 0;
  double pf_work_per_pkt = 0;
  double pf_drain_ns_per_pkt = 0;
  double pf_conn_created_per_pkt = 0;
  double pf_conn_evicted_per_pkt = 0;
  double pf_conn_gc_us_per_sweep = 0;
  double obs_flowsig_ns_per_pkt = 0;
  double host_allocs_per_pkt = 0;
};

void AddLayers(const LayerMetrics& layers, RunResult* result);

RunResult RunVmtpBulk(const Options& options);
RunResult RunDemuxWorkload(const Options& options, bool flood);

}  // namespace hostbench

#endif  // PERFBENCH_COMMON_H_
