// hostbench: one workload of the host-time benchmark per process.
//
//   hostbench --workload vmtp_bulk|demux_fanout|conn_flood --seed N
//             --seconds S --trace 0|1
//   hostbench --selftest
//
// Prints human-readable lines, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics: the six end-to-end
// metrics with --trace 0, every per-layer metric with --trace 1. Exits 0
// only when every output check passed.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "perfbench/checks.h"
#include "perfbench/common.h"

namespace {

// Heap allocation count; the process is single-threaded.
uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace hostbench {

uint64_t AllocCount() { return g_allocs; }

void AddEndToEnd(const SegmentMeter& meter, double setup_s, RunResult* result) {
  result->metrics = {
      {"pkts_per_s", meter.SustainedPacketsPerSecond(), "1/s"},
      {"cpu_ns_per_pkt", meter.SustainedCpuNsPerPacket(), "ns"},
      {"op_us_p50", meter.SustainedLatencyUs(0.5), "us"},
      {"op_us_p90", meter.SustainedLatencyUs(0.9), "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_MB", PeakRssMb(), "MB"},
  };
}

void AddLayers(const LayerMetrics& l, RunResult* result) {
  result->metrics = {
      {"sim.events_per_pkt", l.sim_events_per_pkt, "count"},
      {"sim.ns_per_event", l.sim_ns_per_event, "ns"},
      {"sim.residual_ns_per_pkt", l.sim_residual_ns_per_pkt, "ns"},
      {"link.frames_per_op", l.link_frames_per_op, "count"},
      {"link.fcs_ns_per_frame", l.link_fcs_ns_per_frame, "ns"},
      {"kernel.sim_ms_per_op", l.kernel_sim_ms_per_op, "ms"},
      {"kernel.switches_per_op", l.kernel_switches_per_op, "count"},
      {"kernel.syscalls_per_op", l.kernel_syscalls_per_op, "count"},
      {"kernel.copies_per_op", l.kernel_copies_per_op, "count"},
      {"net.retransmits_per_op", l.net_retransmits_per_op, "count"},
      {"proto.parse_ns_per_pkt", l.proto_parse_ns_per_pkt, "ns"},
      {"pf.demux_ns_per_pkt", l.pf_demux_ns_per_pkt, "ns"},
      {"pf.demux_hit_ns", l.pf_demux_hit_ns, "ns"},
      {"pf.demux_miss_ns", l.pf_demux_miss_ns, "ns"},
      {"pf.fastpath_hit_ratio", l.pf_fastpath_hit_ratio, "ratio"},
      {"pf.work_per_pkt", l.pf_work_per_pkt, "count"},
      {"pf.drain_ns_per_pkt", l.pf_drain_ns_per_pkt, "ns"},
      {"pf.conn.created_per_pkt", l.pf_conn_created_per_pkt, "count"},
      {"pf.conn.evicted_per_pkt", l.pf_conn_evicted_per_pkt, "count"},
      {"pf.conn.gc_us_per_sweep", l.pf_conn_gc_us_per_sweep, "us"},
      {"obs.flowsig_ns_per_pkt", l.obs_flowsig_ns_per_pkt, "ns"},
      {"host.allocs_per_pkt", l.host_allocs_per_pkt, "count"},
  };
}

}  // namespace hostbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload vmtp_bulk|demux_fanout|conn_flood [--seed N] "
               "[--seconds S] [--trace 0|1]\n       hostbench --selftest\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::Options options;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t value = 0;
    if (arg == "--selftest") {
      selftest_only = true;
    } else if (i + 1 >= argc) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed" && ParseUnsigned(argv[i + 1], &value)) {
      options.seed = value;
      ++i;
    } else if (arg == "--seconds" && ParseUnsigned(argv[i + 1], &value) && value >= 1 &&
               value <= 3600) {
      options.seconds = static_cast<int>(value);
      ++i;
    } else if (arg == "--trace" && ParseUnsigned(argv[i + 1], &value) && value <= 1) {
      options.trace = value == 1;
      ++i;
    } else {
      return Usage();
    }
  }

  // The checks must reject wrong inputs before any run relies on them.
  std::string why;
  if (!hostbench::SelfTest(&why)) {
    std::fprintf(stderr, "hostbench: check self-test failed: %s\n", why.c_str());
    return 3;
  }
  if (selftest_only) {
    std::printf("self-test passed: every check rejects its deliberately wrong input\n");
    return 0;
  }

  hostbench::RunResult result;
  if (options.workload == "vmtp_bulk") {
    result = hostbench::RunVmtpBulk(options);
  } else if (options.workload == "demux_fanout") {
    result = hostbench::RunDemuxWorkload(options, /*flood=*/false);
  } else if (options.workload == "conn_flood") {
    result = hostbench::RunDemuxWorkload(options, /*flood=*/true);
  } else {
    return Usage();
  }

  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const hostbench::Metric& m : result.metrics) {
    std::printf("# %-26s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const hostbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
