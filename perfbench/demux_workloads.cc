// demux_fanout and conn_flood: 1024 Pup-socket ports under kIndexed, driven
// straight into PacketFilter::Demux (the PacketBuf overload the kernel
// uses) by a closed-loop load generator. One operation is a burst of
// kBurst minimum-size frames plus the drain of every port the burst
// reached, with each popped frame checked against the benchmark's own
// socket -> port table.
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/common.h"
#include "src/link/frame.h"
#include "src/net/pup_endpoint.h"
#include "src/obs/flow_stats.h"
#include "src/pf/conndb.h"
#include "src/pf/demux.h"

namespace hostbench {
namespace {

constexpr size_t kPorts = 1024;
constexpr size_t kBurst = 32;  // == the default port queue limit: no drops
// demux_fanout: established flows, each to its own socket, so both the
// verdict cache (capacity 1024, keyed by the socket words) and the conndb
// (default capacity 4096, keyed by the frame prefix) could hold them all.
constexpr size_t kFanoutFlows = 512;
// conn_flood: flows kept resident while the other half of the traffic
// floods the conndb with one-packet flows.
constexpr size_t kResidentFlows = 256;
constexpr uint8_t kFlowHost = 1;   // src host of established flows
constexpr uint8_t kFloodHost = 9;  // src host of flood flows (never collide)
// Frame byte offsets on the Experimental Ethernet (4-byte link header).
constexpr size_t kDstSocketOffset = 4 + 10;
constexpr size_t kSrcSocketOffset = 4 + 16;
// The kernel device's conndb GC cadence (PacketFilterDevice default).
constexpr uint64_t kGcIntervalNs = 10'000'000;
constexpr uint64_t kSocketTableSeed = 0x50c4e7;
// Exact per-layer counts are taken over the first kWindowOps operations,
// so they do not depend on how many operations a run completes.
constexpr uint64_t kWindowOps = 2000;

void StoreBe32(std::span<uint8_t> bytes, size_t offset, uint32_t v) {
  bytes[offset] = static_cast<uint8_t>(v >> 24);
  bytes[offset + 1] = static_cast<uint8_t>(v >> 16);
  bytes[offset + 2] = static_cast<uint8_t>(v >> 8);
  bytes[offset + 3] = static_cast<uint8_t>(v);
}

// Per-layer spans, kept only in the traced run.
struct DemuxTrace {
  Span demux;
  Span demux_hit;
  Span demux_miss;
  Span drain;
  Span parse;
  Span flowsig;
  Span gc;
};

class DemuxRig {
 public:
  DemuxRig(uint64_t seed, bool flood);

  // One burst + drain. Returns false if any output check failed.
  bool RunOp(DemuxTrace* trace);

  pf::PacketFilter& filter() { return filter_; }
  const std::vector<pf::PortId>& ports() const { return ports_; }
  uint64_t established_frames() const { return established_frames_; }
  uint64_t conn_hits() const { return conn_hits_; }
  uint64_t flood_flows() const { return next_flood_id_ - first_flood_id_; }

 private:
  struct Flow {
    pf::PacketBuf frame;
    pf::PortId port = pf::kInvalidPort;
  };

  const pf::PacketBuf& NextFloodFrame(size_t slot, pf::PortId* port);

  bool flood_;
  pfutil::Rng rng_;
  pf::PacketFilter filter_;
  std::vector<uint32_t> sockets_;  // by port index
  std::vector<pf::PortId> ports_;
  RouteTable routes_;
  DeliveryTally tally_;
  std::vector<Flow> flows_;
  std::vector<uint32_t> rotation_;  // shuffled indices into flows_
  size_t rotation_pos_ = 0;
  std::vector<pf::PacketBuf> flood_pool_;  // one reusable frame per burst slot
  uint32_t first_flood_id_ = 0;
  uint32_t next_flood_id_ = 0;
  uint64_t frame_ns_ = 0;  // wire time of one frame: the simulated clock step
  uint64_t now_ns_ = 0;
  uint64_t next_gc_ns_ = kGcIntervalNs;
  uint64_t established_frames_ = 0;
  uint64_t conn_hits_ = 0;
};

DemuxRig::DemuxRig(uint64_t seed, bool flood)
    : flood_(flood), rng_(seed), tally_(static_cast<pf::PortId>(kPorts)) {
  filter_.SetStrategy(pf::Strategy::kIndexed);
  if (flood_) {
    filter_.EnableConnTracking();  // default: capacity 4096, shed mode
  }
  // Distinct sockets, one port each. The port table is the same for every
  // seed: the seed picks the flows and the traffic, not the filter set.
  pfutil::Rng socket_rng(kSocketTableSeed);
  std::unordered_set<uint32_t> seen;
  while (sockets_.size() < kPorts) {
    const auto socket = static_cast<uint32_t>(socket_rng.Next());
    if (socket != 0 && seen.insert(socket).second) {
      sockets_.push_back(socket);
    }
  }
  for (const uint32_t socket : sockets_) {
    const pf::PortId port = filter_.OpenPort();
    filter_.SetFilter(port, pfnet::MakePupSocketFilter(socket, 10));
    ports_.push_back(port);
    routes_.Add(socket, port);
  }

  // Established flows: distinct sockets, seeded source sockets.
  const size_t nflows = flood_ ? kResidentFlows : kFanoutFlows;
  std::vector<uint32_t> order(kPorts);
  for (size_t i = 0; i < kPorts; ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = kPorts - 1; i > 0; --i) {
    std::swap(order[i], order[rng_.Below(i + 1)]);
  }
  for (size_t f = 0; f < nflows; ++f) {
    const uint32_t k = order[f];
    flows_.push_back({MakePupFrame(sockets_[k], kFlowHost,
                                   0x80000000u | static_cast<uint32_t>(rng_.Next() >> 33)),
                      ports_[k]});
  }
  // A shuffled rotation through every flow several times.
  for (int rep = 0; rep < 8; ++rep) {
    for (uint32_t f = 0; f < nflows; ++f) {
      rotation_.push_back(f);
    }
  }
  for (size_t i = rotation_.size() - 1; i > 0; --i) {
    std::swap(rotation_[i], rotation_[rng_.Below(i + 1)]);
  }
  if (flood_) {
    first_flood_id_ = next_flood_id_ = static_cast<uint32_t>(rng_.Below(1u << 20));
    for (size_t i = 0; i < kBurst / 2; ++i) {
      flood_pool_.push_back(MakePupFrame(sockets_[0], kFloodHost, 0));
    }
  }
  const auto& props = pflink::PropertiesFor(pflink::LinkType::kExperimental3Mb);
  frame_ns_ = flows_[0].frame.size() * 8 * 1'000'000'000ull / props.bits_per_sec;
}

const pf::PacketBuf& DemuxRig::NextFloodFrame(size_t slot, pf::PortId* port) {
  pf::PacketBuf& buf = flood_pool_[slot];
  const size_t k = rng_.Below(kPorts);
  // The previous burst's copies were all popped, so the block is unique
  // and this rewrites it in place.
  std::span<uint8_t> bytes = buf.MutableSpan();
  StoreBe32(bytes, kDstSocketOffset, sockets_[k]);
  StoreBe32(bytes, kSrcSocketOffset, next_flood_id_++);
  *port = ports_[k];
  return buf;
}

bool DemuxRig::RunOp(DemuxTrace* trace) {
  bool ok = true;
  uint64_t op_established = 0;
  uint64_t op_conn_hits = 0;
  for (size_t j = 0; j < kBurst; ++j) {
    const pf::PacketBuf* frame = nullptr;
    pf::PortId want = pf::kInvalidPort;
    if (flood_ && (j & 1) != 0) {
      frame = &NextFloodFrame(j / 2, &want);
    } else {
      const Flow& flow = flows_[rotation_[rotation_pos_]];
      rotation_pos_ = rotation_pos_ + 1 == rotation_.size() ? 0 : rotation_pos_ + 1;
      frame = &flow.frame;
      want = flow.port;
      ++op_established;
    }
    now_ns_ += frame_ns_;
    pf::DemuxResult result;
    if (trace == nullptr) {
      result = filter_.Demux(*frame, now_ns_);
    } else {
      const int64_t t0 = WallNs();
      result = filter_.Demux(*frame, now_ns_);
      const int64_t elapsed = WallNs() - t0;
      trace->demux.Add(elapsed);
      if (result.cache_hit || result.conn_hit) {
        trace->demux_hit.Add(elapsed);
      } else {
        trace->demux_miss.Add(elapsed);
      }
      const int64_t t1 = WallNs();
      pfobs::FlowSignature::Of(frame->span());
      trace->flowsig.Add(WallNs() - t1);
    }
    ok = ok && result.deliveries == 1 && result.drops == 0;
    op_conn_hits += result.conn_hit ? 1 : 0;
    tally_.Expect(want);
  }
  if (flood_) {
    while (now_ns_ >= next_gc_ns_) {
      if (trace == nullptr) {
        filter_.conndb()->GcSweep(now_ns_);
      } else {
        const int64_t t0 = WallNs();
        filter_.conndb()->GcSweep(now_ns_);
        trace->gc.Add(WallNs() - t0);
      }
      next_gc_ns_ += kGcIntervalNs;
    }
  }
  // Drain: copy the list, since Delivered() may append to it.
  const std::vector<pf::PortId> reached = tally_.touched();
  for (const pf::PortId port : reached) {
    std::vector<pf::ReceivedPacket> batch;
    if (trace == nullptr) {
      batch = filter_.PopBatch(port);
    } else {
      const int64_t t0 = WallNs();
      batch = filter_.PopBatch(port);
      trace->drain.Add(WallNs() - t0, batch.size());
    }
    for (const pf::ReceivedPacket& packet : batch) {
      std::optional<uint32_t> socket;
      if (trace == nullptr) {
        socket = PupDstSocket(packet.bytes.span());
      } else {
        const int64_t t0 = WallNs();
        socket = PupDstSocket(packet.bytes.span());
        trace->parse.Add(WallNs() - t0);
      }
      ok = ok && routes_.Routed(port, socket) && packet.dropped_before == 0;
      tally_.Delivered(port);
    }
  }
  ok = tally_.Settle() && ok;
  if (flood_) {
    const pf::ConnDB* db = filter_.conndb();
    ok = ok && ConnIdentityHolds(db->stats(), db->live()) && op_conn_hits <= op_established;
  }
  established_frames_ += op_established;
  conn_hits_ += op_conn_hits;
  return ok;
}

// Exact structural counts at an operation boundary.
struct DemuxCounts {
  uint64_t packets = 0;
  uint64_t work = 0;  // insns + tree probes + index probes
  uint64_t created = 0;
  uint64_t evicted = 0;

  static DemuxCounts Of(const pf::PacketFilter& filter) {
    DemuxCounts c;
    const pf::FilterGlobalStats& g = filter.global_stats();
    c.packets = g.packets_in;
    c.work = g.exec.insns_executed + g.exec.tree_probes + g.exec.index_probes;
    if (const pf::ConnDB* db = filter.conndb()) {
      c.created = db->stats().created;
      c.evicted = db->stats().evicted();
    }
    return c;
  }
};

// Warm-up operations in every set-up: brings the verdict cache, the
// conndb (full, cycling its watermarks) and the engine's index to steady
// state, and makes set-up long enough to time repeatably.
int WarmOps(bool flood) { return flood ? 1500 : 6000; }

// A rig built and warmed up; null if a warm-up operation failed a check.
std::unique_ptr<DemuxRig> SetUp(uint64_t seed, bool flood) {
  auto rig = std::make_unique<DemuxRig>(seed, flood);
  for (int i = 0; i < WarmOps(flood); ++i) {
    if (!rig->RunOp(nullptr)) {
      return nullptr;
    }
  }
  return rig;
}

}  // namespace

RunResult RunDemuxWorkload(const Options& options, bool flood) {
  RunResult result;
  std::unique_ptr<DemuxRig> rig = SetUp(options.seed, flood);
  if (rig == nullptr) {
    result.correct = false;
    result.notes.push_back("a warm-up operation failed its output checks");
    return result;
  }

  DemuxTrace trace;
  DemuxTrace* tracer = options.trace ? &trace : nullptr;
  const uint64_t flood_before = rig->flood_flows();
  const uint64_t gc_before = flood ? rig->filter().conndb()->stats().gc_sweeps : 0;
  const DemuxCounts start = DemuxCounts::Of(rig->filter());
  DemuxCounts window_end;
  const uint64_t allocs_before = AllocCount();
  const int64_t cpu_before = CpuNs();
  const int64_t wall_before = WallNs();
  const int64_t deadline = wall_before + static_cast<int64_t>(options.seconds) * 1'000'000'000;
  SegmentMeter meter;
  meter.Start(wall_before, start.packets);
  SetUpSchedule setups(wall_before, deadline - wall_before);
  int64_t paused_wall_ns = 0;
  int64_t paused_cpu_ns = 0;
  int64_t t0 = wall_before;
  for (;;) {
    if (result.attempted == kWindowOps) {
      window_end = DemuxCounts::Of(rig->filter());
    }
    if (result.attempted >= kWindowOps && t0 >= deadline) {
      break;
    }
    const bool ok = rig->RunOp(tracer);
    int64_t t1 = WallNs();
    ++result.attempted;
    result.failed += ok ? 0 : 1;
    meter.Tick(t1 - t0, t1, rig->filter().global_stats().packets_in);
    if (!options.trace && setups.Due(t1)) {
      const int64_t cpu_pause = CpuNs();
      std::unique_ptr<DemuxRig> fresh = SetUp(options.seed, flood);
      setups.Record(static_cast<double>(WallNs() - t1) / 1e9);
      if (fresh == nullptr) {
        result.correct = false;
        result.notes.push_back("a warm-up operation failed its output checks");
      }
      fresh.reset();
      const int64_t resume = WallNs();
      paused_wall_ns += resume - t1;
      paused_cpu_ns += CpuNs() - cpu_pause;
      meter.Start(resume, rig->filter().global_stats().packets_in);
      t1 = resume;
    }
    t0 = t1;
  }
  const int64_t wall_ns = t0 - wall_before - paused_wall_ns;
  const int64_t cpu_ns = CpuNs() - cpu_before - paused_cpu_ns;
  const uint64_t allocs = AllocCount() - allocs_before;
  const DemuxCounts end = DemuxCounts::Of(rig->filter());
  const uint64_t packets = end.packets - start.packets;

  // End-of-run checks over every port.
  for (const pf::PortId port : rig->ports()) {
    const pf::PortStats* st = rig->filter().Stats(port);
    if (st == nullptr || st->accepts != st->enqueued + st->dropped || st->dropped != 0 ||
        rig->filter().QueueLength(port) != 0) {
      result.correct = false;
      result.notes.push_back("port " + std::to_string(port) +
                             ": accepts != enqueued + dropped, or drops");
      break;
    }
  }
  if (flood && rig->conn_hits() > rig->established_frames()) {
    result.correct = false;
    result.notes.push_back("conn hits exceed established-flow frames");
  }
  result.correct = result.correct && result.failed == 0;

  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %llu ops of %zu frames, %llu frames in %.3f s (%.0f /s, %.1f cpu ns each), "
                "sustained op p99 %.2f us, %zu segments",
                options.workload.c_str(), (unsigned long long)result.attempted, kBurst,
                (unsigned long long)packets, static_cast<double>(wall_ns) / 1e9,
                Ratio(static_cast<double>(packets) * 1e9, static_cast<double>(wall_ns)),
                Ratio(static_cast<double>(cpu_ns), static_cast<double>(packets)),
                meter.SustainedLatencyUs(0.99), meter.segments());
  result.notes.push_back(line);
  if (flood) {
    std::snprintf(line, sizeof(line),
                  "conn_flood: %llu flood flows = %.0fx conndb capacity; conn hits %llu of "
                  "%llu established frames",
                  (unsigned long long)(rig->flood_flows() - flood_before),
                  Ratio(static_cast<double>(rig->flood_flows() - flood_before),
                        static_cast<double>(rig->filter().conndb()->capacity())),
                  (unsigned long long)rig->conn_hits(),
                  (unsigned long long)rig->established_frames());
    result.notes.push_back(line);
  }

  if (!options.trace) {
    AddEndToEnd(meter, setups.MedianSeconds(), &result);
    return result;
  }

  std::snprintf(line, sizeof(line), "traced pkts_per_s %.0f (tracing on)",
                Ratio(static_cast<double>(packets) * 1e9, static_cast<double>(wall_ns)));
  result.notes.push_back(line);
  const double window_pkts = static_cast<double>(window_end.packets - start.packets);
  const uint64_t sweeps =
      flood ? rig->filter().conndb()->stats().gc_sweeps - gc_before : 0;
  LayerMetrics layers;
  layers.pf_demux_ns_per_pkt = trace.demux.NsPerItem();
  layers.pf_demux_hit_ns = trace.demux_hit.NsPerItem();
  layers.pf_demux_miss_ns = trace.demux_miss.NsPerItem();
  layers.pf_fastpath_hit_ratio =
      Ratio(static_cast<double>(trace.demux_hit.items), static_cast<double>(trace.demux.items));
  layers.pf_work_per_pkt =
      Ratio(static_cast<double>(window_end.work - start.work), window_pkts);
  layers.pf_drain_ns_per_pkt = trace.drain.NsPerItem();
  layers.pf_conn_created_per_pkt =
      Ratio(static_cast<double>(window_end.created - start.created), window_pkts);
  layers.pf_conn_evicted_per_pkt =
      Ratio(static_cast<double>(window_end.evicted - start.evicted), window_pkts);
  layers.pf_conn_gc_us_per_sweep = trace.gc.NsPerItem() / 1e3;
  layers.proto_parse_ns_per_pkt = trace.parse.NsPerItem();
  layers.obs_flowsig_ns_per_pkt = trace.flowsig.NsPerItem();
  layers.host_allocs_per_pkt =
      Ratio(static_cast<double>(allocs), static_cast<double>(packets));
  if (flood && sweeps != trace.gc.items) {
    result.correct = false;
    result.notes.push_back("GC sweeps counted by the conndb differ from sweeps issued");
  }
  AddLayers(layers, &result);
  return result;
}

}  // namespace hostbench
