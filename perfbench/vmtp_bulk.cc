// vmtp_bulk: the paper's table 6-3 bulk transfer through the full simulated
// stack. Two machines on a clean 10 Mb/s Ethernet; a user-level VMTP
// client reads 16 KB segments from a user-level file server over packet-
// filter ports, with read batching on, legacy read() delivery and the
// kernel's default filter strategy. One operation is one transaction; the
// client regenerates the seeded segment on its own and compares.
//
// The layers call each other inside the simulator, so the traced run
// records every frame on the segment through a promiscuous station and,
// after each transaction, replays those frames through each layer's public
// entry point, timing each call.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/common.h"
#include "src/kernel/cost_model.h"
#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/link/frame.h"
#include "src/link/segment.h"
#include "src/net/vmtp.h"
#include "src/obs/flow_stats.h"
#include "src/pf/demux.h"
#include "src/proto/vmtp.h"
#include "src/sim/simulator.h"

namespace hostbench {
namespace {

constexpr uint32_t kServerId = 0x5eef;
constexpr uint32_t kClientId = 0xc11e;
// Warm-up transactions in every set-up: bring the RTO estimator, the
// PacketBuf arena and every cache to steady state.
constexpr int kWarmTransactions = 400;
// Exact per-layer counts are taken over the first kWindowOps transactions.
constexpr uint64_t kWindowOps = 256;

class FrameRecorder : public pflink::Station {
 public:
  void OnFrameDelivered(const pflink::Frame& frame, pfsim::TimePoint) override {
    frames.push_back(frame);
  }
  pflink::MacAddr link_addr() const override { return pflink::MacAddr::Dix(8, 0, 0, 0, 0, 0x7e); }
  bool promiscuous() const override { return true; }

  std::vector<pflink::Frame> frames;
};

// Exact simulated and structural counts at a transaction boundary.
struct VmtpCounts {
  uint64_t events = 0;
  uint64_t frames = 0;   // carried on the segment
  uint64_t packets = 0;  // demultiplexed, both machines
  uint64_t work = 0;     // filter insns + tree probes + index probes
  int64_t sim_ns = 0;    // ledger grand totals, both machines
  uint64_t switches = 0;
  uint64_t syscalls = 0;
  uint64_t copies = 0;
};

struct VmtpTrace {
  Span fcs;
  Span demux;
  Span demux_hit;
  Span demux_miss;
  Span drain;
  Span parse;
  Span flowsig;
  int64_t op_ns = 0;  // host time inside transactions (replay excluded)
  uint64_t replay_errors = 0;
};

// What one rig's drive coroutine did.
struct Phase {
  const Options* options = nullptr;
  bool timed = false;
  bool setup_ok = true;
  int64_t setup_end_ns = 0;
  VmtpTrace* trace = nullptr;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t allocs = 0;
  double setup_s = 0;  // median of the set-ups timed during the phase
  SegmentMeter meter;
  VmtpCounts start;
  VmtpCounts window_end;
  VmtpCounts end;
};

class VmtpRig {
 public:
  VmtpRig(uint64_t seed, bool record)
      : seed_(seed), segment_(&sim_, pflink::LinkType::kEthernet10Mb) {
    client_ = std::make_unique<pfkern::Machine>(&sim_, &segment_,
                                                pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1),
                                                pfkern::MicroVaxUltrixCosts(), "client");
    server_ = std::make_unique<pfkern::Machine>(&sim_, &segment_,
                                                pflink::MacAddr::Dix(8, 0, 0, 0, 0, 2),
                                                pfkern::MicroVaxUltrixCosts(), "server");
    if (record) {
      recorder_ = std::make_unique<FrameRecorder>();
      segment_.Attach(recorder_.get());
      replay_client_port_ = replay_.OpenPort();
      replay_.SetFilter(replay_client_port_, pfnet::MakeVmtpClientFilter(kClientId, 12));
      replay_server_port_ = replay_.OpenPort();
      replay_.SetFilter(replay_server_port_, pfnet::MakeVmtpServerFilter(kServerId, 12));
    }
  }
  ~VmtpRig() {
    if (recorder_ != nullptr) {
      segment_.Detach(recorder_.get());
    }
  }

  // Set-up, then (when phase->timed) the timed phase, run to quiescence.
  void Run(Phase* phase) {
    sim_.Spawn(Drive(phase));
    sim_.Run();
  }

  VmtpCounts Counts() {
    VmtpCounts c;
    c.events = sim_.events_executed();
    c.frames = segment_.stats().frames_carried;
    for (pfkern::Machine* m : {client_.get(), server_.get()}) {
      const pf::FilterGlobalStats& g = m->pf().core().global_stats();
      c.packets += g.packets_in;
      c.work += g.exec.insns_executed + g.exec.tree_probes + g.exec.index_probes;
      c.sim_ns += m->ledger().grand_total().count();
      c.switches += m->ledger().count(pfkern::Cost::kContextSwitch);
      c.syscalls += m->ledger().count(pfkern::Cost::kSyscall);
      c.copies += m->ledger().count(pfkern::Cost::kCopy);
    }
    return c;
  }

  uint64_t retransmits() const {
    return user_client_->stats().retransmits + user_server_->stats().retransmits;
  }

  // Each machine's ledger against the ledger.* metrics it exports, and its
  // grand total against the benchmark's own sum over the categories.
  bool LedgersReconcile() {
    for (pfkern::Machine* m : {client_.get(), server_.get()}) {
      const pfkern::Ledger& ledger = m->ledger();
      ledger.ExportTo(&m->metrics());
      int64_t sum = 0;
      for (size_t i = 0; i < static_cast<size_t>(pfkern::Cost::kCount); ++i) {
        const auto cost = static_cast<pfkern::Cost>(i);
        sum += ledger.total(cost).count();
        if (ledger.count(cost) == 0) {
          continue;
        }
        const std::string base = "ledger." + pfkern::ToSlug(cost);
        const pfobs::Gauge* total = m->metrics().FindGauge(base + ".total_ns");
        const pfobs::Gauge* charges = m->metrics().FindGauge(base + ".charges");
        if (total == nullptr || charges == nullptr || total->value() != ledger.total(cost).count() ||
            charges->value() != static_cast<int64_t>(ledger.count(cost))) {
          return false;
        }
      }
      const pfobs::Gauge* grand = m->metrics().FindGauge("ledger.grand_total_ns");
      if (grand == nullptr || grand->value() != sum || sum != ledger.grand_total().count()) {
        return false;
      }
    }
    return true;
  }

  uint64_t frames_lost() const { return segment_.stats().frames_lost; }

 private:
  pfsim::Task Drive(Phase* phase);
  pfsim::Task Serve();
  pfsim::ValueTask<bool> Transact(int pid);
  void Replay(VmtpTrace* trace);

  uint64_t seed_;
  uint64_t next_seq_ = 0;
  // Declaration order: the simulator outlives everything that schedules on
  // it; protocol objects are destroyed before the machines they use.
  pfsim::Simulator sim_;
  pflink::EthernetSegment segment_;
  std::unique_ptr<pfkern::Machine> client_;
  std::unique_ptr<pfkern::Machine> server_;
  std::unique_ptr<pfnet::UserVmtpServer> user_server_;
  std::unique_ptr<pfnet::UserVmtpClient> user_client_;
  std::unique_ptr<FrameRecorder> recorder_;
  pf::PacketFilter replay_;
  pf::PortId replay_client_port_ = pf::kInvalidPort;
  pf::PortId replay_server_port_ = pf::kInvalidPort;
};

double TimeSetUp(const Options& options);

pfsim::Task VmtpRig::Serve() {
  const int pid = server_->NewPid();
  for (;;) {
    auto request = co_await user_server_->ReceiveRequest(pid, pfsim::Seconds(10));
    if (!request.has_value()) {
      co_return;  // the client is done
    }
    std::vector<uint8_t> response;
    if (request->data.size() == 9 && request->data[0] == 'R') {
      uint64_t seq = 0;
      for (int i = 0; i < 8; ++i) {
        seq |= static_cast<uint64_t>(request->data[1 + i]) << (8 * i);
      }
      response.resize(kSegmentBytes);
      FillSegment(seed_, seq, response);
    }
    co_await user_server_->SendResponse(pid, *request, std::move(response));
  }
}

pfsim::ValueTask<bool> VmtpRig::Transact(int pid) {
  const uint64_t seq = next_seq_++;
  std::vector<uint8_t> request(9);
  request[0] = 'R';
  for (int i = 0; i < 8; ++i) {
    request[1 + i] = static_cast<uint8_t>(seq >> (8 * i));
  }
  auto response = co_await user_client_->Transact(pid, server_->link_addr(), kServerId,
                                                  std::move(request), pfsim::Seconds(5));
  co_return response.has_value() && SegmentMatches(seed_, seq, *response);
}

void VmtpRig::Replay(VmtpTrace* trace) {
  for (const pflink::Frame& frame : recorder_->frames) {
    const int64_t t0 = WallNs();
    const bool intact = frame.FcsIntact();
    const int64_t t1 = WallNs();
    const pf::DemuxResult result = replay_.Demux(frame.bytes);
    const int64_t t2 = WallNs();
    const auto view = pfproto::ParseVmtp(
        pflink::FramePayload(pflink::LinkType::kEthernet10Mb, frame.bytes.span()));
    const int64_t t3 = WallNs();
    pfobs::FlowSignature::Of(frame.bytes.span());
    const int64_t t4 = WallNs();
    trace->fcs.Add(t1 - t0);
    trace->demux.Add(t2 - t1);
    if (result.cache_hit || result.conn_hit) {
      trace->demux_hit.Add(t2 - t1);
    } else {
      trace->demux_miss.Add(t2 - t1);
    }
    trace->parse.Add(t3 - t2);
    trace->flowsig.Add(t4 - t3);
    if (!intact || result.deliveries != 1 || !view.has_value()) {
      ++trace->replay_errors;
    }
  }
  for (const pf::PortId port : {replay_client_port_, replay_server_port_}) {
    const int64_t t0 = WallNs();
    const std::vector<pf::ReceivedPacket> batch = replay_.PopBatch(port);
    trace->drain.Add(WallNs() - t0, batch.size());
  }
  recorder_->frames.clear();
}

pfsim::Task VmtpRig::Drive(Phase* phase) {
  user_server_ = co_await pfnet::UserVmtpServer::Create(server_.get(), server_->NewPid(),
                                                        kServerId, /*batching=*/true);
  sim_.Spawn(Serve());
  const int pid = client_->NewPid();
  user_client_ =
      co_await pfnet::UserVmtpClient::Create(client_.get(), pid, kClientId, /*batching=*/true);
  for (int i = 0; i < kWarmTransactions; ++i) {
    if (!co_await Transact(pid)) {
      phase->setup_ok = false;
      co_return;
    }
  }
  if (recorder_ != nullptr) {
    recorder_->frames.clear();
  }
  phase->setup_end_ns = WallNs();
  if (!phase->timed) {
    co_return;
  }

  VmtpTrace* trace = phase->trace;
  phase->start = Counts();
  const uint64_t allocs_before = AllocCount();
  const int64_t cpu_before = CpuNs();
  const int64_t wall_before = WallNs();
  const int64_t deadline =
      wall_before + static_cast<int64_t>(phase->options->seconds) * 1'000'000'000;
  phase->meter.Start(wall_before, phase->start.packets);
  SetUpSchedule setups(wall_before, deadline - wall_before);
  int64_t paused_wall_ns = 0;
  int64_t paused_cpu_ns = 0;
  int64_t t0 = wall_before;
  for (;;) {
    if (phase->attempted == kWindowOps) {
      phase->window_end = Counts();
    }
    if (phase->attempted >= kWindowOps && t0 >= deadline) {
      break;
    }
    const bool ok = co_await Transact(pid);
    int64_t t1 = WallNs();
    ++phase->attempted;
    phase->failed += ok ? 0 : 1;
    phase->meter.Tick(t1 - t0, t1,
                      client_->pf().core().global_stats().packets_in +
                          server_->pf().core().global_stats().packets_in);
    if (trace != nullptr) {
      trace->op_ns += t1 - t0;
      Replay(trace);
      t1 = WallNs();
    } else if (setups.Due(t1)) {
      // A whole second rig, on its own simulator, set up while this one
      // waits between transactions.
      const int64_t cpu_pause = CpuNs();
      const double seconds = TimeSetUp(*phase->options);
      phase->setup_ok = phase->setup_ok && seconds >= 0;
      setups.Record(seconds);
      const int64_t resume = WallNs();
      paused_wall_ns += resume - t1;
      paused_cpu_ns += CpuNs() - cpu_pause;
      phase->meter.Start(resume, client_->pf().core().global_stats().packets_in +
                                     server_->pf().core().global_stats().packets_in);
      t1 = resume;
    }
    t0 = t1;
  }
  phase->setup_s = setups.MedianSeconds();
  phase->wall_ns = t0 - wall_before - paused_wall_ns;
  phase->cpu_ns = CpuNs() - cpu_before - paused_cpu_ns;
  phase->allocs = AllocCount() - allocs_before;
  phase->end = Counts();
}

// Host seconds to build a rig and warm it up, or -1 if a warm-up
// transaction failed.
double TimeSetUp(const Options& options) {
  Phase phase;
  phase.options = &options;
  const int64_t t0 = WallNs();
  VmtpRig rig(options.seed, /*record=*/false);
  rig.Run(&phase);
  return phase.setup_ok ? static_cast<double>(phase.setup_end_ns - t0) / 1e9 : -1;
}

}  // namespace

RunResult RunVmtpBulk(const Options& options) {
  RunResult result;
  VmtpTrace trace;
  Phase timed;
  timed.options = &options;
  timed.timed = true;
  timed.trace = options.trace ? &trace : nullptr;
  auto rig = std::make_unique<VmtpRig>(options.seed, options.trace);
  rig->Run(&timed);
  if (!timed.setup_ok) {
    result.correct = false;
    result.notes.push_back("vmtp_bulk: a warm-up transaction failed");
    return result;
  }

  result.attempted = timed.attempted;
  result.failed = timed.failed;
  const uint64_t packets = timed.end.packets - timed.start.packets;
  const uint64_t retransmits = rig->retransmits();
  if (retransmits != 0) {
    result.correct = false;
    result.notes.push_back("vmtp_bulk: retransmissions on the clean path: " +
                           std::to_string(retransmits));
  }
  if (rig->frames_lost() != 0) {
    result.correct = false;
    result.notes.push_back("vmtp_bulk: frames lost on the clean segment");
  }
  if (!rig->LedgersReconcile()) {
    result.correct = false;
    result.notes.push_back("vmtp_bulk: a ledger does not reconcile with its ledger.* metrics");
  }
  result.correct = result.correct && result.failed == 0;

  char line[256];
  std::snprintf(line, sizeof(line),
                "vmtp_bulk: %llu transactions of %zu bytes, %llu frames in %.3f s (%.0f /s, "
                "%.1f cpu ns each), sustained op p99 %.2f us, %zu segments",
                (unsigned long long)result.attempted, kSegmentBytes,
                (unsigned long long)packets, static_cast<double>(timed.wall_ns) / 1e9,
                Ratio(static_cast<double>(packets) * 1e9, static_cast<double>(timed.wall_ns)),
                Ratio(static_cast<double>(timed.cpu_ns), static_cast<double>(packets)),
                timed.meter.SustainedLatencyUs(0.99), timed.meter.segments());
  result.notes.push_back(line);

  if (!options.trace) {
    AddEndToEnd(timed.meter, timed.setup_s, &result);
    return result;
  }

  std::snprintf(line, sizeof(line), "traced pkts_per_s %.0f (tracing on, replay included)",
                Ratio(static_cast<double>(packets) * 1e9, static_cast<double>(timed.wall_ns)));
  result.notes.push_back(line);
  if (trace.replay_errors != 0) {
    result.correct = false;
    result.notes.push_back("vmtp_bulk: replayed frames failed FCS, demux or parse");
  }
  const VmtpCounts& a = timed.start;
  const VmtpCounts& w = timed.window_end;
  const double ops = static_cast<double>(kWindowOps);
  const double timed_events = static_cast<double>(timed.end.events - a.events);
  const double ns_per_pkt =
      Ratio(static_cast<double>(trace.op_ns), static_cast<double>(packets));
  LayerMetrics layers;
  layers.sim_events_per_pkt =
      Ratio(static_cast<double>(w.events - a.events), static_cast<double>(w.packets - a.packets));
  layers.sim_ns_per_event = Ratio(static_cast<double>(trace.op_ns), timed_events);
  layers.link_frames_per_op = static_cast<double>(w.frames - a.frames) / ops;
  layers.link_fcs_ns_per_frame = trace.fcs.NsPerItem();
  layers.kernel_sim_ms_per_op = static_cast<double>(w.sim_ns - a.sim_ns) / 1e6 / ops;
  layers.kernel_switches_per_op = static_cast<double>(w.switches - a.switches) / ops;
  layers.kernel_syscalls_per_op = static_cast<double>(w.syscalls - a.syscalls) / ops;
  layers.kernel_copies_per_op = static_cast<double>(w.copies - a.copies) / ops;
  layers.net_retransmits_per_op =
      Ratio(static_cast<double>(retransmits), static_cast<double>(result.attempted));
  layers.proto_parse_ns_per_pkt = trace.parse.NsPerItem();
  layers.pf_demux_ns_per_pkt = trace.demux.NsPerItem();
  layers.pf_demux_hit_ns = trace.demux_hit.NsPerItem();
  layers.pf_demux_miss_ns = trace.demux_miss.NsPerItem();
  layers.pf_fastpath_hit_ratio =
      Ratio(static_cast<double>(trace.demux_hit.items), static_cast<double>(trace.demux.items));
  layers.pf_drain_ns_per_pkt = trace.drain.NsPerItem();
  layers.pf_work_per_pkt =
      Ratio(static_cast<double>(w.work - a.work), static_cast<double>(w.packets - a.packets));
  layers.sim_residual_ns_per_pkt = ns_per_pkt - layers.link_fcs_ns_per_frame -
                                   layers.pf_demux_ns_per_pkt - layers.pf_drain_ns_per_pkt -
                                   layers.proto_parse_ns_per_pkt;
  layers.obs_flowsig_ns_per_pkt = trace.flowsig.NsPerItem();
  layers.host_allocs_per_pkt =
      Ratio(static_cast<double>(timed.allocs), static_cast<double>(packets));
  AddLayers(layers, &result);
  return result;
}

}  // namespace hostbench
