// Shared infrastructure for the table/figure reproduction benchmarks.
//
// Each bench binary regenerates one table or figure from the paper's §6,
// printing the paper's reported value next to the value measured on the
// simulated MicroVAX-II (see src/kernel/cost_model.h for the calibration).
// EXPERIMENTS.md records and discusses the outputs.
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel_ip.h"
#include "src/kernel/kernel_tcp.h"
#include "src/kernel/kernel_vmtp.h"
#include "src/kernel/machine.h"
#include "src/kernel/pf_device.h"
#include "src/link/segment.h"
#include "src/sim/simulator.h"

namespace pfbench {

// --- Bench registration (the performance observatory, DESIGN.md §14) ---
//
// Every table/figure/micro bench exposes its entry point through
// PFBENCH_MAIN(id, fn): built standalone (the default) the macro emits a
// main() shim, built with -DPFBENCH_COMBINED (the bench/pfbench runner,
// which compiles every bench source into one binary) it only registers the
// bench so the runner can sweep them all in a single process. `id` is the
// bench's stable identity in BENCH_<sha>.json and bench/baselines/.

using BenchMainFn = int (*)(int argc, char** argv);

struct BenchEntry {
  std::string id;
  BenchMainFn fn;
};

// Returns an arbitrary int so the macro can run it at static-init time.
int RegisterBench(const char* id, BenchMainFn fn);

// Every registered bench, sorted by id (static-init order is not stable
// across link orders; the sort is what makes sweep output deterministic).
std::vector<BenchEntry> RegisteredBenches();

#ifdef PFBENCH_COMBINED
#define PFBENCH_MAIN(id, fn)                                                         \
  namespace {                                                                        \
  [[maybe_unused]] const int pfbench_registered = ::pfbench::RegisterBench(id, fn);  \
  }
#else
#define PFBENCH_MAIN(id, fn)                                                         \
  namespace {                                                                        \
  [[maybe_unused]] const int pfbench_registered = ::pfbench::RegisterBench(id, fn);  \
  }                                                                                  \
  int main(int argc, char** argv) { return fn(argc, argv); }
#endif

// Build identity, for the JSON exports: the values of the PF_GIT_SHA /
// PF_BUILD_TYPE / PF_SANITIZERS compile definitions (CMake provides them;
// a PF_GIT_SHA environment variable overrides the baked-in sha so CI can
// stamp artifacts with the exact commit even on stale configures).
std::string BuildGitSha();
std::string BuildTypeName();
std::string SanitizerFlags();
// Host wall-clock gates only mean something on an optimized, sanitizer-free
// build (Release family); under -O0 or ASan/UBSan they measure the build.
bool HostGatesArmed(const std::string& build_type, const std::string& sanitizers);
inline bool HostGatesArmed() { return HostGatesArmed(BuildTypeName(), SanitizerFlags()); }

// --- Output formatting ---

struct Row {
  std::string label;
  double paper;     // the value the paper reports (NaN if not reported)
  double measured;  // our simulated/measured value
};

// Prints a header (title + paper citation) and rows with a paper/measured
// ratio column.
//
// When the environment variable PF_BENCH_JSON names a directory, every call
// also appends its rows to `<dir>/BENCH_<binary>.json` (written atomically at
// process exit): an array of {"table","unit","label","paper","measured",
// "ratio"} objects, `paper`/`ratio` null where the paper reports nothing.
void PrintTable(const std::string& title, const std::string& citation,
                const std::string& unit, const std::vector<Row>& rows);

// A free-form note under a table.
void PrintNote(const std::string& note);

// Records a named pass/fail gate outcome (the `--check` style gates). The
// outcome is printed, folded into the PF_BENCH_JSON export's meta block,
// and — inside a pfbench sweep — captured into the bench's entry in
// BENCH_<sha>.json.
void ReportCheck(const std::string& name, bool passed);

// --- In-process capture (the pfbench runner) ---
//
// While a capture is active, PrintTable also appends its rows to the
// capture, CaptureMachine folds a machine's cost ledger and metric counters
// into it, and ReportCheck records gate outcomes. The runner brackets each
// bench's entry point with Begin/EndCapture; standalone bench binaries
// never activate it, so the hooks cost one branch.

struct CapturedTable {
  std::string title;
  std::string unit;
  std::vector<Row> rows;
};

struct CheckOutcome {
  std::string name;
  bool passed = false;
};

struct BenchCapture {
  std::vector<CapturedTable> tables;
  std::vector<CheckOutcome> checks;
  // Cost-ledger totals summed over every captured machine:
  // "<slug>.total_ns" and "<slug>.charges" per category with any charges,
  // plus "grand_total_ns".
  std::map<std::string, double> ledger;
  // Metric counters summed by name over every captured machine.
  std::map<std::string, double> metrics;
};

void BeginCapture();
BenchCapture EndCapture();
bool CaptureActive();

// Folds `machine`'s ledger and metric counters into the active capture
// (no-op when none). Duo's destructor calls this for both machines; benches
// that build machines directly (bench/recv_common.h) call it explicitly.
void CaptureMachine(pfkern::Machine& machine);

// --- Canonical two-machine scenario ---

// Two machines ("client" and "server") on one segment, with optional kernel
// IP stacks and neighbor entries pre-wired. The paper's measurements all use
// identical machines at both ends (§6.3).
class Duo {
 public:
  explicit Duo(pflink::LinkType link_type,
               pfkern::CostModel costs = pfkern::MicroVaxUltrixCosts());
  // Feeds both machines to CaptureMachine when a pfbench capture is active.
  ~Duo();

  pfsim::Simulator& sim() { return sim_; }
  pflink::EthernetSegment& segment() { return segment_; }
  pfkern::Machine& client() { return *client_; }
  pfkern::Machine& server() { return *server_; }

  // Lazily adds kernel IP stacks (10.0.0.1 client, 10.0.0.2 server) with
  // neighbor entries both ways.
  void AddIpStacks();
  pfkern::KernelIpStack& client_ip() { return *client_ip_; }
  pfkern::KernelIpStack& server_ip() { return *server_ip_; }
  uint32_t client_ip_addr() const;
  uint32_t server_ip_addr() const;

 private:
  pfsim::Simulator sim_;
  pflink::EthernetSegment segment_;
  std::unique_ptr<pfkern::Machine> client_;
  std::unique_ptr<pfkern::Machine> server_;
  std::unique_ptr<pfkern::KernelIpStack> client_ip_;
  std::unique_ptr<pfkern::KernelIpStack> server_ip_;
};

// Milliseconds between two simulated time points.
double ElapsedMs(pfsim::TimePoint start, pfsim::TimePoint end);

// KBytes/sec for `bytes` transferred over [start, end].
double RateKBps(size_t bytes, pfsim::TimePoint start, pfsim::TimePoint end);

// True if `flag` (e.g. "--zerocopy") appears among the arguments.
bool HasFlag(int argc, char** argv, const char* flag);

// --- Shared receive loops ---
//
// Hoisted from the per-table measurement headers (recv_common.h,
// stream_common.h, vmtp_common.h), which each grew their own copy of the
// same drain-until-done logic.

// Drains `total` packets by repeatedly awaiting `read_once` (a callable
// returning ValueTask<size_t>: packets obtained by one read). Stops early
// when a read times out empty. Returns the count actually consumed.
template <typename ReadOnce>
pfsim::ValueTask<int> DrainPackets(int total, ReadOnce read_once) {
  int consumed = 0;
  while (consumed < total) {
    const size_t got = co_await read_once();
    if (got == 0) {
      break;  // stalled; report what we have
    }
    consumed += static_cast<int>(got);
  }
  co_return consumed;
}

// Receives until `total` bytes or EOF from anything with
// `Recv(pid, max, timeout) -> vector<uint8_t>` and `eof()` (TcpConnection,
// BspStream). `on_chunk`, when set, is awaited after every nonempty chunk —
// display-rate charging (table 6-7) or application think time (fig. 2-3).
// Returns the bytes received.
template <typename Stream>
pfsim::ValueTask<size_t> DrainStream(
    Stream* stream, int pid, size_t total, size_t recv_chunk, pfsim::Duration timeout,
    std::function<pfsim::ValueTask<void>(size_t)> on_chunk = nullptr) {
  size_t received = 0;
  while (received < total && !stream->eof()) {
    const auto chunk = co_await stream->Recv(pid, recv_chunk, timeout);
    if (chunk.empty() && !stream->eof()) {
      break;
    }
    received += chunk.size();
    if (on_chunk && !chunk.empty()) {
      co_await on_chunk(chunk.size());
    }
  }
  co_return received;
}

// The §6.3 file-server loop: 'R' requests are answered with a cached
// `segment_bytes` segment, everything else with zero bytes. `receive` and
// `respond` adapt the transport (user-level or kernel VMTP): receive() ->
// ValueTask<optional<Request>>, respond(Request&, vector<uint8_t>).
template <typename ReceiveFn, typename RespondFn>
pfsim::Task FileServerLoop(size_t segment_bytes, ReceiveFn receive, RespondFn respond) {
  const std::vector<uint8_t> segment(segment_bytes, 0x6f);
  for (;;) {
    auto request = co_await receive();
    if (!request.has_value()) {
      co_return;  // measurement over
    }
    std::vector<uint8_t> response;
    if (!request->data.empty() && request->data[0] == 'R') {
      response = segment;
    }
    co_await respond(*request, std::move(response));
  }
}

}  // namespace pfbench

#endif  // BENCH_HARNESS_H_
