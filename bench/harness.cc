#include "bench/harness.h"

#include <errno.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/proto/ip.h"
#include "src/util/json.h"

// Build identity fallbacks: CMake defines these on pfbench_harness; keep the
// file compilable without them (e.g. external inclusion).
#ifndef PF_GIT_SHA
#define PF_GIT_SHA "unknown"
#endif
#ifndef PF_BUILD_TYPE
#define PF_BUILD_TYPE "unknown"
#endif
#ifndef PF_SANITIZERS
#define PF_SANITIZERS ""
#endif

namespace pfbench {

namespace {

using pfutil::JsonEscape;
using pfutil::JsonNumber;

std::vector<BenchEntry>* registered_benches = nullptr;

// Rows accumulated by PrintTable for the PF_BENCH_JSON export, flushed once
// at process exit so each binary produces one complete file however many
// tables it prints.
std::string* json_rows = nullptr;

// Gate outcomes (ReportCheck), for the export's meta block.
std::vector<CheckOutcome>* json_checks = nullptr;

// The active pfbench capture, if any.
BenchCapture* active_capture = nullptr;

std::string ChecksJson(const std::vector<CheckOutcome>& checks) {
  std::string out = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "{\"name\":\"" + JsonEscape(checks[i].name) +
           "\",\"passed\":" + (checks[i].passed ? "true" : "false") + "}";
  }
  return out + "]";
}

void FlushBenchJson() {
  const char* dir = std::getenv("PF_BENCH_JSON");
  if (dir == nullptr || (json_rows == nullptr && json_checks == nullptr)) {
    return;
  }
  // program_invocation_short_name is the binary's basename (glibc).
  const std::string path =
      std::string(dir) + "/BENCH_" + program_invocation_short_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "PF_BENCH_JSON: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  // Meta block (who produced these rows, under what build, and whether the
  // binary's --check style gates passed), then the rows themselves.
  std::fprintf(f,
               "{\"meta\":{\"schema\":\"pfbench-rows-2\",\"binary\":\"%s\","
               "\"git_sha\":\"%s\",\"build_type\":\"%s\",\"sanitizers\":\"%s\","
               "\"checks\":%s},\n\"rows\":[\n%s\n]}\n",
               JsonEscape(program_invocation_short_name).c_str(),
               JsonEscape(BuildGitSha()).c_str(), JsonEscape(BuildTypeName()).c_str(),
               JsonEscape(SanitizerFlags()).c_str(),
               ChecksJson(json_checks != nullptr ? *json_checks : std::vector<CheckOutcome>{})
                   .c_str(),
               json_rows != nullptr ? json_rows->c_str() : "");
  std::fclose(f);
}

void EnsureFlushRegistered() {
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(FlushBenchJson);
  }
}

void AppendJsonRows(const std::string& title, const std::string& unit,
                    const std::vector<Row>& rows) {
  if (std::getenv("PF_BENCH_JSON") == nullptr) {
    return;
  }
  if (json_rows == nullptr) {
    json_rows = new std::string;  // leaked intentionally: read by atexit
    EnsureFlushRegistered();
  }
  for (const Row& row : rows) {
    if (!json_rows->empty()) {
      *json_rows += ",\n";
    }
    *json_rows += "  {\"table\":\"" + JsonEscape(title) + "\",\"unit\":\"" + JsonEscape(unit) +
                  "\",\"label\":\"" + JsonEscape(row.label) + "\",";
    if (std::isnan(row.paper)) {
      *json_rows += "\"paper\":null,\"measured\":" + JsonNumber(row.measured) + ",\"ratio\":null}";
    } else {
      *json_rows += "\"paper\":" + JsonNumber(row.paper) +
                    ",\"measured\":" + JsonNumber(row.measured) +
                    ",\"ratio\":" + JsonNumber(row.measured / row.paper) + "}";
    }
  }
}

}  // namespace

int RegisterBench(const char* id, BenchMainFn fn) {
  if (registered_benches == nullptr) {
    registered_benches = new std::vector<BenchEntry>;  // static-init order safe
  }
  registered_benches->push_back({id, fn});
  return static_cast<int>(registered_benches->size());
}

std::vector<BenchEntry> RegisteredBenches() {
  std::vector<BenchEntry> benches =
      registered_benches != nullptr ? *registered_benches : std::vector<BenchEntry>{};
  std::sort(benches.begin(), benches.end(),
            [](const BenchEntry& a, const BenchEntry& b) { return a.id < b.id; });
  return benches;
}

std::string BuildGitSha() {
  const char* env = std::getenv("PF_GIT_SHA");
  return env != nullptr && env[0] != '\0' ? env : PF_GIT_SHA;
}

std::string BuildTypeName() { return PF_BUILD_TYPE; }

std::string SanitizerFlags() { return PF_SANITIZERS; }

bool HostGatesArmed(const std::string& build_type, const std::string& sanitizers) {
  return sanitizers.empty() && (build_type == "Release" || build_type == "RelWithDebInfo" ||
                                build_type == "MinSizeRel");
}

void ReportCheck(const std::string& name, bool passed) {
  std::printf("    gate %-40s [%s]\n", name.c_str(), passed ? "pass" : "FAIL");
  if (json_checks == nullptr) {
    json_checks = new std::vector<CheckOutcome>;  // leaked intentionally: read by atexit
    EnsureFlushRegistered();
  }
  json_checks->push_back({name, passed});
  if (active_capture != nullptr) {
    active_capture->checks.push_back({name, passed});
  }
}

void BeginCapture() {
  delete active_capture;
  active_capture = new BenchCapture;
}

BenchCapture EndCapture() {
  BenchCapture result;
  if (active_capture != nullptr) {
    result = std::move(*active_capture);
    delete active_capture;
    active_capture = nullptr;
  }
  return result;
}

bool CaptureActive() { return active_capture != nullptr; }

void CaptureMachine(pfkern::Machine& machine) {
  if (active_capture == nullptr) {
    return;
  }
  const pfkern::Ledger& ledger = machine.ledger();
  for (size_t i = 0; i < static_cast<size_t>(pfkern::Cost::kCount); ++i) {
    const auto category = static_cast<pfkern::Cost>(i);
    if (ledger.count(category) == 0) {
      continue;
    }
    const std::string slug = pfkern::ToSlug(category);
    active_capture->ledger[slug + ".total_ns"] +=
        static_cast<double>(ledger.total(category).count());
    active_capture->ledger[slug + ".charges"] += static_cast<double>(ledger.count(category));
  }
  active_capture->ledger["grand_total_ns"] +=
      static_cast<double>(ledger.grand_total().count());
  for (const auto& [name, counter] : machine.metrics().counters()) {
    if (counter.value() == 0) {
      continue;
    }
    active_capture->metrics[name] += static_cast<double>(counter.value());
  }
}

void PrintTable(const std::string& title, const std::string& citation,
                const std::string& unit, const std::vector<Row>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("    (%s)\n", citation.c_str());
  std::printf("    %-44s %12s %12s %8s\n", "configuration", ("paper " + unit).c_str(),
              ("ours " + unit).c_str(), "ratio");
  for (const Row& row : rows) {
    if (std::isnan(row.paper)) {
      std::printf("    %-44s %12s %12.2f %8s\n", row.label.c_str(), "-", row.measured, "-");
    } else {
      std::printf("    %-44s %12.2f %12.2f %7.2fx\n", row.label.c_str(), row.paper,
                  row.measured, row.measured / row.paper);
    }
  }
  AppendJsonRows(title, unit, rows);
  if (active_capture != nullptr) {
    active_capture->tables.push_back({title, unit, rows});
  }
}

void PrintNote(const std::string& note) { std::printf("    note: %s\n", note.c_str()); }

Duo::Duo(pflink::LinkType link_type, pfkern::CostModel costs)
    : segment_(&sim_, link_type) {
  const bool experimental = link_type == pflink::LinkType::kExperimental3Mb;
  const pflink::MacAddr client_mac =
      experimental ? pflink::MacAddr::Experimental(1) : pflink::MacAddr::Dix(8, 0, 0, 0, 0, 1);
  const pflink::MacAddr server_mac =
      experimental ? pflink::MacAddr::Experimental(2) : pflink::MacAddr::Dix(8, 0, 0, 0, 0, 2);
  client_ = std::make_unique<pfkern::Machine>(&sim_, &segment_, client_mac, costs, "client");
  server_ = std::make_unique<pfkern::Machine>(&sim_, &segment_, server_mac, costs, "server");
}

Duo::~Duo() {
  if (CaptureActive()) {
    CaptureMachine(*client_);
    CaptureMachine(*server_);
  }
}

uint32_t Duo::client_ip_addr() const { return pfproto::MakeIpv4(10, 0, 0, 1); }
uint32_t Duo::server_ip_addr() const { return pfproto::MakeIpv4(10, 0, 0, 2); }

void Duo::AddIpStacks() {
  client_ip_ = std::make_unique<pfkern::KernelIpStack>(client_.get(), client_ip_addr());
  server_ip_ = std::make_unique<pfkern::KernelIpStack>(server_.get(), server_ip_addr());
  client_->AddNeighbor(server_ip_addr(), server_->link_addr());
  server_->AddNeighbor(client_ip_addr(), client_->link_addr());
}

double ElapsedMs(pfsim::TimePoint start, pfsim::TimePoint end) {
  return pfsim::ToMilliseconds(end - start);
}

double RateKBps(size_t bytes, pfsim::TimePoint start, pfsim::TimePoint end) {
  const double seconds = pfsim::ToSeconds(end - start);
  return seconds > 0 ? static_cast<double>(bytes) / 1024.0 / seconds : 0.0;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace pfbench
