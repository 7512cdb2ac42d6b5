#include "src/kernel/ledger.h"

#include <cstdio>

namespace pfkern {

std::string ToString(Cost category) {
  switch (category) {
    case Cost::kContextSwitch:
      return "context switch";
    case Cost::kSyscall:
      return "syscall crossing";
    case Cost::kCopy:
      return "kernel<->user copy";
    case Cost::kInterrupt:
      return "interrupt+driver in";
    case Cost::kFilterEval:
      return "filter evaluation";
    case Cost::kPfBookkeeping:
      return "pf bookkeeping";
    case Cost::kTimestamp:
      return "timestamping";
    case Cost::kIpInput:
      return "ip input";
    case Cost::kTransportInput:
      return "transport input";
    case Cost::kIpOutput:
      return "ip output";
    case Cost::kTransportOutput:
      return "transport output";
    case Cost::kChecksum:
      return "checksumming";
    case Cost::kDriverSend:
      return "driver send";
    case Cost::kPipe:
      return "pipe transfer";
    case Cost::kProtocolUser:
      return "user protocol code";
    case Cost::kProtocolKernel:
      return "kernel protocol code";
    case Cost::kDisplay:
      return "character display";
    case Cost::kIndexProbe:
      return "index probe";
    case Cost::kRingPost:
      return "ring post";
    case Cost::kRingReap:
      return "ring reap";
    case Cost::kPollLoop:
      return "poll loop";
    case Cost::kConnDb:
      return "conndb lookup";
    case Cost::kConnGc:
      return "conndb gc sweep";
    case Cost::kCount:
      break;
  }
  return "?";
}

std::string ToSlug(Cost category) {
  switch (category) {
    case Cost::kContextSwitch:
      return "context_switch";
    case Cost::kSyscall:
      return "syscall";
    case Cost::kCopy:
      return "copy";
    case Cost::kInterrupt:
      return "interrupt";
    case Cost::kFilterEval:
      return "filter_eval";
    case Cost::kPfBookkeeping:
      return "pf_bookkeeping";
    case Cost::kTimestamp:
      return "timestamp";
    case Cost::kIpInput:
      return "ip_input";
    case Cost::kTransportInput:
      return "transport_input";
    case Cost::kIpOutput:
      return "ip_output";
    case Cost::kTransportOutput:
      return "transport_output";
    case Cost::kChecksum:
      return "checksum";
    case Cost::kDriverSend:
      return "driver_send";
    case Cost::kPipe:
      return "pipe";
    case Cost::kProtocolUser:
      return "protocol_user";
    case Cost::kProtocolKernel:
      return "protocol_kernel";
    case Cost::kDisplay:
      return "display";
    case Cost::kIndexProbe:
      return "index_probe";
    case Cost::kRingPost:
      return "ring_post";
    case Cost::kRingReap:
      return "ring_reap";
    case Cost::kPollLoop:
      return "poll_loop";
    case Cost::kConnDb:
      return "conn_db";
    case Cost::kConnGc:
      return "conn_gc";
    case Cost::kCount:
      break;
  }
  return "?";
}

void Ledger::ExportTo(pfobs::MetricsRegistry* registry, const std::string& prefix) const {
  for (size_t i = 0; i < static_cast<size_t>(Cost::kCount); ++i) {
    const auto category = static_cast<Cost>(i);
    if (count(category) == 0) {
      continue;
    }
    const std::string base = prefix + "." + ToSlug(category);
    registry->gauge(base + ".total_ns")->Set(total(category).count());
    registry->gauge(base + ".charges")->Set(static_cast<int64_t>(count(category)));
  }
  registry->gauge(prefix + ".grand_total_ns")->Set(grand_total().count());
}

std::string Ledger::Format() const {
  std::string out;
  char line[128];
  for (size_t i = 0; i < static_cast<size_t>(Cost::kCount); ++i) {
    const auto category = static_cast<Cost>(i);
    if (count(category) == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line), "  %-22s %10.3f ms  (%llu charges)\n",
                  ToString(category).c_str(), pfsim::ToMilliseconds(total(category)),
                  static_cast<unsigned long long>(count(category)));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-22s %10.3f ms\n", "TOTAL",
                pfsim::ToMilliseconds(grand_total()));
  out += line;
  return out;
}

}  // namespace pfkern
