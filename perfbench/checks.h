// Output checks. Each one compares what the program delivered against a
// computation the benchmark makes on its own (its own port table, its own
// segment generator, its own arithmetic over the conndb's counters), and
// SelfTest() shows every check rejecting a deliberately wrong input.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/pf/conndb.h"
#include "src/pf/demux.h"

namespace hostbench {

// --- vmtp_bulk: segment contents ---
inline constexpr size_t kSegmentBytes = 16384;
// Transaction `seq`'s segment under `seed`: every 8-byte word is a
// SplitMix64 output keyed by (seed, seq, word index), so either side can
// regenerate it independently.
void FillSegment(uint64_t seed, uint64_t seq, std::span<uint8_t> out);
// True when `bytes` is exactly transaction `seq`'s kSegmentBytes segment.
bool SegmentMatches(uint64_t seed, uint64_t seq, std::span<const uint8_t> bytes);

// --- demux workloads: frames and routing ---
// A minimum-size Pup frame (no data, "no checksum") on the 3 Mb/s
// Experimental Ethernet, addressed to host 2's `dst_socket`.
pf::PacketBuf MakePupFrame(uint32_t dst_socket, uint8_t src_host, uint32_t src_socket);

// The Pup destination socket parsed from a 3 Mb/s Experimental Ethernet
// frame, or nullopt if the frame is no well-formed Pup.
std::optional<uint32_t> PupDstSocket(std::span<const uint8_t> frame);

// The benchmark's own record of which port it opened for which socket.
class RouteTable {
 public:
  void Add(uint32_t socket, pf::PortId port) { port_of_socket_[socket] = port; }
  // True when a frame whose parsed destination socket is `socket` (see
  // PupDstSocket), popped from `port`, belongs there.
  bool Routed(pf::PortId port, std::optional<uint32_t> socket) const;

 private:
  std::unordered_map<uint32_t, pf::PortId> port_of_socket_;
};

// Per-burst delivery balance: every offered frame must be popped exactly
// once, from the port the benchmark expects.
class DeliveryTally {
 public:
  explicit DeliveryTally(pf::PortId max_port) : balance_(max_port + 1, 0) {}
  void Expect(pf::PortId port) {
    if (balance_[port]++ == 0) {
      touched_.push_back(port);
    }
  }
  void Delivered(pf::PortId port) {
    if (port >= balance_.size()) {
      stray_ = true;
    } else if (balance_[port]-- == 0) {
      touched_.push_back(port);  // not expected (any more): Settle sees it
    }
  }
  // Ports the current burst should have reached (the ones to drain).
  const std::vector<pf::PortId>& touched() const { return touched_; }
  // True when every expected frame was delivered exactly once. Resets.
  bool Settle();

 private:
  std::vector<int32_t> balance_;
  std::vector<pf::PortId> touched_;
  bool stray_ = false;
};

// --- conn_flood: conndb partition identity, from the raw counters ---
bool ConnIdentityHolds(const pf::ConnDB::Stats& stats, size_t live);

// Runs every check against a right and a deliberately wrong input. Returns
// false, with `why` set, if any check accepts the wrong one (or rejects
// the right one).
bool SelfTest(std::string* why);

}  // namespace hostbench

#endif  // PERFBENCH_CHECKS_H_
