#include "perfbench/checks.h"

#include <algorithm>
#include <cstring>

#include "src/link/frame.h"
#include "src/proto/ethertypes.h"
#include "src/proto/pup.h"

namespace hostbench {
namespace {

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void FillSegment(uint64_t seed, uint64_t seq, std::span<uint8_t> out) {
  const uint64_t base = Mix(seed ^ Mix(seq));
  for (size_t i = 0; i < out.size(); i += 8) {
    const uint64_t word = Mix(base + i);
    std::memcpy(out.data() + i, &word, std::min<size_t>(8, out.size() - i));
  }
}

bool SegmentMatches(uint64_t seed, uint64_t seq, std::span<const uint8_t> bytes) {
  if (bytes.size() != kSegmentBytes) {
    return false;
  }
  uint8_t expected[kSegmentBytes];
  FillSegment(seed, seq, expected);
  return std::memcmp(expected, bytes.data(), kSegmentBytes) == 0;
}

pf::PacketBuf MakePupFrame(uint32_t dst_socket, uint8_t src_host, uint32_t src_socket) {
  pfproto::PupHeader header;
  header.type = static_cast<uint8_t>(pfproto::PupType::kData);
  header.dst = {0, 2, dst_socket};
  header.src = {0, src_host, src_socket};
  const auto pup = pfproto::BuildPup(header, {}, /*with_checksum=*/false);
  pflink::LinkHeader link;
  link.dst = pflink::MacAddr::Experimental(2);
  link.src = pflink::MacAddr::Experimental(src_host);
  link.ether_type = pfproto::kEtherTypePup;
  return pflink::BuildFrame(pflink::LinkType::kExperimental3Mb, link, *pup)->bytes;
}

std::optional<uint32_t> PupDstSocket(std::span<const uint8_t> frame) {
  const auto view =
      pfproto::ParsePup(pflink::FramePayload(pflink::LinkType::kExperimental3Mb, frame));
  if (!view.has_value() || !view->checksum_ok) {
    return std::nullopt;
  }
  return view->header.dst.socket;
}

bool RouteTable::Routed(pf::PortId port, std::optional<uint32_t> socket) const {
  if (!socket.has_value()) {
    return false;
  }
  const auto it = port_of_socket_.find(*socket);
  return it != port_of_socket_.end() && it->second == port;
}

bool DeliveryTally::Settle() {
  bool ok = !stray_;
  for (const pf::PortId port : touched_) {
    ok = ok && balance_[port] == 0;
    balance_[port] = 0;
  }
  touched_.clear();
  stray_ = false;
  return ok;
}

bool ConnIdentityHolds(const pf::ConnDB::Stats& s, size_t live) {
  const uint64_t expired = s.expired_lazy + s.expired_gc;
  const uint64_t evicted = s.evicted_capacity + s.evicted_emergency + s.evicted_stale;
  return s.created == live + expired + evicted + s.refused;
}

bool SelfTest(std::string* why) {
  auto fail = [why](const char* what) {
    *why = what;
    return false;
  };

  // A frame routed to the wrong port.
  RouteTable routes;
  routes.Add(0xa0a0, 1);
  routes.Add(0xb0b0, 2);
  const pf::PacketBuf frame = MakePupFrame(0xa0a0, 1, 7);
  if (!routes.Routed(1, PupDstSocket(frame.span()))) {
    return fail("routing check rejects a correctly routed frame");
  }
  if (routes.Routed(2, PupDstSocket(frame.span()))) {
    return fail("routing check accepts a frame routed to the wrong port");
  }
  if (routes.Routed(1, PupDstSocket(frame.span().first(10)))) {
    return fail("routing check accepts a truncated frame");
  }

  // A flipped payload byte.
  std::vector<uint8_t> segment(kSegmentBytes);
  FillSegment(42, 7, segment);
  if (!SegmentMatches(42, 7, segment)) {
    return fail("segment check rejects the right segment");
  }
  segment[kSegmentBytes / 3] ^= 0x01;
  if (SegmentMatches(42, 7, segment)) {
    return fail("segment check accepts a flipped payload byte");
  }
  segment[kSegmentBytes / 3] ^= 0x01;
  if (SegmentMatches(42, 8, segment) || SegmentMatches(42, 7, std::span(segment).first(100))) {
    return fail("segment check accepts another transaction's or a short segment");
  }

  // A lost frame, and a frame delivered to a port the burst never reached.
  DeliveryTally tally(4);
  tally.Expect(1);
  tally.Expect(1);
  tally.Expect(2);
  tally.Delivered(1);
  tally.Delivered(2);
  tally.Delivered(1);
  if (!tally.Settle()) {
    return fail("delivery check rejects a complete burst");
  }
  tally.Expect(1);
  tally.Expect(2);
  tally.Delivered(1);
  if (tally.Settle()) {
    return fail("delivery check accepts a lost frame");
  }
  tally.Expect(1);
  tally.Delivered(3);
  if (tally.Settle()) {
    return fail("delivery check accepts a frame delivered to the wrong port");
  }

  // A conndb identity off by one, on counters from a real churning table.
  pf::ConnDB::Config config;
  config.capacity = 16;
  pf::ConnDB db(config);
  for (uint64_t sig = 1; sig <= 100; ++sig) {
    db.Establish(sig, 1, sig * 1000, 1, 64);
  }
  if (db.stats().evicted() == 0 || !ConnIdentityHolds(db.stats(), db.live())) {
    return fail("conndb identity check rejects a consistent table");
  }
  pf::ConnDB::Stats off = db.stats();
  ++off.created;
  if (ConnIdentityHolds(off, db.live()) || ConnIdentityHolds(db.stats(), db.live() + 1)) {
    return fail("conndb identity check accepts an off-by-one identity");
  }
  return true;
}

}  // namespace hostbench
