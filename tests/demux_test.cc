// Demultiplexer tests: the fig. 4-1 loop, priority ordering, copy-all
// delivery, queue overflow accounting, batch reads, timestamps, stats,
// busy-reordering, the strategy knobs, and the dispatch survivor walk.
#include <gtest/gtest.h>

#include <tuple>

#include "src/pf/builder.h"
#include "src/pf/demux.h"
#include "src/util/rng.h"
#include "tests/test_packets.h"

namespace {

using pf::BinaryOp;
using pf::FilterBuilder;
using pf::PacketFilter;
using pf::PortId;
using pf::Program;

Program SocketFilter(uint32_t socket, uint8_t priority) {
  FilterBuilder b;
  b.WordEqualsShortCircuit(pfproto::kWordDstSocketLow, static_cast<uint16_t>(socket & 0xffff))
      .WordEqualsShortCircuit(pfproto::kWordDstSocketHigh, static_cast<uint16_t>(socket >> 16))
      .WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup);
  return b.Build(priority);
}

Program AcceptAll(uint8_t priority) { return Program{priority, pf::LangVersion::kV1, {}}; }

TEST(DemuxTest, UnclaimedPacketIsDropped) {
  PacketFilter filter;
  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(filter.global_stats().packets_unclaimed, 1u);
}

TEST(DemuxTest, DeliversToMatchingPortOnly) {
  PacketFilter filter;
  const PortId p35 = filter.OpenPort();
  const PortId p36 = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p35, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(p36, SocketFilter(36, 10)).ok);

  filter.Demux(pftest::MakePupFrame(8, 35));
  filter.Demux(pftest::MakePupFrame(8, 36));
  filter.Demux(pftest::MakePupFrame(8, 36));
  EXPECT_EQ(filter.QueueLength(p35), 1u);
  EXPECT_EQ(filter.QueueLength(p36), 2u);

  const auto packet = filter.Pop(p35);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->bytes, pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(p35), 0u);
}

TEST(DemuxTest, HigherPriorityWins) {
  PacketFilter filter;
  const PortId low = filter.OpenPort();
  const PortId high = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(low, SocketFilter(35, 5)).ok);
  ASSERT_TRUE(filter.SetFilter(high, SocketFilter(35, 200)).ok);

  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.deliveries, 1u);
  EXPECT_EQ(filter.QueueLength(high), 1u);
  EXPECT_EQ(filter.QueueLength(low), 0u);  // claimed by the higher priority
}

TEST(DemuxTest, EqualPriorityUsesOpenOrder) {
  PacketFilter filter;
  const PortId first = filter.OpenPort();
  const PortId second = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(first, SocketFilter(35, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(second, SocketFilter(35, 10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(first), 1u);
  EXPECT_EQ(filter.QueueLength(second), 0u);
}

TEST(DemuxTest, DeliverToLowerProducesCopies) {
  // §3.2: a monitor at high priority with deliver-to-lower set must not
  // steal packets from the real recipient.
  PacketFilter filter;
  const PortId monitor = filter.OpenPort();
  const PortId app = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);
  filter.SetDeliverToLower(monitor, true);

  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(r.deliveries, 2u);
  EXPECT_EQ(filter.QueueLength(monitor), 1u);
  EXPECT_EQ(filter.QueueLength(app), 1u);
}

TEST(DemuxTest, DeliverToLowerOrderingIsStrategyIndependent) {
  // The fig. 4-1 walk order (priority desc, then open order) is policy and
  // must not depend on how filters are *executed* — in particular the
  // compiled backend's prefix hoisting shares work across bindings but may
  // not reorder claims or copies.
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    PacketFilter filter;
    filter.SetStrategy(strategy);
    const PortId monitor = filter.OpenPort();
    const PortId app35 = filter.OpenPort();
    const PortId app36 = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
    ASSERT_TRUE(filter.SetFilter(app35, SocketFilter(35, 10)).ok);
    ASSERT_TRUE(filter.SetFilter(app36, SocketFilter(36, 10)).ok);
    filter.SetDeliverToLower(monitor, true);

    const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
    EXPECT_EQ(r.deliveries, 2u) << pf::ToString(strategy);
    EXPECT_EQ(filter.QueueLength(monitor), 1u) << pf::ToString(strategy);
    EXPECT_EQ(filter.QueueLength(app35), 1u) << pf::ToString(strategy);
    EXPECT_EQ(filter.QueueLength(app36), 0u) << pf::ToString(strategy);
  }
}

TEST(DemuxTest, WithoutDeliverToLowerMonitorSteals) {
  PacketFilter filter;
  const PortId monitor = filter.OpenPort();
  const PortId app = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);

  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(monitor), 1u);
  EXPECT_EQ(filter.QueueLength(app), 0u);
}

TEST(DemuxTest, QueueOverflowDropsAndReportsOnNextPacket) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  filter.SetQueueLimit(port, 2);

  for (int i = 0; i < 5; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 35));
  }
  EXPECT_EQ(filter.QueueLength(port), 2u);
  const pf::PortStats* stats = filter.Stats(port);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->dropped, 3u);
  EXPECT_EQ(stats->enqueued, 2u);
  EXPECT_EQ(stats->accepts, 5u);

  // Drain, then deliver again: the next packet reports the 3 losses (§3.3's
  // "count of the number of packets lost due to queue overflows").
  filter.PopBatch(port);
  filter.Demux(pftest::MakePupFrame(8, 35));
  const auto packet = filter.Pop(port);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->dropped_before, 3u);
}

TEST(DemuxTest, PopBatchReturnsAllPending) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  for (int i = 0; i < 7; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 35));
  }
  EXPECT_EQ(filter.PopBatch(port, 4).size(), 4u);
  EXPECT_EQ(filter.PopBatch(port).size(), 3u);
  EXPECT_TRUE(filter.PopBatch(port).empty());
}

TEST(DemuxTest, TimestampsOnlyWhenEnabled) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);

  filter.Demux(pftest::MakePupFrame(8, 35), 111222333);
  EXPECT_EQ(filter.Pop(port)->timestamp_ns, 0u);

  filter.SetTimestamps(port, true);
  filter.Demux(pftest::MakePupFrame(8, 35), 111222333);
  EXPECT_EQ(filter.Pop(port)->timestamp_ns, 111222333u);
}

TEST(DemuxTest, EnqueueCallbackFires) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  int callbacks = 0;
  filter.SetEnqueueCallback(port, [&] { ++callbacks; });
  filter.Demux(pftest::MakePupFrame(8, 35));
  filter.Demux(pftest::MakePupFrame(8, 36));  // no match, no callback
  EXPECT_EQ(callbacks, 1);
}

TEST(DemuxTest, SetFilterRejectsInvalidAndKeepsOld) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);

  Program bad;
  bad.words = {pf::EncodeWord(BinaryOp::kAnd, pf::StackAction::kNoPush)};
  EXPECT_FALSE(filter.SetFilter(port, bad).ok);

  // The old filter is still in force.
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(port), 1u);
}

TEST(DemuxTest, PortWithoutFilterReceivesNothing) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_EQ(filter.QueueLength(port), 0u);
}

TEST(DemuxTest, ClosePortStopsDelivery) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  EXPECT_TRUE(filter.ClosePort(port));
  EXPECT_FALSE(filter.ClosePort(port));
  const auto r = filter.Demux(pftest::MakePupFrame(8, 35));
  EXPECT_FALSE(r.accepted);
}

TEST(DemuxTest, FilterErrorCountsAndRejects) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  FilterBuilder b;
  b.PushWord(45).Lit(BinaryOp::kEq, 0);  // beyond any small packet
  ASSERT_TRUE(filter.SetFilter(port, b.Build(10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35, 2, 1, 2));
  EXPECT_EQ(filter.Stats(port)->filter_errors, 1u);
  EXPECT_EQ(filter.QueueLength(port), 0u);
}

TEST(DemuxTest, PriorityReducesFiltersTested) {
  // §3.2: "if priorities are assigned proportional to the likelihood that a
  // filter will accept a packet, then the 'average' packet will match one
  // of the first few filters".
  PacketFilter filter;
  for (uint32_t socket = 1; socket <= 10; ++socket) {
    const PortId port = filter.OpenPort();
    // Socket 1's filter gets the highest priority.
    ASSERT_TRUE(filter.SetFilter(port, SocketFilter(socket, static_cast<uint8_t>(50 - socket)))
                    .ok);
  }
  const auto hit_first = filter.Demux(pftest::MakePupFrame(8, 1));
  EXPECT_EQ(hit_first.exec.filters_run, 1u);
  const auto hit_last = filter.Demux(pftest::MakePupFrame(8, 10));
  EXPECT_EQ(hit_last.exec.filters_run, 10u);
}

TEST(DemuxTest, BusyReorderingMovesBusyFilterForward) {
  PacketFilter filter;
  const PortId quiet = filter.OpenPort();
  const PortId busy = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(quiet, SocketFilter(1, 10)).ok);
  ASSERT_TRUE(filter.SetFilter(busy, SocketFilter(2, 10)).ok);
  filter.SetBusyReordering(true);

  // Make `busy` accept many packets so reordering puts it first; the
  // reorder happens on the next rebuild tick (every 256 packets).
  for (int i = 0; i < 300; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 2));
  }
  const auto r = filter.Demux(pftest::MakePupFrame(8, 2));
  EXPECT_EQ(r.exec.filters_run, 1u) << "busy filter should now be tested first";

  // Without reordering, port order puts `quiet` first.
  filter.SetBusyReordering(false);
  const auto r2 = filter.Demux(pftest::MakePupFrame(8, 2));
  EXPECT_EQ(r2.exec.filters_run, 2u);
}

TEST(DemuxTest, AllStrategiesAgreeOnDelivery) {
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    PacketFilter filter;
    filter.SetStrategy(strategy);
    const PortId port = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(port, pf::PaperFig39Filter()).ok);
    filter.Demux(pftest::MakePupFrame(8, 35));
    filter.Demux(pftest::MakePupFrame(8, 36));
    EXPECT_EQ(filter.QueueLength(port), 1u) << "strategy=" << pf::ToString(strategy);
  }
}

TEST(DemuxTest, StrategySwitchableAtRuntime) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, pf::PaperFig39Filter()).ok);
  for (const pf::Strategy strategy : pf::kAllStrategies) {
    filter.SetStrategy(strategy);
    EXPECT_EQ(filter.strategy(), strategy);
    filter.Demux(pftest::MakePupFrame(8, 35));
  }
  EXPECT_EQ(filter.QueueLength(port), std::size(pf::kAllStrategies));
  // The pre-decoded pass reported its decode-cache hit, and the indexed
  // pass re-confirmed its bucket hit from the same pre-decoded form. The
  // compiled pass runs its fused ops (full-length packet: no fallback).
  EXPECT_EQ(filter.global_stats().exec.decode_cache_hits, 2u);
  EXPECT_GT(filter.global_stats().exec.fused_ops, 0u);
}

TEST(DemuxTest, GlobalStatsAccumulate) {
  PacketFilter filter;
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 35));
  filter.Demux(pftest::MakePupFrame(8, 99));
  const auto& g = filter.global_stats();
  EXPECT_EQ(g.packets_in, 2u);
  EXPECT_EQ(g.packets_accepted, 1u);
  EXPECT_EQ(g.packets_unclaimed, 1u);
  EXPECT_GT(g.exec.insns_executed, 0u);
}

TEST(DemuxTest, AcceptsInvariantAcrossOverflowAndCopyAll) {
  // The documented PortStats invariant: every accept is either enqueued or
  // dropped, so accepts == enqueued + dropped on every port at all times —
  // including under queue overflow and deliver-to-lower copies.
  PacketFilter filter;
  const PortId monitor = filter.OpenPort();
  const PortId app = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(monitor, AcceptAll(255)).ok);
  ASSERT_TRUE(filter.SetFilter(app, SocketFilter(35, 10)).ok);
  filter.SetDeliverToLower(monitor, true);
  filter.SetQueueLimit(monitor, 2);
  filter.SetQueueLimit(app, 1);

  for (int i = 0; i < 6; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 35));
    filter.Demux(pftest::MakePupFrame(8, 99));  // monitor-only traffic
    for (const PortId port : {monitor, app}) {
      const pf::PortStats* stats = filter.Stats(port);
      ASSERT_NE(stats, nullptr);
      EXPECT_EQ(stats->accepts, stats->enqueued + stats->dropped) << "port " << port;
    }
  }
  EXPECT_EQ(filter.Stats(monitor)->accepts, 12u);
  EXPECT_EQ(filter.Stats(monitor)->enqueued, 2u);
  EXPECT_EQ(filter.Stats(monitor)->dropped, 10u);
  EXPECT_EQ(filter.Stats(app)->accepts, 6u);
}

TEST(DemuxTest, DeviceInfoRoundTrips) {
  pf::DeviceInfo info;
  info.datalink_type = 1;
  info.addr_len = 6;
  info.header_len = 14;
  info.max_packet = 1514;
  PacketFilter filter(info);
  EXPECT_EQ(filter.device_info().max_packet, 1514u);
  EXPECT_EQ(filter.device_info().addr_len, 6);
}

// ------------------------------------------------- drop-reason taxonomy

// A frame whose link header parses but whose Pup words are cut off: every
// socket filter faults with kOutOfPacket on it.
std::vector<uint8_t> TruncatedFrame() {
  std::vector<uint8_t> frame = pftest::MakePupFrame(8, 35);
  frame.resize(8);
  return frame;
}

// A filter that divides by the dst-socket low word: socket 0 traffic makes
// it fail with kDivideByZero (the kFilterError reason).
Program DividingFilter(uint8_t priority) {
  FilterBuilder b(pf::LangVersion::kV2);  // DIV is a v2 extension op
  b.PushOne().PushWord(pfproto::kWordDstSocketLow).Op(BinaryOp::kDiv);
  return b.Build(priority);
}

TEST(DropReasonTest, EachReasonCountedOnce) {
  PacketFilter filter;
  const PortId p35 = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(p35, SocketFilter(35, 10)).ok);
  filter.SetQueueLimit(p35, 1);

  filter.Demux(pftest::MakePupFrame(8, 35));  // delivered
  filter.Demux(pftest::MakePupFrame(8, 35));  // accepted, queue full -> overflow
  filter.Demux(pftest::MakePupFrame(8, 99));  // rejected everywhere -> no-match
  filter.Demux(TruncatedFrame());             // faulted everywhere -> short-packet

  const pf::FilterGlobalStats& global = filter.global_stats();
  using R = pf::DropReason;
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kQueueOverflow)], 1u);
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kNoMatch)], 1u);
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kShortPacket)], 1u);
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kFilterError)], 0u);
  EXPECT_EQ(global.drops_by_reason[static_cast<size_t>(R::kNoPorts)], 0u);

  const pf::PortStats* stats = filter.Stats(p35);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->dropped, pf::TotalDrops(stats->drops_by_reason));
  EXPECT_EQ(stats->drops_by_reason[static_cast<size_t>(R::kQueueOverflow)], 1u);
}

TEST(DropReasonTest, NoPortsAndFilterErrorReasons) {
  PacketFilter filter;
  filter.Demux(pftest::MakePupFrame(8, 35));  // nothing bound at all
  using R = pf::DropReason;
  EXPECT_EQ(filter.global_stats().drops_by_reason[static_cast<size_t>(R::kNoPorts)], 1u);

  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, DividingFilter(10)).ok);
  filter.Demux(pftest::MakePupFrame(8, 0));  // divide by zero -> filter-error
  EXPECT_EQ(filter.global_stats().drops_by_reason[static_cast<size_t>(R::kFilterError)], 1u);
  // Errors outrank short reads in classification only when one occurred;
  // the error run is also counted per port.
  EXPECT_EQ(filter.Stats(port)->filter_errors, 1u);
}

// Property test (the PR's accounting bar): over a randomized mixed stream,
// every packet is either enqueued somewhere or accounted to exactly one
// whole-packet drop reason, and every lost copy to kQueueOverflow:
//   packets_in == sum(enqueued) + sum(drops_by_reason)       (single-claim)
//   packets_unclaimed == no_match + no_ports + short + error
//   sum(per-port dropped) == drops_by_reason[kQueueOverflow]
// The legacy aggregate counters must agree with the new per-reason ones.
TEST(DropReasonTest, ReasonsDecomposeAllLosses) {
  PacketFilter filter;
  std::vector<PortId> ports;
  for (uint32_t socket = 1; socket <= 6; ++socket) {
    const PortId port = filter.OpenPort();
    ASSERT_TRUE(filter.SetFilter(port, SocketFilter(socket, 10)).ok);
    filter.SetQueueLimit(port, socket % 2 == 0 ? 1 : 4);
    ports.push_back(port);
  }

  uint32_t seed = 12345;
  const auto next = [&seed]() {
    seed = seed * 1664525u + 1013904223u;
    return seed >> 16;
  };
  for (int i = 0; i < 400; ++i) {
    switch (next() % 4) {
      case 0:
      case 1:
        filter.Demux(pftest::MakePupFrame(8, next() % 8 + 1));  // some unbound
        break;
      case 2:
        filter.Demux(pftest::MakePupFrame(8, 999));
        break;
      case 3:
        filter.Demux(TruncatedFrame());
        break;
    }
    if (next() % 8 == 0) {  // occasional reader keeps queues churning
      filter.Pop(ports[next() % ports.size()]);
    }
  }

  const pf::FilterGlobalStats& global = filter.global_stats();
  using R = pf::DropReason;
  const auto reason = [&global](R r) {
    return global.drops_by_reason[static_cast<size_t>(r)];
  };

  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t accepts = 0;
  for (const PortId port : ports) {
    const pf::PortStats* stats = filter.Stats(port);
    enqueued += stats->enqueued;
    dropped += stats->dropped;
    accepts += stats->accepts;
    EXPECT_EQ(stats->accepts, stats->enqueued + stats->dropped);
    EXPECT_EQ(stats->dropped, pf::TotalDrops(stats->drops_by_reason));
  }
  EXPECT_EQ(global.packets_in, global.packets_accepted + global.packets_unclaimed);
  EXPECT_EQ(global.packets_unclaimed, reason(R::kNoMatch) + reason(R::kNoPorts) +
                                          reason(R::kShortPacket) + reason(R::kFilterError));
  EXPECT_EQ(dropped, reason(R::kQueueOverflow));
  // Single-claim filters: accepted packets == accepted copies, so the
  // machine-wide identity holds packet-for-packet.
  EXPECT_EQ(global.packets_accepted, accepts);
  EXPECT_EQ(global.packets_in, enqueued + pf::TotalDrops(global.drops_by_reason));
  EXPECT_GT(reason(R::kQueueOverflow), 0u);
  EXPECT_GT(reason(R::kNoMatch), 0u);
  EXPECT_GT(reason(R::kShortPacket), 0u);
}

// ---------------------------------------------------- flight recorder

TEST(FlightRecorderTest, BoundedWithCorrectReasons) {
  PacketFilter filter;
  filter.SetFlightRecorder(4);
  const PortId port = filter.OpenPort();
  ASSERT_TRUE(filter.SetFilter(port, SocketFilter(35, 10)).ok);
  filter.SetQueueLimit(port, 1);

  for (int i = 0; i < 10; ++i) {
    filter.Demux(pftest::MakePupFrame(8, 99), /*timestamp_ns=*/100 + i, /*flow_id=*/i);
  }
  filter.Demux(pftest::MakePupFrame(8, 35), 200, 50);  // delivered, not recorded
  filter.Demux(pftest::MakePupFrame(8, 35), 201, 51);  // overflow
  filter.Demux(TruncatedFrame(), 202, 52);             // short packet

  const pf::DropRecorder* recorder = filter.flight_recorder();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->capacity(), 4u);
  EXPECT_EQ(recorder->size(), 4u);  // bounded: only the newest 4 retained
  EXPECT_EQ(recorder->total_recorded(), 12u);

  const auto tail = recorder->Tail();
  ASSERT_EQ(tail.size(), 4u);
  // Oldest-to-newest: the two newest no-match drops, then overflow, short.
  EXPECT_EQ(tail[0].reason, pf::DropReason::kNoMatch);
  EXPECT_EQ(tail[1].reason, pf::DropReason::kNoMatch);
  EXPECT_EQ(tail[2].reason, pf::DropReason::kQueueOverflow);
  EXPECT_EQ(tail[2].port, port);
  EXPECT_EQ(tail[2].flow_id, 51u);
  EXPECT_EQ(tail[2].timestamp_ns, 201u);
  EXPECT_EQ(tail[2].pc, -1);  // no filter erred
  EXPECT_EQ(tail[3].reason, pf::DropReason::kShortPacket);
  EXPECT_GE(tail[3].pc, 0);  // where the faulting filter stopped
  EXPECT_EQ(tail[3].packet_bytes, 8u);
  EXPECT_EQ(tail[3].head_word_count, 4);

  const std::string text = recorder->ToText();
  EXPECT_NE(text.find("short-packet"), std::string::npos);
  EXPECT_NE(text.find("queue-overflow"), std::string::npos);
  const std::string json = recorder->ToJson();
  EXPECT_NE(json.find("\"total_recorded\":12"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"queue-overflow\""), std::string::npos);
}

TEST(FlightRecorderTest, DisabledByDefaultAndClearable) {
  PacketFilter filter;
  EXPECT_EQ(filter.flight_recorder(), nullptr);  // off: drop path is a null check
  filter.Demux(pftest::MakePupFrame(8, 35));     // drops, nothing recorded

  filter.SetFlightRecorder(2);
  filter.Demux(pftest::MakePupFrame(8, 35));
  ASSERT_NE(filter.flight_recorder(), nullptr);
  EXPECT_EQ(filter.flight_recorder()->size(), 1u);

  filter.SetFlightRecorder(8);  // re-enabling clears previous records
  EXPECT_EQ(filter.flight_recorder()->size(), 0u);
  filter.SetFlightRecorder(0);
  EXPECT_EQ(filter.flight_recorder(), nullptr);
}

// ------------------------------------------------ dispatch survivor walk
//
// Under kIndexed and kTree the demux walks only the dispatch's survivors
// (the hash bucket / the tree's matches) plus the undispatched residue, in
// rank order. These tests pin that it claims, copies and accounts exactly
// like the full walk.

constexpr pf::Strategy kDispatchStrategies[] = {pf::Strategy::kIndexed, pf::Strategy::kTree};

// Accepts every packet but is no conjunction, so neither the tree nor the
// index dispatches it: it always sits in the residue.
Program AcceptAllResidue(uint8_t priority) { return FilterBuilder().PushOne().Build(priority); }

// Opens one port per filter, in order, under `strategy`, and returns their
// ids. Four bystander ports on sockets no test sends to follow, so the
// survivor walk is shorter than the full one (otherwise the demux walks
// every port).
std::vector<PortId> OpenPorts(PacketFilter& filter, pf::Strategy strategy,
                              const std::vector<Program>& filters) {
  filter.SetStrategy(strategy);
  std::vector<PortId> ids;
  for (const Program& program : filters) {
    ids.push_back(filter.OpenPort());
    EXPECT_TRUE(filter.SetFilter(ids.back(), program).ok);
  }
  for (uint32_t socket = 1000; socket < 1004; ++socket) {
    EXPECT_TRUE(filter.SetFilter(filter.OpenPort(), SocketFilter(socket, 10)).ok);
  }
  return ids;
}

bool Dispatched(const PacketFilter& filter, PortId port) {
  return filter.engine().Dispatched(*filter.engine().FindBinding(port));
}

TEST(DemuxDispatchTest, RebindRedirectsTheFlow) {
  for (const pf::Strategy strategy : kDispatchStrategies) {
    SCOPED_TRACE(pf::ToString(strategy));
    PacketFilter filter;
    const auto ids = OpenPorts(filter, strategy, {SocketFilter(35, 10), SocketFilter(35, 10)});
    // Equal priority, both survivors: the first opened claims.
    filter.Demux(pftest::MakePupFrame(8, 35));
    EXPECT_EQ(filter.QueueLength(ids[0]), 1u);
    EXPECT_TRUE(Dispatched(filter, ids[0]) && Dispatched(filter, ids[1]));
    // Rebound to another socket, it is no longer this flow's survivor.
    ASSERT_TRUE(filter.SetFilter(ids[0], SocketFilter(99, 10)).ok);
    filter.Demux(pftest::MakePupFrame(8, 35));
    filter.Demux(pftest::MakePupFrame(8, 99));
    EXPECT_EQ(filter.QueueLength(ids[0]), 2u);
    EXPECT_EQ(filter.QueueLength(ids[1]), 1u);
  }
}

TEST(DemuxDispatchTest, ClosePortStopsDelivery) {
  for (const pf::Strategy strategy : kDispatchStrategies) {
    SCOPED_TRACE(pf::ToString(strategy));
    PacketFilter filter;
    const auto ids = OpenPorts(filter, strategy, {SocketFilter(35, 10), SocketFilter(36, 10)});
    EXPECT_TRUE(filter.Demux(pftest::MakePupFrame(8, 35)).accepted);
    ASSERT_TRUE(filter.ClosePort(ids[0]));
    EXPECT_FALSE(filter.Demux(pftest::MakePupFrame(8, 35)).accepted);  // no ghost delivery
    EXPECT_EQ(filter.global_stats().drops_by_reason[static_cast<size_t>(pf::DropReason::kNoMatch)],
              1u);
    EXPECT_TRUE(filter.Demux(pftest::MakePupFrame(8, 36)).accepted);
  }
}

TEST(DemuxDispatchTest, PriorityChangeReordersOneBucket) {
  for (const pf::Strategy strategy : kDispatchStrategies) {
    SCOPED_TRACE(pf::ToString(strategy));
    PacketFilter filter;
    // Both filters survive every socket-35 packet; rank alone decides.
    const auto ids = OpenPorts(filter, strategy, {SocketFilter(35, 10), SocketFilter(35, 5)});
    filter.Demux(pftest::MakePupFrame(8, 35));
    ASSERT_TRUE(filter.SetFilter(ids[1], SocketFilter(35, 200)).ok);
    filter.Demux(pftest::MakePupFrame(8, 35));
    ASSERT_TRUE(filter.SetFilter(ids[0], SocketFilter(35, 255)).ok);
    filter.Demux(pftest::MakePupFrame(8, 35));
    EXPECT_EQ(filter.QueueLength(ids[0]), 2u);
    EXPECT_EQ(filter.QueueLength(ids[1]), 1u);
  }
}

TEST(DemuxDispatchTest, ResidueMonitorCopiesByRank) {
  for (const pf::Strategy strategy : kDispatchStrategies) {
    SCOPED_TRACE(pf::ToString(strategy));
    PacketFilter filter;
    const auto ids = OpenPorts(filter, strategy, {SocketFilter(35, 10), AcceptAllResidue(20)});
    const PortId app = ids[0];
    const PortId monitor = ids[1];
    filter.SetDeliverToLower(monitor, true);
    std::vector<PortId> order;
    for (const PortId port : ids) {
      filter.SetEnqueueCallback(port, [&order, port] { order.push_back(port); });
    }
    const auto deliveries = [&](uint32_t socket) {
      order.clear();
      filter.Demux(pftest::MakePupFrame(8, socket));
      return order;
    };
    // Ranked ahead of the claimer, the monitor's copy comes first.
    EXPECT_EQ(deliveries(35), (std::vector<PortId>{monitor, app}));
    EXPECT_TRUE(Dispatched(filter, app));
    EXPECT_FALSE(Dispatched(filter, monitor));
    // Ranked behind an exclusive claimer, it gets none...
    ASSERT_TRUE(filter.SetFilter(monitor, AcceptAllResidue(5)).ok);
    EXPECT_EQ(deliveries(35), (std::vector<PortId>{app}));
    // ...and behind a copy-all claimer, its copy comes second.
    filter.SetDeliverToLower(app, true);
    EXPECT_EQ(deliveries(35), (std::vector<PortId>{app, monitor}));
    EXPECT_EQ(deliveries(99), (std::vector<PortId>{monitor}));
  }
}

// A runtime strategy switch changes which filters the dispatch answers (an
// accept-all is a tree conjunction but never indexed); the residue has to
// follow, or a port would be skipped or walked twice.
TEST(DemuxDispatchTest, StrategySwitchRecomputesTheResidue) {
  PacketFilter filter;
  const auto ids = OpenPorts(filter, pf::Strategy::kTree, {AcceptAll(20), SocketFilter(35, 10)});
  filter.SetDeliverToLower(ids[0], true);
  for (const pf::Strategy strategy : {pf::Strategy::kIndexed, pf::Strategy::kTree}) {
    filter.SetStrategy(strategy);
    EXPECT_EQ(filter.Demux(pftest::MakePupFrame(8, 35)).deliveries, 2u) << pf::ToString(strategy);
  }
}

// Busy reordering moves the accept-all residue port ahead of a survivor of
// the same priority; the claim has to follow the new rank as kChecked's
// full walk does.
TEST(DemuxDispatchTest, BusyReorderingMatchesChecked) {
  const auto run = [](pf::Strategy strategy) {
    PacketFilter filter;
    filter.SetBusyReordering(true);
    const auto ids = OpenPorts(filter, strategy, {SocketFilter(35, 10), AcceptAllResidue(10)});
    std::vector<PortId> order;
    for (const PortId port : ids) {
      filter.SetQueueLimit(port, 1000);
      filter.SetEnqueueCallback(port, [&order, port] { order.push_back(port); });
    }
    for (int i = 0; i < 600; ++i) {
      filter.Demux(pftest::MakePupFrame(8, i % 4 == 0 ? 35 : 99));
    }
    return order;
  };
  const std::vector<PortId> expected = run(pf::Strategy::kChecked);
  ASSERT_EQ(expected.size(), 600u);
  // The reorder happened: the first socket-35 packet went to the socket
  // port (1), the last one to the busier accept-all port (2).
  EXPECT_EQ(expected[0], 1u);
  EXPECT_EQ(expected[596], 2u);
  for (const pf::Strategy strategy : kDispatchStrategies) {
    EXPECT_EQ(run(strategy), expected) << pf::ToString(strategy);
  }
}

// A frame too short for the index's words takes kIndexed's sequential
// fallback, so statuses, drop reasons and the recorder's pc match kChecked.
TEST(DemuxDispatchTest, ShortFramesReportShortPacketAsChecked) {
  const auto run = [](pf::Strategy strategy) {
    PacketFilter filter;
    filter.SetFlightRecorder(4);
    const auto ids = OpenPorts(filter, strategy,
                               {SocketFilter(35, 10), SocketFilter(36, 10), SocketFilter(37, 10)});
    filter.Demux(pftest::MakePupFrame(8, 36));
    filter.Demux(TruncatedFrame());
    filter.Demux(std::vector<uint8_t>{1, 2, 3});
    std::vector<uint64_t> errors;
    for (const PortId port : ids) {
      errors.push_back(filter.Stats(port)->filter_errors);
    }
    return std::make_tuple(filter.global_stats().drops_by_reason, errors,
                           filter.flight_recorder()->Tail().back().pc);
  };
  const auto checked = run(pf::Strategy::kChecked);
  EXPECT_EQ(std::get<0>(checked)[static_cast<size_t>(pf::DropReason::kShortPacket)], 2u);
  EXPECT_EQ(std::get<1>(checked), (std::vector<uint64_t>{2, 2, 2}));
  EXPECT_EQ(run(pf::Strategy::kIndexed), checked);
}

// --- Seeded randomized differential ---------------------------------------
//
// Random filter sets mixing conjunctions (socket filters sharing buckets, an
// ether-type test the index cannot key on) and non-conjunctions (ranges, a
// divider, accept-alls), priorities from a small set so ties and busy
// reorders happen, random copy-all, and reads and rebinds between packets.
// The survivor walk must match the full walk (profiling forces it) bit for
// bit, ExecTelemetry included, and kChecked on every delivery and counter.

Program RandomFilter(pfutil::Rng& rng) {
  static constexpr uint8_t kPriorities[] = {5, 10, 10, 20};
  const uint8_t priority = kPriorities[rng.Below(4)];
  const uint16_t socket = static_cast<uint16_t>(rng.Below(6));
  switch (rng.Below(7)) {
    case 0:
    case 1:
    case 2:
      return SocketFilter(socket, priority);
    case 3:
      return FilterBuilder().WordEquals(pfproto::kWordEtherType, pfproto::kEtherTypePup)
          .Build(priority);
    case 4:
      return FilterBuilder()
          .MaskedWordInRange(pfproto::kWordDstSocketLow, 0xffff, socket, socket + 1)
          .Build(priority);
    case 5:
      return DividingFilter(priority);
    default:
      return socket % 2 == 0 ? AcceptAll(priority) : AcceptAllResidue(priority);
  }
}

struct DemuxObservation {
  std::vector<std::vector<PortId>> deliveries;  // per packet, in delivery order
  std::vector<pf::PortStats> ports;
  pf::DropCounts drops{};
  pf::ExecTelemetry exec;
};

// Plays seed `seed`'s scenario: bindings, then 600 operations — mostly
// packets (with `runts`, one in eight truncated), plus reads, rebinds and
// copy-all toggles. No Rng draw depends on the demux's answers, so every
// strategy sees the same operations.
DemuxObservation RunScenario(uint64_t seed, bool runts, pf::Strategy strategy, bool profiling) {
  pfutil::Rng rng(seed);
  PacketFilter filter;
  filter.SetStrategy(strategy);
  filter.SetProfiling(profiling);
  filter.SetBusyReordering(seed % 2 == 0);
  DemuxObservation obs;
  std::vector<PortId> ids(4 + seed % 9);
  for (size_t slot = 0; slot < ids.size(); ++slot) {
    const PortId id = ids[slot] = filter.OpenPort();
    filter.SetQueueLimit(id, 1 + slot % 4);
    filter.SetEnqueueCallback(id, [&obs, id] { obs.deliveries.back().push_back(id); });
    EXPECT_TRUE(filter.SetFilter(id, RandomFilter(rng)).ok);
    filter.SetDeliverToLower(id, rng.Below(4) == 0);
  }
  for (int i = 0; i < 600; ++i) {
    const PortId id = ids[rng.Below(ids.size())];
    const uint64_t roll = rng.Below(100);
    if (roll < 8) {
      filter.Pop(id);
    } else if (roll < 10) {
      EXPECT_TRUE(filter.SetFilter(id, RandomFilter(rng)).ok);
    } else if (roll < 12) {
      filter.SetDeliverToLower(id, rng.Below(2) == 0);
    } else {
      // Socket 0 makes the divider fail; a non-Pup ether type misses most.
      std::vector<uint8_t> packet =
          pftest::MakePupFrame(8, static_cast<uint32_t>(rng.Below(8)), 2, 1, 8,
                               rng.Below(8) != 0 ? pfproto::kEtherTypePup : 0x0800);
      if (runts && rng.Below(8) == 0) {
        packet.resize(rng.Below(packet.size()));
      }
      obs.deliveries.emplace_back();
      filter.Demux(packet);
    }
  }
  for (const PortId id : ids) {
    obs.ports.push_back(*filter.Stats(id));
  }
  obs.drops = filter.global_stats().drops_by_reason;
  obs.exec = filter.global_stats().exec;
  return obs;
}

void ExpectSameOutcome(const DemuxObservation& got, const DemuxObservation& want) {
  EXPECT_EQ(got.deliveries, want.deliveries);
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_TRUE(got.ports == want.ports);  // PortStats, drops_by_reason included
}

TEST(DemuxDispatchTest, RandomizedSurvivorWalkMatchesFullWalkAndChecked) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    for (const bool runts : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (runts ? " with runts" : ""));
      const DemuxObservation checked = RunScenario(seed, runts, pf::Strategy::kChecked, false);
      for (const pf::Strategy strategy : kDispatchStrategies) {
        SCOPED_TRACE(pf::ToString(strategy));
        const DemuxObservation survivors = RunScenario(seed, runts, strategy, false);
        const DemuxObservation full_walk = RunScenario(seed, runts, strategy, true);
        ExpectSameOutcome(survivors, full_walk);
        EXPECT_TRUE(survivors.exec == full_walk.exec);
        ExpectSameOutcome(survivors, checked);
      }
    }
  }
}

}  // namespace
