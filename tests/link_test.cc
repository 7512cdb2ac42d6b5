// Link-layer tests: framing for both Ethernets, segment delivery rules,
// bandwidth serialization, loss injection, the transmit-time FCS, and the
// seeded impairment engine.
#include <gtest/gtest.h>

#include "src/link/frame.h"
#include "src/link/impair.h"
#include "src/link/segment.h"
#include "src/sim/simulator.h"

namespace {

using pflink::EthernetSegment;
using pflink::Frame;
using pflink::LinkHeader;
using pflink::LinkType;
using pflink::MacAddr;
using pflink::Station;

TEST(MacAddrTest, BroadcastForms) {
  EXPECT_TRUE(MacAddr::Broadcast(6).IsBroadcast());
  EXPECT_TRUE(MacAddr::Broadcast(1).IsBroadcast());
  EXPECT_FALSE(MacAddr::Dix(1, 2, 3, 4, 5, 6).IsBroadcast());
  EXPECT_FALSE(MacAddr::Experimental(7).IsBroadcast());
  EXPECT_EQ(MacAddr::Broadcast(1).bytes[0], 0);  // host 0 on the 3 Mb net
}

TEST(MacAddrTest, MulticastBit) {
  EXPECT_TRUE(MacAddr::Dix(0x01, 0, 0x5e, 0, 0, 1).IsMulticast());
  EXPECT_FALSE(MacAddr::Dix(0x02, 0, 0, 0, 0, 1).IsMulticast());
}

TEST(MacAddrTest, ToStringFormats) {
  EXPECT_EQ(MacAddr::Experimental(42).ToString(), "42");
  EXPECT_EQ(MacAddr::Dix(0xde, 0xad, 0xbe, 0xef, 0x00, 0x01).ToString(), "de:ad:be:ef:00:01");
}

TEST(FrameTest, DixRoundTrip) {
  LinkHeader header;
  header.dst = MacAddr::Dix(1, 2, 3, 4, 5, 6);
  header.src = MacAddr::Dix(6, 5, 4, 3, 2, 1);
  header.ether_type = 0x0800;
  const std::vector<uint8_t> payload = {0xaa, 0xbb, 0xcc};
  const auto frame = pflink::BuildFrame(LinkType::kEthernet10Mb, header, payload);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), 14u + 3u);

  const auto parsed = pflink::ParseHeader(LinkType::kEthernet10Mb, frame->AsSpan());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, header.dst);
  EXPECT_EQ(parsed->src, header.src);
  EXPECT_EQ(parsed->ether_type, 0x0800);
  const auto body = pflink::FramePayload(LinkType::kEthernet10Mb, frame->AsSpan());
  EXPECT_EQ(std::vector<uint8_t>(body.begin(), body.end()), payload);
}

TEST(FrameTest, ExperimentalHeaderIsFourBytes) {
  LinkHeader header;
  header.dst = MacAddr::Experimental(2);
  header.src = MacAddr::Experimental(1);
  header.ether_type = 2;
  const auto frame = pflink::BuildFrame(LinkType::kExperimental3Mb, header, {});
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->size(), 4u);
  EXPECT_EQ(frame->bytes[0], 2);  // dst host
  EXPECT_EQ(frame->bytes[1], 1);  // src host
  const auto parsed = pflink::ParseHeader(LinkType::kExperimental3Mb, frame->AsSpan());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ether_type, 2);
}

TEST(FrameTest, MtuEnforced) {
  LinkHeader header;
  header.dst = MacAddr::Dix(1, 2, 3, 4, 5, 6);
  header.src = MacAddr::Dix(6, 5, 4, 3, 2, 1);
  const std::vector<uint8_t> too_big(1501, 0);
  EXPECT_FALSE(pflink::BuildFrame(LinkType::kEthernet10Mb, header, too_big).has_value());
  const std::vector<uint8_t> just_fits(1500, 0);
  EXPECT_TRUE(pflink::BuildFrame(LinkType::kEthernet10Mb, header, just_fits).has_value());
}

TEST(FrameTest, ParseRejectsTruncated) {
  const std::vector<uint8_t> tiny = {1, 2, 3};
  EXPECT_FALSE(pflink::ParseHeader(LinkType::kEthernet10Mb, tiny).has_value());
  EXPECT_FALSE(pflink::ParseHeader(LinkType::kExperimental3Mb, tiny).has_value());
  EXPECT_TRUE(pflink::FramePayload(LinkType::kEthernet10Mb, tiny).empty());
}

// A recording station.
class TestStation : public Station {
 public:
  TestStation(MacAddr addr, bool promiscuous = false)
      : addr_(addr), promiscuous_(promiscuous) {}
  void OnFrameDelivered(const Frame& frame, pfsim::TimePoint at) override {
    frames.push_back(frame.bytes.ToVector());
    raw.push_back(frame);
    times.push_back(at);
  }
  MacAddr link_addr() const override { return addr_; }
  bool promiscuous() const override { return promiscuous_; }

  std::vector<std::vector<uint8_t>> frames;
  std::vector<Frame> raw;  // with FCS metadata
  std::vector<pfsim::TimePoint> times;

 private:
  MacAddr addr_;
  bool promiscuous_;
};

Frame MakeFrame(uint8_t dst, uint8_t src, size_t payload = 10) {
  LinkHeader header;
  header.dst = MacAddr::Experimental(dst);
  header.src = MacAddr::Experimental(src);
  header.ether_type = 2;
  return *pflink::BuildFrame(LinkType::kExperimental3Mb, header,
                             std::vector<uint8_t>(payload, 0x5a));
}

TEST(SegmentTest, DeliversToAddresseeOnly) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  TestStation c(MacAddr::Experimental(3));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&c);

  segment.Transmit(&a, MakeFrame(2, 1));
  sim.Run();
  EXPECT_TRUE(a.frames.empty());  // sender does not hear itself
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(c.frames.empty());
}

TEST(SegmentTest, BroadcastReachesAll) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  TestStation c(MacAddr::Experimental(3));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&c);
  segment.Transmit(&a, MakeFrame(0, 1));  // host 0 = broadcast
  sim.Run();
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST(SegmentTest, PromiscuousStationHearsEverything) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  TestStation monitor(MacAddr::Experimental(9), /*promiscuous=*/true);
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&monitor);
  segment.Transmit(&a, MakeFrame(2, 1));
  sim.Run();
  EXPECT_EQ(monitor.frames.size(), 1u);
}

TEST(SegmentTest, TransmissionTimeMatchesBandwidth) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);  // 3 Mbit/s
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);

  const Frame frame = MakeFrame(2, 1, 371);  // 375 bytes = 3000 bits = 1 ms at 3 Mb/s
  segment.Transmit(&a, frame);
  sim.Run();
  ASSERT_EQ(b.times.size(), 1u);
  const auto elapsed = b.times[0].time_since_epoch();
  EXPECT_EQ(elapsed, pfsim::Milliseconds(1) + pfsim::Microseconds(5));  // + propagation
}

TEST(SegmentTest, MediumSerializesBackToBackFrames) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);

  segment.Transmit(&a, MakeFrame(2, 1, 371));  // 1 ms each
  segment.Transmit(&a, MakeFrame(2, 1, 371));
  sim.Run();
  ASSERT_EQ(b.times.size(), 2u);
  EXPECT_EQ((b.times[1] - b.times[0]), pfsim::Milliseconds(1));
  EXPECT_EQ(segment.stats().frames_carried, 2u);
  EXPECT_EQ(segment.stats().bytes_carried, 750u);
}

TEST(SegmentTest, LossInjectionDropsApproximately) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.SetLossRate(0.3, 1234);

  for (int i = 0; i < 1000; ++i) {
    segment.Transmit(&a, MakeFrame(2, 1, 4));
  }
  sim.Run();
  EXPECT_GT(segment.stats().frames_lost, 230u);
  EXPECT_LT(segment.stats().frames_lost, 370u);
  EXPECT_EQ(b.frames.size() + segment.stats().frames_lost, 1000u);
}

TEST(FrameTest, FcsDetectsCorruptionAndTruncation) {
  Frame frame = MakeFrame(2, 1, 32);
  EXPECT_TRUE(frame.FcsIntact());  // never stamped: verification skipped
  EXPECT_FALSE(frame.Truncated());

  frame.StampFcs();
  EXPECT_TRUE(frame.FcsIntact());
  EXPECT_FALSE(frame.Truncated());

  Frame corrupted = frame;
  corrupted.bytes.MutableSpan()[10] ^= 0x40;
  EXPECT_FALSE(corrupted.FcsIntact());
  EXPECT_FALSE(corrupted.Truncated());

  Frame cut = frame;
  cut.bytes.Truncate(cut.bytes.size() - 7);
  EXPECT_TRUE(cut.Truncated());
}

TEST(SegmentTest, ConcurrentTransmittersSerializeOnMedium) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  TestStation c(MacAddr::Experimental(3));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Attach(&c);

  // Both stations transmit at t=0: the second queues behind medium_free_at_,
  // so deliveries to c are exactly one transmission time apart.
  segment.Transmit(&a, MakeFrame(3, 1, 371));  // 1 ms each at 3 Mb/s
  segment.Transmit(&b, MakeFrame(3, 2, 371));
  sim.Run();
  ASSERT_EQ(c.times.size(), 2u);
  EXPECT_EQ(c.times[1] - c.times[0], pfsim::Milliseconds(1));
  EXPECT_EQ(segment.stats().frames_offered, 2u);
  EXPECT_EQ(segment.stats().frames_carried, 2u);
}

TEST(SegmentTest, LossConservationIdentityUnderSeededLoss) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.SetLossRate(0.3, 1234);

  constexpr uint64_t kFrames = 1000;
  for (uint64_t i = 0; i < kFrames; ++i) {
    segment.Transmit(&a, MakeFrame(2, 1, 4));
  }
  sim.Run();
  const EthernetSegment::Stats& stats = segment.stats();
  EXPECT_EQ(stats.frames_offered, kFrames);
  EXPECT_EQ(stats.frames_offered + stats.frames_duplicated,
            stats.frames_carried + stats.frames_lost);
  // Every carried frame reached its (single) addressee.
  EXPECT_EQ(b.frames.size(), stats.frames_carried);
  EXPECT_EQ(segment.impairment_stats().dropped(), stats.frames_lost);
}

TEST(SegmentTest, ImpairmentsAreSeedReplayable) {
  auto run = [](uint64_t seed) {
    pfsim::Simulator sim;
    EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
    TestStation a(MacAddr::Experimental(1));
    TestStation b(MacAddr::Experimental(2));
    segment.Attach(&a);
    segment.Attach(&b);
    pflink::ImpairmentConfig config;
    config.seed = seed;
    config.loss = 0.1;
    config.corrupt = 0.1;
    config.duplicate = 0.05;
    config.truncate = 0.05;
    config.reorder = 0.1;
    segment.SetImpairments(config);
    for (int i = 0; i < 400; ++i) {
      segment.Transmit(&a, MakeFrame(2, 1, 64));
    }
    sim.Run();
    return std::make_pair(b.frames, segment.impairment_stats());
  };
  const auto [frames1, stats1] = run(42);
  const auto [frames2, stats2] = run(42);
  EXPECT_EQ(frames1, frames2);  // byte-identical delivery, fault for fault
  EXPECT_EQ(stats1.dropped(), stats2.dropped());
  EXPECT_EQ(stats1.corrupted, stats2.corrupted);
  EXPECT_EQ(stats1.duplicated, stats2.duplicated);
  EXPECT_EQ(stats1.truncated, stats2.truncated);
  EXPECT_EQ(stats1.reordered, stats2.reordered);
  const auto [frames3, stats3] = run(43);
  EXPECT_NE(frames1, frames3);  // a different seed is a different run
}

TEST(SegmentTest, DuplicateDeliversPristineSecondCopy) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.duplicate = 1.0;
  segment.SetImpairments(config);

  segment.Transmit(&a, MakeFrame(2, 1, 64));
  sim.Run();
  ASSERT_EQ(b.raw.size(), 2u);
  EXPECT_EQ(b.frames[0], b.frames[1]);
  EXPECT_TRUE(b.raw[0].FcsIntact());
  EXPECT_TRUE(b.raw[1].FcsIntact());
  EXPECT_EQ(segment.stats().frames_duplicated, 1u);
  EXPECT_EQ(segment.stats().frames_carried, 2u);
  EXPECT_EQ(segment.stats().frames_offered + segment.stats().frames_duplicated,
            segment.stats().frames_carried + segment.stats().frames_lost);
}

TEST(SegmentTest, CorruptionSparesHeaderAndTripsFcs) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.corrupt = 1.0;
  segment.SetImpairments(config);

  const Frame sent = MakeFrame(2, 1, 64);
  segment.Transmit(&a, sent);
  sim.Run();
  ASSERT_EQ(b.raw.size(), 1u);  // header intact, so routing still worked
  const Frame& got = b.raw[0];
  EXPECT_EQ(std::vector<uint8_t>(got.bytes.begin(), got.bytes.begin() + 4),
            std::vector<uint8_t>(sent.bytes.begin(), sent.bytes.begin() + 4));
  EXPECT_NE(got.bytes, sent.bytes);
  EXPECT_FALSE(got.FcsIntact());
  EXPECT_FALSE(got.Truncated());
}

TEST(SegmentTest, TruncationKeepsRoutableHeader) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.truncate = 1.0;
  segment.SetImpairments(config);

  const Frame sent = MakeFrame(2, 1, 64);
  segment.Transmit(&a, sent);
  sim.Run();
  ASSERT_EQ(b.raw.size(), 1u);
  EXPECT_GE(b.raw[0].size(), 4u);  // never below the link header
  EXPECT_LT(b.raw[0].size(), sent.size());
  EXPECT_TRUE(b.raw[0].Truncated());
}

TEST(SegmentTest, BurstLossDropsRunsOfFrames) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.burst_enter = 0.05;
  config.burst_exit = 0.25;
  segment.SetImpairments(config);

  for (int i = 0; i < 1000; ++i) {
    segment.Transmit(&a, MakeFrame(2, 1, 4));
  }
  sim.Run();
  const pflink::ImpairmentStats& stats = segment.impairment_stats();
  EXPECT_GT(stats.dropped_burst, 0u);
  EXPECT_EQ(stats.dropped_independent, 0u);
  EXPECT_EQ(segment.stats().frames_offered,
            segment.stats().frames_carried + segment.stats().frames_lost);
}

TEST(SegmentTest, ReorderJitterLetsLaterFramesOvertake) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  pflink::ImpairmentConfig config;
  config.reorder = 0.5;
  config.reorder_jitter = pfsim::Milliseconds(5);
  segment.SetImpairments(config);

  for (uint8_t i = 0; i < 50; ++i) {
    Frame frame = MakeFrame(2, 1, 8);
    frame.bytes.MutableSpan()[4] = i;  // sequence tag in the payload
    segment.Transmit(&a, frame);
  }
  sim.Run();
  ASSERT_EQ(b.frames.size(), 50u);
  bool out_of_order = false;
  for (size_t i = 1; i < b.frames.size(); ++i) {
    if (b.frames[i][4] < b.frames[i - 1][4]) {
      out_of_order = true;
    }
  }
  EXPECT_TRUE(out_of_order);
  EXPECT_GT(segment.impairment_stats().reordered, 0u);
}

TEST(SegmentTest, DetachStopsDelivery) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation b(MacAddr::Experimental(2));
  segment.Attach(&a);
  segment.Attach(&b);
  segment.Detach(&b);
  segment.Transmit(&a, MakeFrame(2, 1));
  sim.Run();
  EXPECT_TRUE(b.frames.empty());
}

// A station that rewires the segment from inside its delivery callback.
class RewiringStation : public TestStation {
 public:
  RewiringStation(MacAddr addr, EthernetSegment* segment, Station* leaving, Station* joining)
      : TestStation(addr), segment_(segment), leaving_(leaving), joining_(joining) {}
  void OnFrameDelivered(const Frame& frame, pfsim::TimePoint at) override {
    TestStation::OnFrameDelivered(frame, at);
    if (frames.size() == 1) {
      segment_->Detach(leaving_);
      segment_->Attach(joining_);
    }
  }

 private:
  EthernetSegment* segment_;
  Station* leaving_;
  Station* joining_;
};

TEST(SegmentTest, RewiringDuringDeliveryAffectsOnlyLaterFrames) {
  pfsim::Simulator sim;
  EthernetSegment segment(&sim, LinkType::kExperimental3Mb);
  TestStation a(MacAddr::Experimental(1));
  TestStation leaving(MacAddr::Experimental(3));
  TestStation joining(MacAddr::Experimental(4));
  RewiringStation hook(MacAddr::Experimental(2), &segment, &leaving, &joining);
  segment.Attach(&a);
  segment.Attach(&hook);
  segment.Attach(&leaving);

  // The frame being delivered keeps the receivers it started with.
  segment.Transmit(&a, MakeFrame(0, 1));
  sim.Run();
  EXPECT_EQ(hook.frames.size(), 1u);
  EXPECT_EQ(leaving.frames.size(), 1u);
  EXPECT_TRUE(joining.frames.empty());

  // The next frame sees the rewired segment.
  segment.Transmit(&a, MakeFrame(0, 1));
  sim.Run();
  EXPECT_EQ(hook.frames.size(), 2u);
  EXPECT_EQ(leaving.frames.size(), 1u);
  EXPECT_EQ(joining.frames.size(), 1u);
}

}  // namespace
