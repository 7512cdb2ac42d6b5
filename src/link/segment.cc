#include "src/link/segment.h"

#include <algorithm>
#include <utility>

namespace pflink {

namespace {
// Propagation + interframe gap; small relative to the millisecond-scale
// costs the paper measures, but keeps event ordering physical.
constexpr pfsim::Duration kPropagationDelay = pfsim::Microseconds(5);
}  // namespace

EthernetSegment::EthernetSegment(pfsim::Simulator* sim, LinkType type)
    : sim_(sim), props_(PropertiesFor(type)) {}

void EthernetSegment::Attach(Station* station) {
  auto next = std::make_shared<std::vector<Station*>>(*stations_);
  next->push_back(station);
  stations_ = std::move(next);
}

void EthernetSegment::Detach(Station* station) {
  auto next = std::make_shared<std::vector<Station*>>(*stations_);
  std::erase(*next, station);
  stations_ = std::move(next);
}

void EthernetSegment::SetLossRate(double p, uint64_t seed) {
  ImpairmentConfig config;
  config.seed = seed;
  config.loss = p;
  SetImpairments(config);
}

void EthernetSegment::SetImpairments(const ImpairmentConfig& config) {
  impairer_ = std::make_unique<Impairer>(config);
  impairer_->AttachMetrics(registry_);
}

const ImpairmentStats& EthernetSegment::impairment_stats() const {
  static const ImpairmentStats kEmpty{};
  return impairer_ != nullptr ? impairer_->stats() : kEmpty;
}

const ImpairmentConfig* EthernetSegment::impairment_config() const {
  return impairer_ != nullptr ? &impairer_->config() : nullptr;
}

void EthernetSegment::AttachMetrics(pfobs::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry_ != nullptr) {
    carried_counter_ = registry_->counter("link.frames_carried");
    lost_counter_ = registry_->counter("link.frames_lost");
  } else {
    carried_counter_ = nullptr;
    lost_counter_ = nullptr;
  }
  if (impairer_ != nullptr) {
    impairer_->AttachMetrics(registry_);
  }
}

void EthernetSegment::Transmit(const Station* from, Frame frame) {
  (void)from;  // the sender does not hear its own transmission in this model
  const pfsim::TimePoint now = sim_->Now();
  const pfsim::TimePoint start = std::max(now, medium_free_at_);
  const auto tx_ns = static_cast<int64_t>(frame.size()) * 8 * 1000000000 /
                     static_cast<int64_t>(props_.bits_per_sec);
  const pfsim::TimePoint done = start + pfsim::Duration(tx_ns);
  medium_free_at_ = done;

  ++stats_.frames_offered;
  // The FCS reflects the bytes as the transmitter put them on the wire, so
  // stamp before any impairment mutates the frame.
  frame.StampFcs();

  if (impairer_ == nullptr || !impairer_->config().Any()) {
    Carry(std::move(frame), done, pfsim::Duration::zero());
    return;
  }

  // A duplicate is a pristine second copy — but with refcounted frames the
  // snapshot is free: both Frames share the block, and if Apply() corrupts
  // the original, copy-on-write peels it off while this view keeps the
  // bytes as stamped (truncation only shrinks the original's view).
  Frame pristine;
  if (impairer_->config().duplicate > 0.0) {
    pristine = frame;
  }
  // `done` is the frame's wire time: a burst window is tested against when
  // the frame finishes serializing, so backed-off retries can outlive it.
  const Impairer::Verdict verdict = impairer_->Apply(&frame, props_.header_len, done);
  if (verdict.dropped) {
    ++stats_.frames_lost;
    if (lost_counter_ != nullptr) {
      lost_counter_->Add();
    }
    return;  // the medium stays busy for the lost frame's duration
  }
  if (verdict.duplicate) {
    ++stats_.frames_duplicated;
    // The copy trails the original by one transmission time (a duplicating
    // driver re-sends; the medium serializes it behind the original).
    medium_free_at_ = done + pfsim::Duration(tx_ns);
    Carry(std::move(pristine), medium_free_at_, pfsim::Duration::zero());
  }
  Carry(std::move(frame), done, verdict.extra_delay);
}

void EthernetSegment::Carry(Frame frame, pfsim::TimePoint at, pfsim::Duration extra_delay) {
  stats_.frames_carried++;
  stats_.bytes_carried += frame.size();
  if (carried_counter_ != nullptr) {
    carried_counter_->Add();
  }
  sim_->ScheduleAt(at + kPropagationDelay + extra_delay,
                   [this, f = std::move(frame)] { Deliver(f); });
}

void EthernetSegment::Deliver(const Frame& frame) {
  const std::optional<LinkHeader> header = ParseHeader(props_.type, frame.AsSpan());
  if (!header.has_value()) {
    return;
  }
  // Iterate over a snapshot: a delivery callback may attach/detach stations,
  // which replaces stations_ and leaves this frame's receivers as they were.
  const std::shared_ptr<const std::vector<Station*>> snapshot = stations_;
  for (Station* s : *snapshot) {
    const bool addressed = header->dst == s->link_addr() || header->dst.IsBroadcast() ||
                           header->dst.IsMulticast();
    if (addressed || s->promiscuous()) {
      s->OnFrameDelivered(frame, sim_->Now());
    }
  }
}

}  // namespace pflink
