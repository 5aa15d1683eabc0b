#include "chaos/chaos.h"

#include <utility>

#include "obs/trace.h"
#include "simcore/fleet_runner.h"

namespace seed::chaos {

std::string_view point_name(Point p) {
  switch (p) {
    case Point::kDownlinkDrop: return "downlink-drop";
    case Point::kDownlinkDup: return "downlink-dup";
    case Point::kDownlinkCorrupt: return "downlink-corrupt";
    case Point::kUplinkDrop: return "uplink-drop";
    case Point::kUplinkDup: return "uplink-dup";
    case Point::kUplinkCorrupt: return "uplink-corrupt";
    case Point::kResetOutcome: return "reset-outcome";
    case Point::kAppletCrash: return "applet-crash";
    case Point::kSemanticDownlink: return "semantic-downlink";
    case Point::kSemanticUplink: return "semantic-uplink";
    case Point::kReplayDownlink: return "replay-downlink";
    case Point::kUnsolicitedDownlink: return "unsolicited-downlink";
    case Point::kCount: break;
  }
  return "invalid";
}

std::string_view semantic_mutation_name(SemanticMutation m) {
  switch (m) {
    case SemanticMutation::kTypeConfusion: return "type-confusion";
    case SemanticMutation::kTruncatedLength: return "truncated-length";
    case SemanticMutation::kOversizedLength: return "oversized-length";
    case SemanticMutation::kZeroFragCount: return "zero-frag-count";
    case SemanticMutation::kInflatedFragCount: return "inflated-frag-count";
    case SemanticMutation::kCount: break;
  }
  return "invalid";
}

void apply_semantic_autn(SemanticMutation m, std::uint8_t* autn,
                         std::size_t len) {
  if (autn == nullptr || len < 2) return;
  switch (m) {
    case SemanticMutation::kTypeConfusion: autn[0] ^= 0xF0; break;
    case SemanticMutation::kTruncatedLength: autn[1] = 0x01; break;
    case SemanticMutation::kOversizedLength: autn[1] = 0xFF; break;
    case SemanticMutation::kZeroFragCount: autn[0] &= 0xF0; break;
    case SemanticMutation::kInflatedFragCount: autn[0] |= 0x0F; break;
    case SemanticMutation::kCount: break;
  }
}

void apply_semantic_dnn(SemanticMutation m, std::vector<Bytes>& labels) {
  if (labels.empty() || labels.front().size() < 5) return;
  Bytes& header = labels.front();
  switch (m) {
    case SemanticMutation::kTypeConfusion:
      header[4] ^= 0xF0;
      break;
    case SemanticMutation::kTruncatedLength:
      if (labels.size() > 1) labels.pop_back();
      break;
    case SemanticMutation::kOversizedLength:
      header.push_back('X');  // header label must be exactly tag+1 bytes
      break;
    case SemanticMutation::kZeroFragCount:
      header[4] &= 0xF0;
      break;
    case SemanticMutation::kInflatedFragCount:
      header[4] |= 0x0F;
      break;
    case SemanticMutation::kCount:
      break;
  }
}

namespace {
template <std::size_t... I>
std::array<sim::Rng, sizeof...(I)> make_streams(std::uint64_t seed,
                                                std::index_sequence<I...>) {
  // Stream i seeds from shard_seed(seed, i), so appending new Points
  // never shifts the sequences of the existing ones.
  return {sim::Rng(sim::shard_seed(seed, I))...};
}
}  // namespace

ChaosEngine::ChaosEngine(const ChaosConfig& config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      streams_(make_streams(
          seed,
          std::make_index_sequence<static_cast<std::size_t>(Point::kCount)>{})) {
}

bool ChaosEngine::roll(Point point, double p) {
  if (p <= 0.0) return false;
  return stream(point).chance(p);
}

void ChaosEngine::note(Point point) {
  obs::emit(obs::EventKind::kChaosInjected, obs::Origin::kTestbed,
            {.cause = static_cast<std::uint8_t>(point)});
}

bool ChaosEngine::drop_downlink() {
  if (!roll(Point::kDownlinkDrop, config_.downlink_drop)) return false;
  ++stats_.downlink_dropped;
  note(Point::kDownlinkDrop);
  return true;
}

bool ChaosEngine::duplicate_downlink() {
  if (!roll(Point::kDownlinkDup, config_.downlink_dup)) return false;
  ++stats_.downlink_duplicated;
  note(Point::kDownlinkDup);
  return true;
}

bool ChaosEngine::corrupt_downlink(BitFlip* flip) {
  if (!roll(Point::kDownlinkCorrupt, config_.downlink_corrupt)) return false;
  sim::Rng& s = stream(Point::kDownlinkCorrupt);
  flip->byte = s.next();
  flip->bit = static_cast<std::uint8_t>(s.next() & 7);
  ++stats_.downlink_corrupted;
  note(Point::kDownlinkCorrupt);
  return true;
}

bool ChaosEngine::drop_uplink() {
  if (!roll(Point::kUplinkDrop, config_.uplink_drop)) return false;
  ++stats_.uplink_dropped;
  note(Point::kUplinkDrop);
  return true;
}

bool ChaosEngine::duplicate_uplink() {
  if (!roll(Point::kUplinkDup, config_.uplink_dup)) return false;
  ++stats_.uplink_duplicated;
  note(Point::kUplinkDup);
  return true;
}

bool ChaosEngine::corrupt_uplink(BitFlip* flip) {
  if (!roll(Point::kUplinkCorrupt, config_.uplink_corrupt)) return false;
  sim::Rng& s = stream(Point::kUplinkCorrupt);
  flip->byte = s.next();
  flip->bit = static_cast<std::uint8_t>(s.next() & 7);
  ++stats_.uplink_corrupted;
  note(Point::kUplinkCorrupt);
  return true;
}

ResetOutcome ChaosEngine::reset_outcome(std::uint8_t action) {
  // A per-action override pins the outcome regardless of the AT knobs.
  const double pinned =
      action < config_.action_fail.size() ? config_.action_fail[action] : 0.0;
  if (pinned > 0.0) {
    if (roll(Point::kResetOutcome, pinned)) {
      ++stats_.resets_failed;
      note(Point::kResetOutcome);
      return ResetOutcome::kFail;
    }
    return ResetOutcome::kNormal;
  }
  // The AT knobs cover the B-tier commands (CFUN/CGATT/CGACT, codes 4-6).
  if (action < 4 || action > 6) return ResetOutcome::kNormal;
  if (roll(Point::kResetOutcome, config_.at_fail)) {
    ++stats_.resets_failed;
    note(Point::kResetOutcome);
    return ResetOutcome::kFail;
  }
  if (roll(Point::kResetOutcome, config_.at_timeout)) {
    ++stats_.resets_timed_out;
    note(Point::kResetOutcome);
    return ResetOutcome::kTimeout;
  }
  return ResetOutcome::kNormal;
}

bool ChaosEngine::crash_applet() {
  if (!roll(Point::kAppletCrash, config_.applet_crash)) return false;
  ++stats_.applet_crashes;
  note(Point::kAppletCrash);
  return true;
}

bool ChaosEngine::mutate_downlink(SemanticMutation* m) {
  if (!roll(Point::kSemanticDownlink, config_.semantic_downlink)) return false;
  *m = static_cast<SemanticMutation>(
      stream(Point::kSemanticDownlink).next() %
      static_cast<std::uint64_t>(SemanticMutation::kCount));
  ++stats_.downlink_mutated;
  note(Point::kSemanticDownlink);
  return true;
}

bool ChaosEngine::mutate_uplink(SemanticMutation* m) {
  if (!roll(Point::kSemanticUplink, config_.semantic_uplink)) return false;
  *m = static_cast<SemanticMutation>(
      stream(Point::kSemanticUplink).next() %
      static_cast<std::uint64_t>(SemanticMutation::kCount));
  ++stats_.uplink_mutated;
  note(Point::kSemanticUplink);
  return true;
}

void ChaosEngine::capture_downlink(const std::uint8_t* autn,
                                   std::size_t len) {
  if (config_.replay_downlink <= 0.0) return;
  if (autn == nullptr || len == 0) return;
  std::array<std::uint8_t, 16>& slot = replay_ring_[ring_next_];
  slot.fill(0);
  const std::size_t n = len < slot.size() ? len : slot.size();
  for (std::size_t i = 0; i < n; ++i) slot[i] = autn[i];
  ring_next_ = (ring_next_ + 1) % replay_ring_.size();
  if (ring_size_ < replay_ring_.size()) ++ring_size_;
}

bool ChaosEngine::replay_stale_downlink(std::array<std::uint8_t, 16>* autn) {
  if (!roll(Point::kReplayDownlink, config_.replay_downlink)) return false;
  if (ring_size_ == 0) return false;
  const std::size_t idx =
      static_cast<std::size_t>(stream(Point::kReplayDownlink).next()) %
      ring_size_;
  *autn = replay_ring_[idx];
  ++stats_.downlink_replayed;
  note(Point::kReplayDownlink);
  return true;
}

bool ChaosEngine::unsolicited_downlink(std::array<std::uint8_t, 16>* autn) {
  if (!roll(Point::kUnsolicitedDownlink, config_.unsolicited_downlink)) {
    return false;
  }
  sim::Rng& s = stream(Point::kUnsolicitedDownlink);
  for (std::size_t i = 0; i < autn->size(); i += 8) {
    const std::uint64_t word = s.next();
    for (std::size_t b = 0; b < 8 && i + b < autn->size(); ++b) {
      (*autn)[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  ++stats_.unsolicited_injected;
  note(Point::kUnsolicitedDownlink);
  return true;
}

}  // namespace seed::chaos
