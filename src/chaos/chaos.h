// Deterministic fault injection for SEED's *own* recovery machinery.
//
// The testbed's corenet::Faults injects the paper's network failures;
// this layer impairs the recovery path itself: the §4.5 collaboration
// channel (drop or bit-flip downlink AUTN fragments and uplink DIAG-DNN
// fragments, plus 5Greplay-style semantic mutation, stale replay and
// unsolicited injection) and the Table 3 reset actions (commands that
// return ERROR). Attaching an engine also turns on the hardening that
// copes with it: the applet's retry/deadline/escalation ladder, the
// device's recovery watchdog and the ack-guards on both collab ends.
//
// Determinism: every injection point owns its own RNG stream derived
// from the engine seed with the same splitmix64 finalizer the fleet
// runner uses for shard seeds (sim::shard_seed). A point whose
// probability is zero never draws, so an engine with an all-zero config
// — or no engine at all — leaves every shared RNG sequence untouched
// and fleet runs stay byte-reproducible per seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "simcore/rng.h"

namespace seed::chaos {

struct ChaosConfig {
  // ----- collaboration channel, downlink (core -> SIM AUTN fragments)
  double downlink_drop = 0.0;     // fragment lost before the SIM sees it
  double downlink_corrupt = 0.0;  // one bit flipped in the AUTN field

  // ----- collaboration channel, uplink (DIAG-DNN report fragments)
  double uplink_drop = 0.0;       // PDU request lost on the air
  double uplink_corrupt = 0.0;    // one bit flipped in a payload label

  // ----- reset-action execution (AT+CFUN / CGATT / CGACT, B-tier)
  double at_fail = 0.0;           // command returns ERROR

  /// Per-action failure override, indexed by the proto::ResetAction code
  /// (1..6 = A1,A2,A3,B1,B2,B3). Takes precedence over at_fail when
  /// non-zero; this is how a test pins "A2 always fails".
  std::array<double, 8> action_fail{};

  // ----- semantic (protocol-aware) adversarial injection
  // Field-aware mutations in the 5Greplay style: instead of flipping a
  // random bit, these forge plausible-but-wrong header fields so the
  // *decoders* — not the integrity check alone — must hold the line.
  double semantic_downlink = 0.0;     // mutate an AUTN covert fragment
  double semantic_uplink = 0.0;       // mutate a DIAG-DNN report fragment
  double replay_downlink = 0.0;       // re-deliver a stale captured fragment
  double unsolicited_downlink = 0.0;  // fabricate a pre-security-context
                                      // downlink with no matching transfer
};

/// Injection decision points; each owns an independent RNG stream so
/// enabling one impairment never shifts another's sequence. The numbers
/// are stable: each seeds its point's stream and rides in a
/// kChaosInjected event's `cause`. 1, 4 and 7 are retired points
/// (downlink duplicate, uplink duplicate, applet crash) and stay unused.
enum class Point : std::uint8_t {
  kDownlinkDrop = 0,
  kDownlinkCorrupt = 2,
  kUplinkDrop = 3,
  kUplinkCorrupt = 5,
  kResetFail = 6,
  kSemanticDownlink = 8,
  kSemanticUplink = 9,
  kReplayDownlink = 10,
  kUnsolicitedDownlink = 11,
  kCount = 12,
};

/// Stable name of an injection point; decodes a kChaosInjected trace
/// event's `cause` field.
std::string_view point_name(Point p);

/// Field-aware mutation shapes shared by the downlink (AUTN fragment)
/// and uplink (DIAG-DNN fragment) mutators. Each targets a specific
/// header field the decoders must validate, not a random bit.
enum class SemanticMutation : std::uint8_t {
  kTypeConfusion = 0,   // sequence nibble flipped: frame claims to be a
                        // different fragment than the transfer expects
  kTruncatedLength,     // declared total length below the fragment-count
                        // minimum (frame "ends" before its own fragments)
  kOversizedLength,     // declared total length beyond any legal frame
  kZeroFragCount,       // fragment-count nibble zeroed (total = 0)
  kInflatedFragCount,   // fragment-count nibble maxed (total = 15)
  kCount,
};

std::string_view semantic_mutation_name(SemanticMutation m);

/// Applies `m` in place to a 16-byte AUTN covert fragment
/// (byte0 = seq<<4|total, byte1 = declared frame length on fragment 0).
/// No-op when `len < 2`.
void apply_semantic_autn(SemanticMutation m, std::uint8_t* autn,
                         std::size_t len);

/// Applies `m` in place to a DIAG-DNN label set (label 0 = "DIAG" +
/// header byte). kTruncatedLength drops the last payload label; the
/// others rewrite the header label. No-op when the labels do not look
/// like a DIAG header (first label shorter than 5 bytes).
void apply_semantic_dnn(SemanticMutation m, std::vector<Bytes>& labels);

struct ChaosStats {
  std::uint64_t downlink_dropped = 0;
  std::uint64_t downlink_corrupted = 0;
  std::uint64_t uplink_dropped = 0;
  std::uint64_t uplink_corrupted = 0;
  std::uint64_t resets_failed = 0;
  std::uint64_t downlink_mutated = 0;
  std::uint64_t uplink_mutated = 0;
  std::uint64_t downlink_replayed = 0;
  std::uint64_t unsolicited_injected = 0;
  std::uint64_t total() const {
    return downlink_dropped + downlink_corrupted + uplink_dropped +
           uplink_corrupted + resets_failed + downlink_mutated +
           uplink_mutated + downlink_replayed + unsolicited_injected;
  }
};

/// A single-bit corruption: the caller applies it as
/// `buf[byte % buf.size()] ^= (1u << bit)`.
struct BitFlip {
  std::uint64_t byte = 0;  // raw draw; reduce modulo the buffer size
  std::uint8_t bit = 0;    // 0..7
};

class ChaosEngine {
 public:
  ChaosEngine(const ChaosConfig& config, std::uint64_t seed);

  const ChaosStats& stats() const { return stats_; }

  // ----- downlink AUTN fragment (modem -> SIM APDU boundary)
  bool drop_downlink();
  /// Returns the flip to apply to the 16-byte AUTN field, or nothing.
  bool corrupt_downlink(BitFlip* flip);

  // ----- uplink DIAG-DNN fragment (modem -> core)
  bool drop_uplink();
  /// Returns the flip to apply to the fragment's payload bytes.
  bool corrupt_uplink(BitFlip* flip);

  // ----- reset actions (action = proto::ResetAction code 1..6)
  /// True when the command should return ERROR instead of running.
  bool fail_reset(std::uint8_t action);

  // ----- semantic adversarial injection
  /// Picks a field-aware mutation for the outbound AUTN fragment.
  bool mutate_downlink(SemanticMutation* m);
  /// Picks a field-aware mutation for the outbound DIAG-DNN fragment.
  bool mutate_uplink(SemanticMutation* m);
  /// Records a delivered downlink fragment into the stale-replay ring.
  /// Draws no RNG and is a no-op unless replay_downlink > 0, so capture
  /// never perturbs other streams.
  void capture_downlink(const std::uint8_t* autn, std::size_t len);
  /// Re-emits a previously captured (now stale) fragment, if the roll
  /// fires and the ring holds at least one capture.
  bool replay_stale_downlink(std::array<std::uint8_t, 16>* autn);
  /// Fabricates an unsolicited pre-security-context AUTN payload with
  /// no matching transfer behind it.
  bool unsolicited_downlink(std::array<std::uint8_t, 16>* autn);

 private:
  /// Bernoulli draw from the point's private stream; never draws when
  /// `p <= 0`, so disabled impairments consume nothing.
  bool roll(Point point, double p);
  sim::Rng& stream(Point point) {
    return streams_[static_cast<std::size_t>(point)];
  }
  void note(Point point);

  ChaosConfig config_;
  std::array<sim::Rng, static_cast<std::size_t>(Point::kCount)> streams_;
  ChaosStats stats_;
  // Stale-fragment replay ring: the most recent downlink captures, oldest
  // overwritten first. Fixed-size so a long run cannot grow it.
  std::array<std::array<std::uint8_t, 16>, 8> replay_ring_{};
  std::size_t ring_size_ = 0;
  std::size_t ring_next_ = 0;
};

}  // namespace seed::chaos
