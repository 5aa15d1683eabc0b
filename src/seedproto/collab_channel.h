// The §4.5 SIM<->network collaboration channel (Fig. 7), written once for
// both directions: the assistance downlink (AUTN fragments in DFlag Auth
// Requests, ACKed by Synch Failure) and the report uplink (DIAG-DNN
// fragments in PDU Session Establishment Requests, ACKed by a reject).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/params.h"
#include "crypto/security_context.h"
#include "simcore/simulator.h"

namespace seed::proto {

/// Logical channel id of the collab frames' SecurityContext; the SIM and
/// the core must agree on it.
inline constexpr std::uint8_t kSeedBearer = 7;

/// Stop-and-wait sender: one fragment on the wire at a time, the next only
/// after the peer's ACK. The owner passes a small copyable `Link` to every
/// call instead of storing callbacks, so a per-UE sender holds no
/// std::function. A Link provides:
///   FragmentSender& sender() const;    // this sender (ack-guard re-entry)
///   bool guarded() const;              // arm the ack guard (chaos attached)
///   void transmit(const Frag&) const;  // put one fragment on the wire
///   void done(bool ok) const;          // all acked / given up or displaced
template <class Frag>
class FragmentSender {
 public:
  explicit FragmentSender(sim::Simulator& sim) : guard_(sim) {}

  /// Ends a transfer still in flight with done(false) and returns the
  /// emptied fragment buffer (capacity kept) for the next one, which is
  /// not sending() until its first pump().
  template <class Link>
  std::vector<Frag>& restart(const Link& link) {
    finish(link, false);
    return frags_;
  }

  /// Takes the fragment on the wire as acked (called on the peer's ACK,
  /// or to send the first fragment) and sends the next one, or ends the
  /// transfer with done(true) once none is left. ACKs carry no fragment
  /// number: a second ACK for one fragment (its guard retransmit or a
  /// replay got through too) is taken as the next one's. Every fragment
  /// still goes out in order, but that one loses its guard.
  template <class Link>
  void pump(const Link& link) {
    retries_ = 0;
    guard_.cancel();
    if (next_ < frags_.size()) {
      transmit(link, next_++);
    } else {
      finish(link, true);
    }
  }

  /// True from a transfer's first pump() until it ends: only then is an
  /// ACK-shaped message from the peer an ACK.
  bool sending() const { return next_ > 0; }
  /// The fragment the next pump() sends, or null when none is left.
  const Frag* peek() const {
    return next_ < frags_.size() ? &frags_[next_] : nullptr;
  }

 private:
  template <class Link>
  void transmit(const Link& link, std::size_t i) {
    link.transmit(frags_[i]);
    if (link.guarded()) {
      guard_.arm(params::kDiagFragAckGuard,
                 [link] { link.sender().on_guard(link); });
    }
  }

  // Fires only while sending(): pump() and finish() cancel the guard.
  template <class Link>
  void on_guard(const Link& link) {
    if (++retries_ > params::kDiagFragMaxRetries) {
      finish(link, false);
    } else {
      transmit(link, next_ - 1);
    }
  }

  template <class Link>
  void finish(const Link& link, bool ok) {
    const bool had_transfer = !frags_.empty();
    frags_.clear();
    next_ = 0;
    retries_ = 0;
    guard_.cancel();
    if (had_transfer) link.done(ok);
  }

  std::vector<Frag> frags_;
  sim::Timer guard_;      // armed only when link.guarded()
  std::size_t next_ = 0;  // fragments sent so far
  int retries_ = 0;       // retransmits of fragment next_ - 1
};

/// One received fragment's outcome. Neither field set is benign: progress
/// mid-transfer, a duplicate fragment, or an exact replay of the last
/// accepted frame (a retransmit whose ACK was lost; no strike).
template <class Msg>
struct Received {
  std::optional<Msg> msg;           // a complete, authentic, decodable frame
  const char* malformed = nullptr;  // why the input was refused
};

/// Receiver: reassemble -> unprotect -> decode a `Msg` (DiagInfo on the
/// downlink, FailureReport on the uplink).
template <class Reassembler, class Msg>
class FrameReceiver {
 public:
  /// Feeds one fragment; `plain` is the caller's decrypt scratch.
  template <class Frag>
  Received<Msg> feed(const Frag& frag, crypto::SecurityContext& ctx,
                     crypto::Direction dir, Bytes& plain) {
    const auto frame = reassembler_.feed_view(frag);
    if (!frame) {
      return {std::nullopt,
              reassembler_.last_rejected() ? "malformed fragment" : nullptr};
    }
    if (!ctx.unprotect_into(*frame, dir, plain)) {
      const bool replay = std::equal(frame->begin(), frame->end(),
                                     last_frame_.begin(), last_frame_.end());
      return {std::nullopt, replay ? nullptr : "integrity-failed frame"};
    }
    auto msg = Msg::decode(plain);
    if (!msg) return {std::nullopt, "undecodable payload"};
    last_frame_.assign(frame->begin(), frame->end());
    return {std::move(msg), nullptr};
  }

 private:
  Reassembler reassembler_;
  Bytes last_frame_;  // the last accepted frame
};

}  // namespace seed::proto
