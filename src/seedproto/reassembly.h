// Fragment sequencing shared by the two §4.5 reassemblers (AUTN downlink,
// DIAG-DNN uplink). The fragments of one transfer arrive in order; a
// re-send of the fragment just consumed, or of a completed transfer's
// final fragment (its ACK was lost), is a benign duplicate; anything else
// drops the partial frame and resynchronizes on the next seq-0 fragment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/bytes.h"

namespace seed::proto {

class Reassembly {
 public:
  void reset() {
    buffer_.clear();
    expected_total_ = 0;
    received_ = 0;
    last_completed_total_ = 0;
  }
  std::size_t pending_fragments() const { return received_; }
  /// True when the most recent feed()/feed_view() *rejected* its input
  /// (malformed or inconsistent fragment). False for the benign nullopt
  /// cases — mid-transfer progress and duplicates — so receivers can
  /// account for genuinely malformed traffic.
  bool last_rejected() const { return last_rejected_; }

 protected:
  enum class Admit { kAppend, kDuplicate, kReject };

  /// Sequences fragment `seq` of `total`. On kAppend the caller appends
  /// the payload; seq 0 starts a new transfer on an emptied buffer (it is
  /// cleared only now, so the last completed frame's view stayed valid).
  Admit admit(std::uint8_t seq, std::uint8_t total) {
    if (total == 0 || seq >= total) return Admit::kReject;
    if (received_ == 0) {
      if (seq != 0) {
        return total == last_completed_total_ && seq == total - 1
                   ? Admit::kDuplicate
                   : Admit::kReject;
      }
      buffer_.clear();  // keeps capacity: steady state allocates nothing
      expected_total_ = total;
      return Admit::kAppend;
    }
    // Known defect: a new transfer's seq 0 arriving mid-transfer is taken
    // for a duplicate or rejected (AutnCodec.MidTransferRestart...).
    if (seq == received_ - 1 && total == expected_total_) {
      return Admit::kDuplicate;
    }
    return seq == received_ && total == expected_total_ ? Admit::kAppend
                                                        : Admit::kReject;
  }

  /// Counts the appended fragment; true when it completed the transfer.
  /// The buffer is kept until the next transfer starts.
  bool complete() {
    if (++received_ < expected_total_) return false;
    last_completed_total_ = expected_total_;
    expected_total_ = 0;
    received_ = 0;
    return true;
  }

  static std::optional<Bytes> copy(std::optional<BytesView> view) {
    if (!view) return std::nullopt;
    return Bytes(view->begin(), view->end());
  }

  std::optional<BytesView> reject() {
    reset();
    last_rejected_ = true;
    return std::nullopt;
  }

  Bytes buffer_;
  bool last_rejected_ = false;

 private:
  std::uint8_t expected_total_ = 0;
  std::uint8_t received_ = 0;
  std::uint8_t last_completed_total_ = 0;
};

}  // namespace seed::proto
