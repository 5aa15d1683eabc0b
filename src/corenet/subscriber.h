// Subscriber database (UDM role): identities, keys, subscription data,
// and per-subscriber traffic policies enforced at the UPF.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/aes.h"
#include "nas/ie.h"

namespace seed::corenet {

/// Traffic policy enforced by the UPF. SEED's report path checks reports
/// against this (paper §4.4.2: "checks if the failure type, direction, and
/// address conflict with user policies").
struct TrafficPolicy {
  bool tcp_blocked = false;
  bool udp_blocked = false;
  bool dns_blocked = false;
  std::set<std::uint16_t> blocked_ports;
};

struct Subscriber {
  std::string supi;
  crypto::Key128 k{};
  crypto::Key128 opc{};
  /// In-SIM key shared with the SEED applet for the covert channels.
  crypto::Key128 seed_key{};

  bool authorized = true;    // false -> Illegal UE (#3), user action
  bool plan_active = true;   // false -> expired plan, user action

  /// DNNs this subscriber may use; the front entry is what the network
  /// currently expects (the device's copy may be outdated).
  std::vector<std::string> subscribed_dnns = {"internet"};
  std::set<nas::PduSessionType> allowed_types = {nas::PduSessionType::kIpv4,
                                                 nas::PduSessionType::kIpv4v6};
  /// Slices this subscriber may use; front = the slice the network
  /// currently serves (cause #62 ships it as the suggested S-NSSAI).
  std::vector<nas::SNssai> subscribed_slices = {nas::SNssai{1, std::nullopt}};
  std::uint8_t max_sessions = 4;

  TrafficPolicy policy;

  // ---- dynamic state owned by the core
  std::optional<nas::Guti> guti;           // current temporary identity
  std::uint64_t sqn = 0x100;               // auth sequence number
};

/// Identity resolution is served from three indices, none of which scans
/// the table: the SUPI map itself, an MSIN index and a TMSI index.
class SubscriberDb {
 public:
  /// Provisions `s`, replacing the record of an existing SUPI in place.
  Subscriber& add(Subscriber s);
  Subscriber* find(const std::string& supi);
  const Subscriber* find(const std::string& supi) const;
  /// Reverse lookup by GUTI (nullptr when the mapping was lost — the
  /// "UE identity cannot be derived" desync of paper Table 1). Served
  /// from the TMSI index kept by assign_guti, so a core with thousands
  /// of attached UEs resolves identities in O(1).
  Subscriber* find_by_guti(const nas::Guti& guti);

  /// Assigns a fresh GUTI, replacing the subscriber's old one in the
  /// TMSI index. All GUTI (re)assignments must go through here or
  /// find_by_guti will miss; `sub` must be a record of this db.
  void assign_guti(Subscriber& sub, const nas::Guti& guti);

  /// Lookup by the MSIN digits of a SUCI. The SUCI's PLMN field carries
  /// the *selected* network in this simulation, so identity resolution
  /// keys on the subscriber number alone. A subscriber's MSIN is its
  /// SUPI's digits after the last '-', and only an exact match resolves:
  /// an empty MSIN, or a proper suffix of one, names no subscriber. If
  /// two SUPIs share an MSIN, the first in SUPI order wins.
  Subscriber* find_by_msin(std::string_view msin);

  /// True when any subscriber may use this DNN (unknown vs unsubscribed
  /// distinguishes SM cause #27 from #33).
  bool dnn_known(const std::string& dnn) const;
  void register_known_dnn(const std::string& dnn) {
    known_dnns_.insert(dnn);
    ++mutation_epoch_;
  }
  /// Operator deprovisions a DNN network-wide (scenario hook).
  void forget_dnn(const std::string& dnn) {
    known_dnns_.erase(dnn);
    ++mutation_epoch_;
  }

  std::size_t size() const { return subs_.size(); }
  /// Entries in the TMSI index: one per GUTI assign_guti handed out and
  /// has not replaced since.
  std::size_t tmsi_index_size() const { return guti_index_.size(); }

  // ----- mutation epoch (diagnosis-cache invalidation, ccache-style)
  //
  // Cached diagnosis results are only valid for the subscriber/config
  // state they were computed against. Provisioning mutations bump this
  // epoch; callers that mutate a Subscriber in place (scenario hooks,
  // operator heals) must call note_subscriber_mutation() so caches keyed
  // on the old state are explicitly invalidated. The diagnosis cache
  // additionally digests every classify input, so a missed bump degrades
  // to a harmless extra key, never a stale payload.
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }
  void note_subscriber_mutation() { ++mutation_epoch_; }

 private:
  /// Records are never erased, and re-provisioning a SUPI assigns into its
  /// existing node, so a Subscriber* or a view of a key stays valid for the
  /// db's lifetime. The indices below and CoreNetwork's per-UE cache rely
  /// on it: erasing a record would need all of them purged first.
  std::map<std::string, Subscriber> subs_;
  std::set<std::string> known_dnns_ = {"internet", "ims", "DIAG"};
  /// MSIN -> record behind find_by_msin; keys view into subs_' keys.
  std::unordered_map<std::string_view, Subscriber*> msin_index_;
  /// TMSI -> record behind find_by_guti.
  std::unordered_map<std::uint32_t, Subscriber*> guti_index_;
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace seed::corenet
