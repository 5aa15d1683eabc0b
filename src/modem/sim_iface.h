// Modem <-> SIM interface: the APDU-level surface the SEED applet sits
// behind (AUTHENTICATE, profile files, proactive commands) plus the
// control surface the applet/carrier-app drives for multi-tier resets.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "nas/ie.h"

namespace seed::modem {

/// SIM profile files the modem reads at boot / on REFRESH.
struct SimProfile {
  nas::Suci suci;                       // subscriber identity
  nas::PlmnId preferred_plmn{310, 260}; // PLMN priority list head (EF_PLMNsel)
  std::string dnn = "internet";         // data-plane config (APN/DNN)
  nas::PduSessionType pdu_type = nas::PduSessionType::kIpv4;
  std::uint8_t fiveqi = 9;
  /// Requested network slice (paper §9: SEED extends to slice-aware
  /// diagnosis; cause #62 ships a suggested S-NSSAI, Appendix A).
  nas::SNssai snssai{1, std::nullopt};
};

/// Result of the AUTHENTICATE APDU.
struct AuthResult {
  enum class Kind : std::uint8_t {
    kSuccess,       // RES computed, proceed with Authentication Response
    kSynchFailure,  // return Authentication Failure (cause 21, AUTS) — also
                    // SEED's ACK for a DFlag diagnosis fragment
    kMacFailure,    // return Authentication Failure (cause 20)
  };
  Kind kind = Kind::kSuccess;
  Bytes res;                              // kSuccess
  std::array<std::uint8_t, 14> auts{};    // kSynchFailure
};

/// What the SIM card exposes to the modem.
class SimCard {
 public:
  virtual ~SimCard() = default;
  virtual const SimProfile& profile() const = 0;
  virtual AuthResult authenticate(const std::array<std::uint8_t, 16>& rand,
                                  const std::array<std::uint8_t, 16>& autn) = 0;
};

/// What the modem (plus carrier app for A3) exposes to the SIM applet —
/// the execution surface of the multi-tier reset (paper Fig. 5).
/// All operations are asynchronous; `done(success)` fires when the action
/// and its follow-up attach/session procedures settle.
class ModemControl {
 public:
  using Done = std::function<void(bool success)>;
  virtual ~ModemControl() = default;

  /// A1: REFRESH proactive command — reload SIM files, clear cached
  /// identities/contexts, re-register and re-establish data.
  virtual void refresh_profile(Done done) = 0;
  /// A2: update control-plane configuration (PLMN priority list et al.)
  /// via proactive command; takes effect on the next (re)registration.
  /// `done(true)` means the config write itself landed — service health
  /// is judged by the follow-up action that uses it.
  virtual void update_cplane_config(const nas::PlmnId& plmn, Done done) = 0;
  /// Slice config update (§9 extension): takes effect on the next
  /// session establishment/modification.
  virtual void update_slice(const nas::SNssai& snssai) = 0;
  /// A3: update data-plane configuration via the carrier app (UICC
  /// privilege) and restart the data connection with it.
  virtual void update_dplane_config(const std::string& dnn,
                                    std::optional<nas::Ipv4> dns,
                                    Done done) = 0;
  /// B1: AT+CFUN modem reset.
  virtual void at_modem_reset(Done done) = 0;
  /// B2: AT+CGATT detach/attach without cell re-search.
  virtual void at_reattach(Done done) = 0;
  /// B3 (report): send an uplink diagnosis report as DIAG DNN PDU
  /// session requests (Fig. 7b); done(true) when all fragments ACKed,
  /// done(false) when the transfer is given up or a newer report
  /// displaces it.
  virtual void send_diag_report(const std::vector<nas::Dnn>& dnns,
                                Done done) = 0;
  /// B3 (reset): Fig. 6 fast data-plane reset — bring up DIAG session,
  /// cycle DATA, drop DIAG; never releases the last radio bearer.
  virtual void fast_dplane_reset(Done done) = 0;
  /// B3 (modification): apply an updated data-plane config directly via
  /// AT+CGDCONT and re-activate / modify the session — the rooted, faster
  /// sibling of A3 (paper Table 3: "Data-plane Modification (B3)").
  virtual void at_dplane_modify(const std::string& dnn, Done done) = 0;
};

}  // namespace seed::modem
