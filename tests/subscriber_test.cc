// Identity resolution in the subscriber db (UDM role) and the core's use
// of it: the MSIN and TMSI indices, the exact-MSIN rule, and the core's
// per-UE cached subscriber; then 5G-AKA between that core and a SIM.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "corenet/core_network.h"
#include "corenet/subscriber.h"
#include "modem/sim_iface.h"
#include "nas/causes.h"
#include "nas/messages.h"
#include "ran/gnb.h"
#include "simapplet/applet.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace seed::corenet {
namespace {

std::string supi_for(std::size_t i) {
  char msin[16];
  std::snprintf(msin, sizeof msin, "%010zu", i + 20000000);
  return std::string("310-260-") + msin;
}

Subscriber subscriber(const std::string& supi) {
  Subscriber s;
  s.supi = supi;
  return s;
}

nas::Guti guti_with(std::uint32_t tmsi) {
  nas::Guti g;
  g.plmn = {310, 310};
  g.amf_region = 1;
  g.amf_set = 1;
  g.tmsi = tmsi;
  return g;
}

TEST(SubscriberDb, EveryMsinOfTenThousandResolvesToItsOwnRecord) {
  SubscriberDb db;
  for (std::size_t i = 0; i < 10000; ++i) db.add(subscriber(supi_for(i)));
  for (std::size_t i = 0; i < 10000; ++i) {
    const std::string supi = supi_for(i);
    const Subscriber* s = db.find_by_msin(supi.substr(8));
    ASSERT_NE(s, nullptr) << supi;
    ASSERT_EQ(s, db.find(supi)) << supi;
  }
}

TEST(SubscriberDb, EmptyOrSuffixMsinNamesNoSubscriber) {
  SubscriberDb db;
  db.add(subscriber("310-260-0020000000"));
  EXPECT_NE(db.find_by_msin("0020000000"), nullptr);
  EXPECT_EQ(db.find_by_msin(""), nullptr);
  EXPECT_EQ(db.find_by_msin("0000"), nullptr);
  EXPECT_EQ(db.find_by_msin("020000000"), nullptr);
  EXPECT_EQ(db.find_by_msin("10020000000"), nullptr);
}

TEST(SubscriberDb, ReAddKeepsIndicesOnTheLiveRecord) {
  SubscriberDb db;
  Subscriber& first = db.add(subscriber("310-260-0000000001"));
  db.assign_guti(first, guti_with(77));
  // Re-provision the same SUPI from a copy with new keys; the copy still
  // carries the GUTI the core handed out.
  Subscriber update = first;
  update.k[0] = 0xab;
  update.authorized = false;
  Subscriber& live = db.add(update);
  EXPECT_EQ(&live, &first);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.find_by_msin("0000000001"), &live);
  EXPECT_EQ(db.find_by_guti(guti_with(77)), &live);
  EXPECT_EQ(live.k[0], 0xab);
  EXPECT_FALSE(live.authorized);
}

TEST(SubscriberDb, AssignGutiDropsTheOldTmsi) {
  SubscriberDb db;
  Subscriber& a = db.add(subscriber(supi_for(0)));
  Subscriber& b = db.add(subscriber(supi_for(1)));
  db.assign_guti(a, guti_with(1));
  db.assign_guti(b, guti_with(2));
  EXPECT_EQ(db.tmsi_index_size(), 2u);
  db.assign_guti(a, guti_with(3));
  EXPECT_EQ(db.tmsi_index_size(), 2u);
  EXPECT_EQ(db.find_by_guti(guti_with(1)), nullptr);
  EXPECT_EQ(db.find_by_guti(guti_with(3)), &a);
  EXPECT_EQ(db.find_by_guti(guti_with(2)), &b);
  // The TMSI matches but the rest of the GUTI does not: a stale identity.
  nas::Guti other_area = guti_with(3);
  other_area.amf_region = 2;
  EXPECT_EQ(db.find_by_guti(other_area), nullptr);
}

// ------------------------------------------- through the core's uplink

/// One standalone core with one attached UE whose downlink decodes and
/// keeps every NAS message the core sends.
struct CoreRig {
  sim::Simulator sim;
  sim::Rng rng{7};
  SubscriberDb db;
  ran::Gnb gnb{sim, rng};
  CoreNetwork core{sim, rng, db};
  std::vector<nas::NasMessage> downlink;
  UeId ue = 0;

  explicit CoreRig(const std::string& supi) {
    ue = core.attach_device(supi, gnb, [this](BytesView wire) {
      if (auto m = nas::decode_message(wire)) downlink.push_back(*m);
    });
  }

  /// Sends a SUCI Registration Request and returns what came back.
  const nas::NasMessage& register_with(const std::string& msin) {
    nas::RegistrationRequest req;
    req.identity.kind = nas::MobileIdentity::Kind::kSuci;
    req.identity.suci = {{310, 260}, msin};
    downlink.clear();
    core.on_uplink(ue, nas::encode_message(nas::NasMessage(req)));
    sim.run_for(sim::seconds(1));
    EXPECT_EQ(downlink.size(), 1u);
    return downlink.front();
  }
};

std::optional<std::uint8_t> reject_cause(const nas::NasMessage& m) {
  if (const auto* rej = std::get_if<nas::RegistrationReject>(&m)) {
    return rej->cause;
  }
  return std::nullopt;
}

TEST(CoreIdentity, SuciNamingNoSubscriberGetsCause9) {
  // One subscriber: suffix matching resolved both forms to it, and the
  // isolation check passed because it is this link's own SUPI.
  CoreRig rig("310-260-0020000000");
  rig.db.add(subscriber("310-260-0020000000"));
  constexpr auto kCause9 =
      static_cast<std::uint8_t>(nas::MmCause::kUeIdentityCannotBeDerived);
  EXPECT_EQ(reject_cause(rig.register_with("")), kCause9);
  EXPECT_EQ(reject_cause(rig.register_with("0000")), kCause9);
  EXPECT_TRUE(std::holds_alternative<nas::AuthenticationRequest>(
      rig.register_with("0020000000")));
}

TEST(CoreIdentity, SubscriberAddedAfterAttachIsFound) {
  CoreRig rig("310-260-0000000001");
  ASSERT_EQ(rig.db.size(), 0u);
  rig.db.add(subscriber("310-260-0000000001"));
  EXPECT_TRUE(std::holds_alternative<nas::AuthenticationRequest>(
      rig.register_with("0000000001")));
}

TEST(CoreIdentity, AnotherSubscribersMsinIsRejected) {
  CoreRig rig("310-260-0000000001");
  rig.db.add(subscriber("310-260-0000000001"));
  rig.db.add(subscriber("310-260-0000000002"));
  EXPECT_EQ(reject_cause(rig.register_with("0000000002")),
            static_cast<std::uint8_t>(
                nas::MmCause::kUeIdentityCannotBeDerived));
}

// ------------------------------------------------ 5G-AKA core <-> SIM

TEST(CoreAka, SimAcceptsCoreAutnAndRejectsAnyMacBitFlip) {
  using Kind = modem::AuthResult::Kind;
  sim::Rng keys(35206);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    CoreRig rig("310-260-0000000001");
    Subscriber sub = subscriber("310-260-0000000001");
    for (auto& b : sub.k) b = static_cast<std::uint8_t>(keys.next());
    for (auto& b : sub.opc) b = static_cast<std::uint8_t>(keys.next());
    sub.sqn = keys.next() & 0xffffffffffffull;  // 48-bit SQN
    rig.db.add(sub);
    const auto* req = std::get_if<nas::AuthenticationRequest>(
        &rig.register_with("0000000001"));
    ASSERT_NE(req, nullptr);

    applet::SeedApplet sim_card(rig.sim, rig.rng, modem::SimProfile{}, sub.k,
                                sub.opc, crypto::Key128{});
    const modem::AuthResult ok = sim_card.authenticate(req->rand, req->autn);
    ASSERT_EQ(ok.kind, Kind::kSuccess);
    // The core takes the SIM's RES as its own and moves on to security
    // mode control.
    rig.downlink.clear();
    rig.core.on_uplink(rig.ue, nas::encode_message(nas::NasMessage(
                                   nas::AuthenticationResponse{ok.res})));
    rig.sim.run_for(sim::seconds(1));
    ASSERT_EQ(rig.downlink.size(), 1u);
    EXPECT_TRUE(
        std::holds_alternative<nas::SecurityModeCommand>(rig.downlink[0]));

    for (std::size_t bit = 0; bit < 64; ++bit) {
      auto autn = req->autn;
      autn[8 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_EQ(sim_card.authenticate(req->rand, autn).kind,
                Kind::kMacFailure)
          << "MAC-A bit " << bit;
    }
  }
}

}  // namespace
}  // namespace seed::corenet
