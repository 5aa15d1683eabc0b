#include "corenet/subscriber.h"

namespace seed::corenet {

Subscriber& SubscriberDb::add(Subscriber s) {
  for (const auto& d : s.subscribed_dnns) known_dnns_.insert(d);
  auto [it, fresh] = subs_.insert_or_assign(s.supi, std::move(s));
  ++mutation_epoch_;
  if (fresh) {
    // The key, unlike the record's own supi string, is never reassigned.
    const std::string_view supi = it->first;
    const auto [m, first] =
        msin_index_.emplace(supi.substr(supi.rfind('-') + 1), &it->second);
    if (!first && supi < m->second->supi) m->second = &it->second;  // clash
  }
  return it->second;
}

Subscriber* SubscriberDb::find(const std::string& supi) {
  const auto it = subs_.find(supi);
  return it == subs_.end() ? nullptr : &it->second;
}

const Subscriber* SubscriberDb::find(const std::string& supi) const {
  const auto it = subs_.find(supi);
  return it == subs_.end() ? nullptr : &it->second;
}

Subscriber* SubscriberDb::find_by_guti(const nas::Guti& guti) {
  const auto it = guti_index_.find(guti.tmsi);
  if (it == guti_index_.end()) return nullptr;
  Subscriber* s = it->second;
  // The TMSI matched but the rest of the GUTI must too (region/set/PLMN
  // mismatches mean a stale identity from another registration area).
  return s->guti && *s->guti == guti ? s : nullptr;
}

void SubscriberDb::assign_guti(Subscriber& sub, const nas::Guti& guti) {
  if (sub.guti) guti_index_.erase(sub.guti->tmsi);
  sub.guti = guti;
  guti_index_[guti.tmsi] = &sub;
}

Subscriber* SubscriberDb::find_by_msin(std::string_view msin) {
  const auto it = msin_index_.find(msin);
  return it == msin_index_.end() ? nullptr : it->second;
}

bool SubscriberDb::dnn_known(const std::string& dnn) const {
  return known_dnns_.contains(dnn);
}

}  // namespace seed::corenet
