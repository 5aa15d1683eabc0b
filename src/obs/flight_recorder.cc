#include "obs/flight_recorder.h"

#include <ostream>

namespace seed::obs {

void FlightRecorder::on_trace_event(const Event& e) {
  if (e.kind == EventKind::kLog || e.kind == EventKind::kSloAlert) return;
  Ring<Event>& ring = rings_.try_emplace(e.ue, capacity_).first->second;
  ring.push(e);  // eviction is the point: only the tail survives
  if (e.kind != EventKind::kTerminalFailure) return;

  BlackboxSnapshot box;
  box.ue = e.ue;
  box.at_us = e.at_us;
  box.reason = e.detail;
  ring.append_to(box.events);
  blackboxes_.push_back(std::move(box));
  // The ring keeps rolling: a UE can die twice (watchdog terminal, then
  // a later ladder exhaustion) and each terminal gets its own blackbox.
}

void FlightRecorder::ingest(const std::vector<Event>& events) {
  for (const Event& e : events) on_trace_event(e);
}

void FlightRecorder::merge_from(const FlightRecorder& other) {
  blackboxes_.insert(blackboxes_.end(), other.blackboxes_.begin(),
                     other.blackboxes_.end());
}

void FlightRecorder::dump_jsonl(std::ostream& os) const {
  for (const BlackboxSnapshot& box : blackboxes_) {
    os << "{\"blackbox\":{\"ue\":" << box.ue << ",\"at_us\":" << box.at_us
       << ",\"reason\":\"";
    write_escaped(os, box.reason);
    os << "\",\"events\":" << box.events.size() << "}}\n";
    for (const Event& e : box.events) export_event_jsonl(os, e);
  }
}

void FlightRecorder::clear() {
  rings_.clear();
  blackboxes_.clear();
}

}  // namespace seed::obs
