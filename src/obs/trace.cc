#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <type_traits>

#include "common/minijson.h"
#include "obs/event_ring.h"
#include "obs/trace_binary.h"
#include "simcore/log.h"
#include "simcore/simulator.h"

namespace seed::obs {
namespace {

constexpr auto kKindNames = std::to_array<std::string_view>({
    "failure_injected", "failure_detected",   "diagnosis_made",
    "reset_issued",     "reset_completed",    "recovered",
    "collab_downlink",  "collab_uplink",      "conflict_suppressed",
    "rate_limited",     "log",                "chaos_injected",
    "action_retry",     "tier_escalated",     "watchdog_fired",
    "degraded",         "cache_lookup",       "terminal_failure",
    "slo_alert",        "decode_rejected",    "peer_quarantined",
    "suspect_report_dropped",                 "ground_truth",
    "diagnosis_verdict",
});
static_assert(kKindNames.size() == kEventKindCount,
              "every EventKind needs a name");

// print_summary's per-kind count columns, in print order. An empty label
// keeps the kind counted but unprinted (the stage and action columns
// already show it, or it carries no per-span signal).
struct SummaryColumn {
  EventKind kind;
  std::string_view label;
};
constexpr auto kSummaryColumns = std::to_array<SummaryColumn>({
    {EventKind::kConflictSuppressed, "conflicts"},
    {EventKind::kRateLimited, "rate_limited"},
    {EventKind::kCollabDownlink, "dl"},
    {EventKind::kCollabUplink, "ul"},
    {EventKind::kChaosInjected, "chaos"},
    {EventKind::kActionRetry, "retries"},
    {EventKind::kTierEscalated, "escalations"},
    {EventKind::kWatchdogFired, "watchdog"},
    {EventKind::kDegraded, "degraded"},
    {EventKind::kCacheLookup, "cache"},  // printed as hits/lookups
    {EventKind::kTerminalFailure, "terminal"},
    {EventKind::kDecodeRejected, "decode_rejects"},
    {EventKind::kPeerQuarantined, "quarantined"},
    {EventKind::kSuspectReportDropped, "suspect_dropped"},
    {EventKind::kGroundTruthLabel, "labels"},
    {EventKind::kDiagnosisVerdict, "verdicts"},
    {EventKind::kFailureInjected, ""},
    {EventKind::kFailureDetected, ""},
    {EventKind::kDiagnosisMade, ""},
    {EventKind::kResetIssued, ""},
    {EventKind::kResetCompleted, ""},
    {EventKind::kRecovered, ""},
    {EventKind::kLog, ""},
    {EventKind::kSloAlert, ""},
});

constexpr bool lists_every_kind_once() {
  std::array<int, kEventKindCount> seen{};
  for (const SummaryColumn& c : kSummaryColumns) {
    ++seen[static_cast<std::size_t>(c.kind)];
  }
  for (const int n : seen) {
    if (n != 1) return false;
  }
  return true;
}
static_assert(lists_every_kind_once(),
              "every EventKind needs exactly one summary column");

constexpr std::array<std::string_view, 6> kOriginNames = {
    "none", "sim", "infra", "os", "modem", "testbed",
};

/// Reads `key` from a parsed record as T, leaving `field` untouched when
/// the key is absent. A present value of the wrong type, or one an
/// integer T cannot hold exactly (a fraction, out of range), throws
/// ParseError.
template <class T>
void read_number(const minijson::Value& record, std::string_view key,
                 T& field) {
  const minijson::Value* v = record.find(key);
  if (v == nullptr) return;
  const double d = v->as_number();
  if constexpr (std::is_integral_v<T>) {
    // max() + 1 rounds to a power of two, so `<` admits exactly max().
    constexpr double kLo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double kEnd =
        static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
    if (!(d >= kLo && d < kEnd) ||
        static_cast<double>(static_cast<T>(d)) != d) {
      throw minijson::ParseError("number does not fit its field", 0);
    }
  }
  field = static_cast<T>(d);
}

}  // namespace

// JSON string escaping for event details and blackbox reasons (the rest
// of each record is numeric or from fixed name tables). Details can
// carry *arbitrary* bytes — DIAG-DNN payload fragments,
// corrupted-by-chaos labels — so every byte outside printable ASCII is
// emitted as \u00xx (the byte value, latin-1 style). That keeps the
// output pure ASCII, valid JSON, and exactly byte-round-trippable through
// import_jsonl; interpreting multi-byte encodings is deliberately the
// reader's problem.
void write_escaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default: {
        const auto b = static_cast<unsigned char>(c);
        if (b < 0x20 || b >= 0x7f) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", b);
          os << buf.data();
        } else {
          os << c;
        }
      }
    }
  }
}

std::string_view event_kind_name(EventKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kKindNames.size() ? kKindNames[i] : "unknown";
}

std::optional<EventKind> event_kind_from(std::string_view name) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) return static_cast<EventKind>(i);
  }
  return std::nullopt;
}

std::string_view origin_name(Origin o) {
  const auto i = static_cast<std::size_t>(o);
  return i < kOriginNames.size() ? kOriginNames[i] : "unknown";
}

std::optional<Origin> origin_from(std::string_view name) {
  for (std::size_t i = 0; i < kOriginNames.size(); ++i) {
    if (kOriginNames[i] == name) return static_cast<Origin>(i);
  }
  return std::nullopt;
}

std::string_view action_code_name(std::uint8_t action) {
  static constexpr std::array<std::string_view, 7> kNames = {
      "-", "A1", "A2", "A3", "B1", "B2", "B3"};
  return action < kNames.size() ? kNames[action] : "?";
}

std::uint8_t tier_of_action(std::uint8_t action) {
  switch (action) {
    case 1: case 4: return 1;  // A1/B1: hardware (profile / full modem)
    case 2: case 5: return 2;  // A2/B2: control plane
    case 3: case 6: return 3;  // A3/B3: data plane
    default: return 0;
  }
}

std::string_view tier_name(std::uint8_t tier) {
  switch (tier) {
    case 1: return "hardware";
    case 2: return "cplane";
    case 3: return "dplane";
    default: return "-";
  }
}

Tracer& Tracer::instance() {
  // Thread-local: every fleet-runner worker gets an isolated tracer, so
  // parallel shards record into private event buffers; the fleet layer
  // merges captures into the caller's tracer in shard order (absorb()).
  static thread_local Tracer tracer;
  return tracer;
}

/// Tail-retention bookkeeping (out-of-line: trace_binary.h, whose payload
/// codec it uses, includes trace.h). One slot per UE label, indexed by
/// the label itself: multi-UE runs number devices 1..N (0 is the
/// unattributed stream), so the vector is dense and one index finds a
/// UE's ring and whether its stream is durable from a promotion on.
///
/// A ring holds each event as its SEEDTRC EVT payload, not as an Event:
/// most buffered events age out unread, so each is written once on the
/// way in and only a promotion reads it back, through the capture codec
/// (exact for every field). An event whose payload does not fit a cell,
/// whose detail cannot be interned, or whose kind or origin the codec
/// rejects is kept whole in the escape store instead.
struct Tracer::RetentionState {
  /// One buffered event: `len` payload bytes whose detail id indexes the
  /// intern table. `len` 0 marks an escaped event, and the first four
  /// payload bytes then hold its escape-store index.
  struct Cell {
    std::uint8_t len = 0;
    std::array<std::uint8_t, 47> payload;
  };
  static_assert(sizeof(Cell) <= 48, "a ring slot is a 48-byte cell");

  struct Slot {
    Ring<Cell> ring;  // released once the UE is retained
    bool retained = false;
  };

  /// Interning stops at this many texts, and a longer text is never
  /// interned: such details escape, so the table stays small however
  /// many distinct texts a stream carries.
  static constexpr std::size_t kMaxTexts = 4096;
  static constexpr std::size_t kMaxTextBytes = 256;

  explicit RetentionState(const RetentionPolicy& p) : policy(p) {}

  bool is_trigger(const Event& e) const {
    switch (e.kind) {
      case EventKind::kTerminalFailure:
      case EventKind::kPeerQuarantined:
        return true;
      case EventKind::kSloAlert:
        // `ok` encodes "not firing": a breach is the firing transition.
        if (!e.ok) return true;
        break;
      default:
        break;
    }
    return policy.trigger != nullptr && policy.trigger(e);
  }

  Slot& slot(std::uint32_t ue) {
    if (ue >= slots.size()) {
      slots.resize(std::size_t{ue} + 1, Slot{Ring<Cell>(policy.ring_depth)});
    }
    return slots[ue];
  }

  Cell cell_of(const Event& e) {
    Cell c;
    std::uint32_t detail_id = 0;
    if (event_kind_name(e.kind) != "unknown" &&
        origin_name(e.origin) != "unknown" && intern(e.detail, detail_id)) {
      EventPayload payload;
      const std::size_t n = write_event_payload(e, detail_id, payload);
      if (n <= c.payload.size()) {
        c.len = static_cast<std::uint8_t>(n);
        std::memcpy(c.payload.data(), payload.data(), n);
        return c;
      }
    }
    const std::uint32_t i = stash(e);
    std::memcpy(c.payload.data(), &i, sizeof(i));
    return c;
  }

  Event event_of(const Cell& c) {
    if (c.len == 0) {
      const std::uint32_t i = escape_index(c);
      Event e = std::move(escapes[i]);
      release(c);
      return e;
    }
    Event e;
    std::uint32_t detail_id = 0;
    read_event_payload({c.payload.data(), c.len}, e, detail_id);
    if (detail_id != 0) e.detail = *texts[detail_id - 1];
    return e;
  }

  /// Frees the escape entry of a cell leaving its ring unread.
  void release(const Cell& c) {
    if (c.len != 0) return;
    const std::uint32_t i = escape_index(c);
    escapes[i] = Event{};
    free_escapes.push_back(i);
  }

  static std::uint32_t escape_index(const Cell& c) {
    std::uint32_t i = 0;
    std::memcpy(&i, c.payload.data(), sizeof(i));
    return i;
  }

  bool intern(const std::string& text, std::uint32_t& out) {
    if (text.empty()) return true;
    if (const auto it = text_ids.find(text); it != text_ids.end()) {
      out = it->second;
      return true;
    }
    if (text.size() > kMaxTextBytes || texts.size() == kMaxTexts) return false;
    const auto it = text_ids.emplace(text, texts.size() + 1).first;
    texts.push_back(&it->first);
    out = it->second;
    return true;
  }

  std::uint32_t stash(const Event& e) {
    if (free_escapes.empty()) {
      escapes.push_back(e);
      return static_cast<std::uint32_t>(escapes.size() - 1);
    }
    const std::uint32_t i = free_escapes.back();
    free_escapes.pop_back();
    escapes[i] = e;
    return i;
  }

  RetentionPolicy policy;
  RetentionStats stats;
  std::vector<Slot> slots;
  // Intern table: ids are 1-based positions in `texts`, which points at
  // the map's keys (map nodes never move).
  std::map<std::string, std::uint32_t, std::less<>> text_ids;
  std::vector<const std::string*> texts;
  // Escape store: one entry per escaped cell still in a ring, so it
  // never holds more entries than the rings hold cells.
  std::vector<Event> escapes;
  std::vector<std::uint32_t> free_escapes;
};

Tracer::~Tracer() = default;

void Tracer::set_retention(const RetentionPolicy& policy) {
  retention_ = std::make_unique<RetentionState>(policy);
}

void Tracer::clear_retention() { retention_.reset(); }

RetentionStats Tracer::retention_stats() const {
  if (retention_ == nullptr) return {};
  RetentionStats out = retention_->stats;
  out.bytes_retained = record_bytes(events_);
  return out;
}

void Tracer::pin_ue(std::uint32_t ue) {
  if (retention_ == nullptr) return;
  RetentionState& rs = *retention_;
  RetentionState::Slot& slot = rs.slot(ue);
  if (slot.retained) return;
  slot.retained = true;
  ++rs.stats.ues_retained;
  for (const RetentionState::Cell& c : slot.ring.take()) {
    ++rs.stats.events_retained;
    events_.push_back(rs.event_of(c));
  }
}

void Tracer::seal_retention() {
  if (retention_ == nullptr) return;
  RetentionState& rs = *retention_;
  for (RetentionState::Slot& slot : rs.slots) {
    rs.stats.events_aged_out += slot.ring.size();
    slot.ring.clear();
  }
  // Every escape entry belonged to a record in a ring, now all empty.
  std::vector<Event>().swap(rs.escapes);
  std::vector<std::uint32_t>().swap(rs.free_escapes);
}

void Tracer::route_retained(const Event& e) {
  RetentionState& rs = *retention_;
  RetentionState::Slot& slot = rs.slot(e.ue);
  if (!slot.retained) {
    if (!rs.is_trigger(e)) {
      if (const auto evicted = slot.ring.push(rs.cell_of(e))) {
        ++rs.stats.events_aged_out;
        rs.release(*evicted);
      }
      return;
    }
    pin_ue(e.ue);  // replays the ring ahead of the triggering event
  }
  ++rs.stats.events_retained;
  events_.push_back(e);
}

void Tracer::absorb(std::vector<Event> events) {
  // Renumber incoming spans AND event ids into this tracer's id space in
  // first-seen order, so concatenating shard captures in shard order
  // yields one collision-free, deterministic stream with intact causal
  // links. Parent references that point outside the absorbed batch are
  // cut (they cannot resolve here).
  std::map<SpanId, SpanId> span_remap;
  std::map<std::uint64_t, std::uint64_t> seq_remap;
  for (Event& e : events) {
    if (e.span != 0) {
      auto [it, inserted] = span_remap.emplace(e.span, 0);
      if (inserted) it->second = next_span_++;
      e.span = it->second;
    }
    if (e.seq != 0) seq_remap[e.seq] = next_seq_;
    e.seq = next_seq_++;
    if (e.parent != 0) {
      const auto it = seq_remap.find(e.parent);
      e.parent = it == seq_remap.end() ? 0 : it->second;
    }
    events_.push_back(std::move(e));
  }
}

void Tracer::add_observer(EventObserver* observer) {
  if (observer == nullptr) return;
  for (EventObserver* o : observers_) {
    if (o == observer) return;
  }
  observers_.push_back(observer);
}

void Tracer::remove_observer(EventObserver* observer) {
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (*it == observer) {
      observers_.erase(it);
      return;
    }
  }
}

void Tracer::enable(bool on) {
  if (on == enabled_) return;
  enabled_ = on;
  auto& logger = sim::Logger::instance();
  if (on) {
    // Bridge SLOG into the trace stream: lines still print through the
    // stock writer, and land as kLog events with the same clock.
    logger.set_sink([](sim::LogLevel level, std::string_view component,
                       std::string_view message, const sim::TimePoint*) {
      sim::Logger::instance().write_default(level, component, message);
      Tracer& t = Tracer::instance();
      if (!t.enabled()) return;
      Event e;
      e.kind = EventKind::kLog;
      e.detail.reserve(component.size() + 2 + message.size());
      e.detail.append(component);
      e.detail.append(": ");
      e.detail.append(message);
      t.record_now(std::move(e));
    });
  } else {
    logger.set_sink(nullptr);
  }
}

void Tracer::set_clock(const sim::TimePoint* now) {
  now_ = now;
  // One timestamp source for logs and trace events.
  sim::Logger::instance().set_clock(now);
}

SpanId Tracer::begin_span() {
  active_span_ = next_span_++;
  causal_ = CausalState{};
  return active_span_;
}

std::uint64_t Tracer::parent_for(const Event& e) const {
  const CausalState& st = causal_;
  // Cascade of causal anchors, most specific first. Every rule falls
  // back to the span's last structural event, so even an emit sequence
  // the rules never anticipated still forms one connected tree.
  const auto anchor = [&st](std::uint64_t preferred) {
    return preferred != 0 ? preferred : st.last;
  };
  switch (e.kind) {
    case EventKind::kFailureInjected:
      return 0;  // a new failure is the root of its own tree
    case EventKind::kFailureDetected:
      return anchor(st.injected);
    case EventKind::kDiagnosisMade:
      if (e.origin == Origin::kInfra) return anchor(st.injected);
      return anchor(st.detected != 0 ? st.detected : st.infra_diag);
    case EventKind::kCacheLookup:
      return anchor(st.injected);
    case EventKind::kCollabDownlink:
      return anchor(st.infra_diag != 0 ? st.infra_diag : st.injected);
    case EventKind::kCollabUplink:
      return anchor(st.detected);
    case EventKind::kResetIssued:
      if (st.pending_reset_parent != 0) return st.pending_reset_parent;
      if (st.diagnosed != 0) return st.diagnosed;
      return anchor(st.detected != 0 ? st.detected : st.injected);
    case EventKind::kResetCompleted:
    case EventKind::kActionRetry:
      return anchor(st.last_issue);
    case EventKind::kTierEscalated:
      return anchor(st.last_complete != 0 ? st.last_complete
                                          : st.last_issue);
    case EventKind::kRecovered:
      return anchor(st.last_complete);
    case EventKind::kWatchdogFired:
      return anchor(st.detected);
    default:
      return st.last;
  }
}

void Tracer::advance_causal(const Event& e) {
  CausalState& st = causal_;
  switch (e.kind) {
    case EventKind::kFailureInjected:
      if (st.injected == 0) st.injected = e.seq;
      break;
    case EventKind::kFailureDetected:
      if (st.detected == 0) st.detected = e.seq;
      break;
    case EventKind::kDiagnosisMade:
      if (e.origin == Origin::kInfra) {
        st.infra_diag = e.seq;
      } else {
        st.diagnosed = e.seq;
        st.pending_reset_parent = e.seq;
      }
      break;
    case EventKind::kResetIssued:
      st.last_issue = e.seq;
      st.pending_reset_parent = 0;
      break;
    case EventKind::kResetCompleted:
      st.last_complete = e.seq;
      break;
    case EventKind::kActionRetry:
    case EventKind::kTierEscalated:
      st.pending_reset_parent = e.seq;
      break;
    default:
      break;
  }
  if (e.kind != EventKind::kLog) st.last = e.seq;
}

void Tracer::record_now(Event e) {
  if (!enabled_) return;
  if (e.kind == EventKind::kFailureInjected) begin_span();
  e.span = active_span_;
  e.at_us = now_ ? now_->time_since_epoch().count() : 0;
  if (context_source_ != nullptr) {
    if (e.ue == 0) e.ue = context_source_->tag;
    if (e.label == 0) e.label = context_source_->label;
  }
  if (e.action != 0 && e.tier == 0) e.tier = tier_of_action(e.action);
  e.seq = next_seq_++;
  if (e.span != 0) {
    if (e.parent == 0) e.parent = parent_for(e);
    advance_causal(e);
  }
  if (retention_ != nullptr) {
    // Route BEFORE notifying so that when an observer reacts to this
    // event with a trigger (the health engine raising an SLO alert), the
    // promotion replays this event out of the ring in order, ahead of
    // the reentrant alert event.
    route_retained(e);
  } else if (observers_.empty()) {
    events_.push_back(std::move(e));
    return;
  } else {
    events_.push_back(e);
  }
  // Notify from this call's own `e`: a reentrant record_now (an observer
  // emitting a follow-up event) may reallocate events_ or overwrite a
  // ring slot, but never touches it.
  for (EventObserver* o : observers_) o->on_trace_event(e);
}

std::size_t Tracer::event_count(EventKind k) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [k](const Event& e) { return e.kind == k; }));
}

void Tracer::clear() {
  // Span ids stay monotonic across clear() so that exports taken before
  // and after a clear can be concatenated and still assemble correctly.
  events_.clear();
  causal_ = CausalState{};
  active_span_ = 0;
  // Retention stays armed but starts a fresh capture: rings, the
  // retained-UE set, the intern table, and the budget all reset.
  if (retention_ != nullptr) {
    retention_ = std::make_unique<RetentionState>(retention_->policy);
  }
}

void export_event_jsonl(std::ostream& os, const Event& e) {
  os << "{\"span\":" << e.span << ",\"kind\":\"" << event_kind_name(e.kind)
     << "\",\"at_us\":" << e.at_us << ",\"origin\":\""
     << origin_name(e.origin) << "\",\"plane\":" << int(e.plane)
     << ",\"cause\":" << int(e.cause) << ",\"action\":" << int(e.action)
     << ",\"tier\":" << int(e.tier) << ",\"ok\":" << (e.ok ? "true" : "false")
     << ",\"prep_ms\":" << e.prep_ms << ",\"trans_ms\":" << e.trans_ms;
  // Optional fields are emitted only when set, so traces recorded
  // without the feature stay byte-stable.
  if (e.seq != 0) os << ",\"seq\":" << e.seq;
  if (e.parent != 0) os << ",\"parent\":" << e.parent;
  if (e.ue != 0) os << ",\"ue\":" << e.ue;
  if (e.label != 0) os << ",\"label\":" << e.label;
  if (!e.detail.empty()) {
    os << ",\"detail\":\"";
    write_escaped(os, e.detail);
    os << "\"";
  }
  os << "}\n";
}

void Tracer::export_jsonl(std::ostream& os) const {
  for (const Event& e : events_) export_event_jsonl(os, e);
}

std::vector<Blackbox> blackboxes(const std::vector<Event>& events) {
  std::map<std::uint32_t, Ring<Event>> rings;
  std::vector<Blackbox> out;
  for (const Event& e : events) {
    if (e.kind == EventKind::kLog || e.kind == EventKind::kSloAlert) continue;
    Ring<Event>& ring = rings.try_emplace(e.ue, kBlackboxDepth).first->second;
    ring.put(e);  // eviction is the point: only the tail survives
    if (e.kind == EventKind::kTerminalFailure) {
      ring.append_to(out.emplace_back());
    }
  }
  return out;
}

void export_blackboxes_jsonl(std::ostream& os,
                             const std::vector<Blackbox>& boxes) {
  for (const Blackbox& box : boxes) {
    const Event& terminal = box.back();
    os << "{\"blackbox\":{\"ue\":" << terminal.ue
       << ",\"at_us\":" << terminal.at_us << ",\"reason\":\"";
    write_escaped(os, terminal.detail);
    os << "\",\"events\":" << box.size() << "}}\n";
    for (const Event& e : box) export_event_jsonl(os, e);
  }
}

std::vector<Event> Tracer::import_jsonl(std::istream& is,
                                        ImportStats* stats) {
  std::vector<Event> out;
  std::string line;
  while (std::getline(is, line)) {
    if (stats != nullptr) ++stats->lines;
    if (line.empty() || line.find('{') == std::string::npos) continue;
    // From here the line claims to be a record; any parse failure is
    // counted as malformed (truncated tail, bad kind, hand-edit damage)
    // instead of being silently skipped.
    Event e;
    try {
      const minijson::Value record = minijson::parse(line);
      const auto k = event_kind_from(record.at("kind").as_string());
      if (!k) throw minijson::ParseError("unknown event kind", 0);
      e.kind = *k;
      read_number(record, "span", e.span);
      read_number(record, "seq", e.seq);
      read_number(record, "parent", e.parent);
      read_number(record, "at_us", e.at_us);
      if (const minijson::Value* o = record.find("origin")) {
        e.origin = origin_from(o->as_string()).value_or(Origin::kNone);
      }
      read_number(record, "plane", e.plane);
      read_number(record, "cause", e.cause);
      read_number(record, "action", e.action);
      read_number(record, "tier", e.tier);
      if (const minijson::Value* ok = record.find("ok")) e.ok = ok->as_bool();
      read_number(record, "prep_ms", e.prep_ms);
      read_number(record, "trans_ms", e.trans_ms);
      read_number(record, "ue", e.ue);
      read_number(record, "label", e.label);
      if (const minijson::Value* d = record.find("detail")) {
        e.detail = d->as_string();
      }
    } catch (const minijson::ParseError&) {
      if (stats != nullptr) ++stats->malformed;
      continue;
    }
    if (stats != nullptr) ++stats->records;
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<SpanSummary> Tracer::assemble(std::vector<Event> events) {
  // Stable sort restores causal order for out-of-order input while
  // preserving emit order within a microsecond tick.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_us < b.at_us;
                   });
  std::map<SpanId, SpanSummary> spans;
  for (const Event& e : events) {
    SpanSummary& s = spans[e.span];
    s.span = e.span;
    if (const auto k = static_cast<std::size_t>(e.kind); k < kEventKindCount) {
      ++s.counts[k];
    }
    switch (e.kind) {
      case EventKind::kFailureInjected:
        if (!s.injected_us) {
          s.injected_us = e.at_us;
          s.plane = e.plane;
          s.cause = e.cause;
        }
        break;
      case EventKind::kFailureDetected:
        if (!s.detected_us) s.detected_us = e.at_us;
        break;
      case EventKind::kDiagnosisMade:
        if (!s.diagnosed_us) s.diagnosed_us = e.at_us;
        break;
      case EventKind::kResetIssued: {
        ActionTiming a;
        a.action = e.action;
        a.issued_us = e.at_us;
        s.actions.push_back(a);
        break;
      }
      case EventKind::kResetCompleted: {
        // Pair with the last unmatched issue of the same action code.
        for (auto it = s.actions.rbegin(); it != s.actions.rend(); ++it) {
          if (it->action == e.action && !it->completed_us) {
            it->completed_us = e.at_us;
            it->ok = e.ok;
            break;
          }
        }
        break;
      }
      case EventKind::kRecovered:
        if (!s.recovered_us) s.recovered_us = e.at_us;
        break;
      case EventKind::kCacheLookup:
        if (e.ok) ++s.cache_hits;
        break;
      default:
        break;
    }
  }
  std::vector<SpanSummary> out;
  out.reserve(spans.size());
  for (auto& [id, s] : spans) out.push_back(std::move(s));
  return out;
}

void Tracer::print_summary(std::ostream& os,
                           const std::vector<SpanSummary>& spans) {
  auto cell = [](std::optional<double> v) {
    std::array<char, 32> buf{};
    if (v) {
      std::snprintf(buf.data(), buf.size(), "%10.3f", *v);
    } else {
      std::snprintf(buf.data(), buf.size(), "%10s", "-");
    }
    return std::string(buf.data());
  };
  os << "  span  plane cause  detect_ms diagnose_ms recover_ms  actions\n";
  for (const SpanSummary& s : spans) {
    std::array<char, 64> head{};
    std::snprintf(head.data(), head.size(), "%6llu  %5s %5d ",
                  static_cast<unsigned long long>(s.span),
                  s.plane == 0 ? "cp" : "dp", int(s.cause));
    os << head.data() << cell(s.detect_ms()) << " " << cell(s.diagnose_ms())
       << "  " << cell(s.recover_ms()) << "  ";
    bool first = true;
    for (const ActionTiming& a : s.actions) {
      if (!first) os << ", ";
      first = false;
      os << action_code_name(a.action) << "/" << tier_name(tier_of_action(a.action));
      if (const auto lat = a.latency_ms()) {
        std::array<char, 32> buf{};
        std::snprintf(buf.data(), buf.size(), "=%.3fms%s", *lat,
                      a.ok ? "" : "(fail)");
        os << buf.data();
      } else {
        os << "=pending";
      }
    }
    if (first) os << "-";
    for (const SummaryColumn& c : kSummaryColumns) {
      const std::uint64_t n = s.count(c.kind);
      if (n == 0 || c.label.empty()) continue;
      os << "  " << c.label << "=";
      if (c.kind == EventKind::kCacheLookup) os << s.cache_hits << "/";
      os << n;
    }
    os << "\n";
  }
}

std::vector<LifecycleTree> Tracer::build_lifecycle(std::vector<Event> events) {
  // Per-stage latencies come from the same reconstruction the summary
  // view uses, so the two views can never disagree about a span.
  std::map<SpanId, SpanSummary> summaries;
  for (SpanSummary& s : assemble(events)) summaries[s.span] = std::move(s);

  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_us < b.at_us;
                   });
  std::map<SpanId, LifecycleTree> trees;
  for (Event& e : events) {
    if (e.kind == EventKind::kLog) continue;  // log lines are not causal
    LifecycleTree& t = trees[e.span];
    t.span = e.span;
    t.nodes.push_back(LifecycleNode{std::move(e), {}});
  }
  std::vector<LifecycleTree> out;
  out.reserve(trees.size());
  for (auto& [span, t] : trees) {
    if (const auto it = summaries.find(span); it != summaries.end()) {
      t.summary = it->second;
    }
    // Link children to parents via the in-span seq -> index map. A parent
    // outside the span (absorb cut it, or pre-lifecycle traces with no
    // ids at all) makes the node a root, which degrades a legacy trace
    // to a flat list instead of losing events.
    std::map<std::uint64_t, std::size_t> by_seq;
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      if (const auto seq = t.nodes[i].event.seq; seq != 0) by_seq[seq] = i;
    }
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      const std::uint64_t parent = t.nodes[i].event.parent;
      const auto it = parent != 0 ? by_seq.find(parent) : by_seq.end();
      if (it != by_seq.end() && it->second != i) {
        t.nodes[it->second].children.push_back(i);
      } else {
        t.roots.push_back(i);
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

namespace {

void print_lifecycle_node(std::ostream& os, const LifecycleTree& t,
                          std::size_t index, int depth,
                          std::int64_t parent_us) {
  const Event& e = t.nodes[index].event;
  for (int i = 0; i < depth; ++i) os << "  ";
  os << (depth <= 1 ? "* " : "- ") << event_kind_name(e.kind) << " ["
     << origin_name(e.origin) << "]";
  if (e.action != 0) {
    os << " action=" << action_code_name(e.action) << "/"
       << tier_name(e.tier != 0 ? e.tier : tier_of_action(e.action));
  }
  if (e.kind == EventKind::kFailureInjected ||
      e.kind == EventKind::kFailureDetected ||
      e.kind == EventKind::kDiagnosisMade) {
    os << " plane=" << (e.plane == 0 ? "cp" : "dp")
       << " cause=" << int(e.cause);
  }
  if (e.kind == EventKind::kResetCompleted ||
      e.kind == EventKind::kCacheLookup) {
    os << (e.ok ? " ok" : " fail");
  }
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), " +%.3fms",
                static_cast<double>(e.at_us - parent_us) / 1e3);
  os << buf.data();
  if (!e.detail.empty() && e.kind != EventKind::kSloAlert) {
    os << "  (" << e.detail << ")";
  }
  os << "\n";
  for (const std::size_t child : t.nodes[index].children) {
    print_lifecycle_node(os, t, child, depth + 1, e.at_us);
  }
}

}  // namespace

void Tracer::print_lifecycle(std::ostream& os,
                             const std::vector<LifecycleTree>& trees) {
  auto stage = [&os](std::string_view name, std::optional<double> ms) {
    if (!ms) return;
    std::array<char, 48> buf{};
    std::snprintf(buf.data(), buf.size(), " %s=%.3fms", std::string(name).c_str(),
                  *ms);
    os << buf.data();
  };
  for (const LifecycleTree& t : trees) {
    os << "span " << t.span;
    if (t.span == 0) os << " (unattributed)";
    if (t.summary.injected_us) {
      os << "  plane=" << (t.summary.plane == 0 ? "cp" : "dp")
         << " cause=" << int(t.summary.cause);
    }
    os << "  events=" << t.nodes.size() << " roots=" << t.roots.size()
       << "\n";
    os << "  stages:";
    stage("detect", t.summary.detect_ms());
    stage("diagnose", t.summary.diagnose_ms());
    stage("recover", t.summary.recover_ms());
    if (!t.summary.detect_ms() && !t.summary.diagnose_ms() &&
        !t.summary.recover_ms()) {
      os << " -";
    }
    os << "\n";
    for (const std::size_t root : t.roots) {
      const std::int64_t base = t.nodes[root].event.at_us;
      print_lifecycle_node(os, t, root, 1, base);
    }
  }
}

}  // namespace seed::obs
