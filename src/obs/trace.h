// Failure-lifecycle tracer (the SEED observability layer, half one).
//
// Every failure's journey — injection, detection, diagnosis, the reset
// actions of Table 3, recovery, and the §4.5 collaboration transfers —
// is recorded as a typed event stamped with simulated time and grouped
// under a per-failure span id, so benches and post-mortem tools can
// reconstruct detect/diagnose/recover latencies instead of hand-rolling
// the bookkeeping.
//
// The tracer is a thread-local singleton (each simulation thread — the
// main thread or a FleetRunner worker — owns an isolated instance; the
// fleet layer merges shard captures in shard order) and is OFF by
// default. Emit points are gated on
// `enabled()` *before* any argument formatting — the same pattern as
// SLOG, which checks the logger's level before it builds a line — so a
// disabled tracer costs a branch and adds no heap allocations on the hot
// path; the inline obs::emit below takes PODs only.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simcore/time.h"

namespace seed::sim {
struct Context;
}  // namespace seed::sim

namespace seed::obs {

using SpanId = std::uint64_t;

/// Numeric values are part of the JSONL and SEEDTRC formats: kinds are
/// only ever appended. Codes from layers above obs (reset actions, chaos
/// points, decode errors) ride as plain numbers, and a kind that borrows
/// a field for a count or a code says so here.
enum class EventKind : std::uint8_t {
  kFailureInjected = 0,
  kFailureDetected,
  kDiagnosisMade,     // action = first action of the plan (0 = none)
  kResetIssued,       // action = proto::ResetAction code (1..6 = A1..B3)
  kResetCompleted,    // ok = action outcome
  kRecovered,
  kCollabDownlink,    // prep_ms, trans_ms
  kCollabUplink,      // prep_ms, trans_ms
  kConflictSuppressed,
  kRateLimited,       // action = the action held back
  kLog,               // detail = "<component>: <message>"
  // Chaos / hardened-recovery events.
  kChaosInjected,    // a fault-injection point fired (cause = chaos::Point)
  kActionRetry,      // a failed reset action is retried with backoff
                     // (plane = 1-based attempt that just failed)
  kTierEscalated,    // handling moved past a failed action, Table 3 order
                     // (action = the rung escalated *to*)
  kWatchdogFired,    // recovery watchdog deadline hit, handling re-armed
                     // (cause = refires so far)
  kDegraded,         // fell back to legacy handling (uplink/watchdog)
  // Health-engine / post-mortem events.
  kCacheLookup,      // Fig. 8 diagnosis-cache lookup (ok = hit); emitted
                     // only when a cache is attached
  kTerminalFailure,  // escalation ladder / watchdog hit a terminal state
                     // (detail = reason); obs::blackboxes freezes a
                     // blackbox on it
  kSloAlert,         // health-engine SLO alert transition (ok = not
                     // firing, detail = payload)
  // Adversarial-hardening events.
  kDecodeRejected,   // a decoder refused input (cause = nas::DecodeError)
  kPeerQuarantined,  // a peer entered/extended its mute window
                     // (cause = strike count)
  kSuspectReportDropped,  // learning-path update rejected as untrusted
  // Ground-truth evaluation events.
  kGroundTruthLabel,   // labeled injection (cause = cause-family code)
  kDiagnosisVerdict,   // Fig. 8 / plan decision outcome
                       // (detail = "<kind>/<provenance>")
};

/// Number of event kinds; must name the last enumerator.
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kDiagnosisVerdict) + 1;

/// Which vantage point emitted the event (the same failure is seen by the
/// network, the modem, the OS detector, and the SIM).
enum class Origin : std::uint8_t {
  kNone = 0,
  kSim,      // SIM applet (diagnosis/decision module)
  kInfra,    // core-network SEED plugin
  kOs,       // Android data-stall detector
  kModem,    // modem FSMs (rejects, resets)
  kTestbed,  // experiment harness (injection, end-to-end recovery)
};

std::string_view event_kind_name(EventKind k);
std::optional<EventKind> event_kind_from(std::string_view name);
std::string_view origin_name(Origin o);
std::optional<Origin> origin_from(std::string_view name);

/// Reset actions use the paper's numeric codes (proto::ResetAction values
/// 1..6 = A1,A2,A3,B1,B2,B3); obs keeps its own name table so the tracer
/// stays below seedproto in the dependency graph.
std::string_view action_code_name(std::uint8_t action);

/// Reset tier of an action code: 0 none, 1 hardware, 2 c-plane, 3 d-plane.
std::uint8_t tier_of_action(std::uint8_t action);
std::string_view tier_name(std::uint8_t tier);

struct Event {
  SpanId span = 0;
  /// Per-stream event id (1-based, assigned by record_now) and the id of
  /// the causally preceding event inside the same span (0 = root). The
  /// parent links turn a span's flat event list into the failure's
  /// lifecycle tree: detect -> diagnose -> collab -> reset -> recovery,
  /// across every vantage point that emitted into the span.
  std::uint64_t seq = 0;
  std::uint64_t parent = 0;
  EventKind kind = EventKind::kLog;
  std::int64_t at_us = 0;  // simulated time (µs since sim epoch)
  /// UE label in multi-UE experiments (1-based device index; 0 = the
  /// single-UE / unattributed steady state). Stamped automatically from
  /// the simulator's context tag when a source is set.
  std::uint32_t ue = 0;
  /// Ground-truth label in labeled-scenario experiments (cause family in
  /// the high byte, injection ordinal below; 0 = unlabeled). Stamped
  /// automatically from the simulator's context label when a source is
  /// set, so verdicts inherit the label of the injection that caused
  /// them with zero per-layer plumbing.
  std::uint32_t label = 0;
  Origin origin = Origin::kNone;
  std::uint8_t plane = 0;   // 0 = control, 1 = data
  std::uint8_t cause = 0;   // standardized or customized cause code
  std::uint8_t action = 0;  // reset action code (kResetIssued/Completed/...)
  std::uint8_t tier = 0;    // derived from action at record time
  bool ok = false;          // kResetCompleted: action outcome
  double prep_ms = 0.0;     // kCollabDownlink/kCollabUplink
  double trans_ms = 0.0;    // kCollabDownlink/kCollabUplink
  std::string detail;       // optional free text (kLog lines)

  bool operator==(const Event&) const = default;
};

/// One reset action inside a span: issue time paired with its completion.
struct ActionTiming {
  std::uint8_t action = 0;
  std::int64_t issued_us = 0;
  std::optional<std::int64_t> completed_us;
  bool ok = false;

  std::optional<double> latency_ms() const {
    if (!completed_us) return std::nullopt;
    return static_cast<double>(*completed_us - issued_us) / 1e3;
  }
};

/// A failure's reconstructed lifecycle (the per-span summary row).
struct SpanSummary {
  SpanId span = 0;
  std::uint8_t plane = 0;
  std::uint8_t cause = 0;
  std::optional<std::int64_t> injected_us;
  std::optional<std::int64_t> detected_us;
  std::optional<std::int64_t> diagnosed_us;
  std::optional<std::int64_t> recovered_us;
  std::vector<ActionTiming> actions;
  std::array<std::uint64_t, kEventKindCount> counts{};  // events per kind
  std::uint64_t cache_hits = 0;  // kCacheLookup events with ok set

  std::uint64_t count(EventKind k) const {
    return counts[static_cast<std::size_t>(k)];
  }

  std::optional<double> detect_ms() const { return delta(detected_us); }
  std::optional<double> diagnose_ms() const { return delta(diagnosed_us); }
  std::optional<double> recover_ms() const { return delta(recovered_us); }

 private:
  std::optional<double> delta(const std::optional<std::int64_t>& t) const {
    if (!injected_us || !t) return std::nullopt;
    return static_cast<double>(*t - *injected_us) / 1e3;
  }
};

/// A node of a reconstructed causal lifecycle tree (one event plus the
/// indices of the events it caused, within the owning LifecycleTree).
struct LifecycleNode {
  Event event;
  std::vector<std::size_t> children;
};

/// One span's causal tree, rebuilt from the seq/parent links. Traces
/// recorded before lifecycle ids existed (parent == 0 everywhere)
/// degrade gracefully: every event becomes a root and the tree is flat.
struct LifecycleTree {
  SpanId span = 0;
  std::vector<LifecycleNode> nodes;  // time-sorted, kLog events dropped
  std::vector<std::size_t> roots;    // nodes whose parent is not in-span
  SpanSummary summary;               // per-stage latencies for this span
};

/// Import bookkeeping for JSONL replay: `malformed` counts lines that
/// look like records (contain '{') but failed to parse — truncated tails
/// of a crashed run, hand-edit damage, unknown kinds.
struct ImportStats {
  std::size_t lines = 0;
  std::size_t records = 0;
  std::size_t malformed = 0;
};

/// Tail-based retention policy: what promotes a UE's buffered ring to
/// the durable capture. A terminal failure, an SLO alert entering firing
/// and a peer quarantine always promote. All triggers are deterministic
/// functions of the event stream, so sampled captures merge
/// byte-identically regardless of worker count.
struct RetentionPolicy {
  /// Per-UE ring depth: how much pre-trigger history survives promotion.
  std::size_t ring_depth = 32;
  /// Optional extra trigger supplied by a higher layer (obs sits below
  /// seed/eval, so e.g. the verdict!=label predicate arrives as a pure
  /// function of the event — see core::verdict_mismatch).
  bool (*trigger)(const Event&) = nullptr;
};

/// Trace-volume budget for one capture under tail-based retention.
/// `bytes_retained` is the binary (TLV) record volume of the durable
/// capture, record_bytes(events()) — pure record bytes, no framing, so
/// per-shard totals sum. retention_stats() reads it off the capture.
struct RetentionStats {
  std::uint64_t events_retained = 0;
  std::uint64_t events_aged_out = 0;
  std::uint64_t bytes_retained = 0;
  std::uint64_t ues_retained = 0;

  RetentionStats& operator+=(const RetentionStats& o) {
    events_retained += o.events_retained;
    events_aged_out += o.events_aged_out;
    bytes_retained += o.bytes_retained;
    ues_retained += o.ues_retained;
    return *this;
  }
};

/// Passive tap on the tracer's recorded stream (the health engine).
/// Observers see each event after it is recorded; they must
/// not mutate tracer state, but MAY emit further events (reentrant
/// record_now is safe — the nested event lands after the current one).
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  virtual void on_trace_event(const Event& e) = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_; }
  /// Turning tracing on also bridges the SLOG sink, so log lines and
  /// trace events share one timestamp source and one stream.
  void enable(bool on);

  /// Points the tracer (and the logger) at a simulation clock. The
  /// pointer must outlive the tracer's use, exactly like Logger's.
  void set_clock(const sim::TimePoint* now);

  /// Points the tracer at the simulator's context cell (see
  /// Simulator::context); recorded events whose `ue` or `label` is 0 are
  /// stamped with the cell's tag or label. Pass nullptr to detach.
  void set_context_source(const sim::Context* context) {
    context_source_ = context;
  }

  /// Opens a new failure span and makes it the active one. Events
  /// recorded without an explicit span attach to the active span.
  SpanId begin_span();
  void end_span() { active_span_ = 0; }
  SpanId active_span() const { return active_span_; }

  /// Records `e`, stamping the current simulated time and the active
  /// span (any span the event carries is overwritten). kFailureInjected
  /// events implicitly begin a new span.
  void record_now(Event e);

  const std::vector<Event>& events() const { return events_; }
  std::size_t event_count(EventKind k) const;
  void clear();

  // ----- tail-based retention (the metro-scale sampled capture)
  /// Arms tail-based retention: recorded events are buffered in bounded
  /// per-UE rings and only reach the durable capture (`events()`) when a
  /// retention trigger promotes their UE — the ring's history first,
  /// then everything the UE does afterwards. Healthy-UE events age out
  /// of their rings instead of accumulating. Observers still see every
  /// event (the health engine feeds on the full stream, and its alerts
  /// are themselves triggers). Implies the capture is no longer "every
  /// event"; absorb() bypasses retention (shard captures were already
  /// sampled shard-side). Ring slots are indexed by UE label, so
  /// retention holds one slot per label up to the largest seen: labels
  /// are device indices, 1..N.
  void set_retention(const RetentionPolicy& policy);
  /// Disarms retention and drops buffered rings and stats.
  void clear_retention();
  bool retention_active() const { return retention_ != nullptr; }
  RetentionStats retention_stats() const;
  /// Promotes `ue` unconditionally (the explicit-pin trigger).
  void pin_ue(std::uint32_t ue);
  /// Closes the capture: still-buffered ring events are counted as aged
  /// out and dropped. Call before snapshotting events() at capture end.
  void seal_retention();

  /// Appends events captured elsewhere (another thread's tracer, an
  /// imported file), renumbering their span ids into this tracer's space
  /// in first-seen order. Fleet merges call this in shard order so the
  /// combined stream is deterministic; appends even while disabled.
  void absorb(std::vector<Event> events);

  /// Restarts span AND event-id numbering from `first` (1 unless a test
  /// wants ids past 2^32). clear() deliberately keeps ids monotonic so
  /// consecutive exports concatenate; call this only when previous
  /// exports are discarded (isolated fleet runs, tests) and a
  /// reproducible id sequence matters.
  void reset_span_counter(std::uint64_t first = 1) {
    next_span_ = first;
    next_seq_ = first;
  }

  /// Registers/removes a passive event tap. Observers are notified in
  /// registration order, only for events recorded while enabled (absorb
  /// does NOT notify — merged captures were already observed shard-side).
  void add_observer(EventObserver* observer);
  void remove_observer(EventObserver* observer);

  // ----- export / import
  void export_jsonl(std::ostream& os) const;
  /// One minijson record per line. A line holding a '{' that does not
  /// parse, or whose `kind` is missing or unknown, counts as malformed;
  /// lines without one are skipped.
  static std::vector<Event> import_jsonl(std::istream& is,
                                         ImportStats* stats);
  static std::vector<Event> import_jsonl(std::istream& is) {
    return import_jsonl(is, nullptr);
  }

  // ----- analysis (static so a replayed JSONL trace works the same)
  /// Groups events by span and reconstructs each failure lifecycle.
  /// Input order is irrelevant: events are sorted by timestamp first.
  static std::vector<SpanSummary> assemble(std::vector<Event> events);
  std::vector<SpanSummary> summarize() const { return assemble(events_); }
  static void print_summary(std::ostream& os,
                            const std::vector<SpanSummary>& spans);

  /// Rebuilds each span's causal tree from the seq/parent links and
  /// pairs it with the span's stage-latency summary. Span 0 (events
  /// recorded outside any failure) groups into its own flat tree.
  static std::vector<LifecycleTree> build_lifecycle(
      std::vector<Event> events);
  /// `--lifecycle` view: indented causal tree with per-hop deltas plus a
  /// per-stage latency breakdown per span.
  static void print_lifecycle(std::ostream& os,
                              const std::vector<LifecycleTree>& trees);

 private:
  /// The active span's causal frontier driving parent assignment in
  /// record_now. Only the active span ever records, so one frontier,
  /// reset by begin_span() and clear(), serves every span.
  struct CausalState {
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t diagnosed = 0;   // latest SIM-side diagnosis
    std::uint64_t infra_diag = 0;  // latest infra-side diagnosis
    std::uint64_t last_issue = 0;
    std::uint64_t last_complete = 0;
    /// Event the next kResetIssued should hang off (diagnosis, retry, or
    /// escalation — whichever most recently promised an action).
    std::uint64_t pending_reset_parent = 0;
    std::uint64_t last = 0;  // last non-log event in the span
  };
  std::uint64_t parent_for(const Event& e) const;
  void advance_causal(const Event& e);

  /// Retention state lives behind a pointer (defined in trace.cc): its
  /// ring cells use the payload codec of trace_binary.h, which includes
  /// this header.
  struct RetentionState;
  void route_retained(const Event& e);

  Tracer() = default;
  ~Tracer();
  bool enabled_ = false;
  const sim::TimePoint* now_ = nullptr;
  const sim::Context* context_source_ = nullptr;
  SpanId next_span_ = 1;
  std::uint64_t next_seq_ = 1;
  SpanId active_span_ = 0;
  std::vector<Event> events_;
  CausalState causal_;
  std::vector<EventObserver*> observers_;
  std::unique_ptr<RetentionState> retention_;
};

/// Serializes one event as a single JSONL record (the unit
/// Tracer::export_jsonl and export_blackboxes_jsonl share).
void export_event_jsonl(std::ostream& os, const Event& e);

/// One frozen blackbox: a UE's last events up to and including a
/// kTerminalFailure (oldest first; back() is the terminal event, whose
/// detail is the reason).
using Blackbox = std::vector<Event>;

/// Events each blackbox holds at most.
inline constexpr std::size_t kBlackboxDepth = 64;

/// Post-mortem view of a capture: rolls each UE's events (kLog and
/// kSloAlert skipped) through a kBlackboxDepth ring and freezes the ring
/// on every kTerminalFailure, in stream order. The ring keeps rolling,
/// so a UE that dies twice gets two boxes.
std::vector<Blackbox> blackboxes(const std::vector<Event>& events);

/// Writes each box as JSONL: a `blackbox` header line (ue, at_us,
/// reason, event count) followed by its events as export_event_jsonl
/// records.
void export_blackboxes_jsonl(std::ostream& os,
                             const std::vector<Blackbox>& boxes);

/// Writes `s` as the body of a JSON string (no surrounding quotes); every
/// byte outside printable ASCII becomes an escape, so the output is one
/// line that import_jsonl decodes back to the same bytes.
void write_escaped(std::ostream& os, std::string_view s);

inline bool enabled() { return Tracer::instance().enabled(); }

/// The payload of one emitted event. Which fields a kind uses, and which
/// it borrows for a count or a code, is noted on its EventKind value.
struct EventFields {
  std::uint8_t plane = 0;
  std::uint8_t cause = 0;
  std::uint8_t action = 0;
  bool ok = false;
  double prep_ms = 0.0;
  double trans_ms = 0.0;
  std::uint32_t label = 0;  // 0 = stamped from the context source
  std::string_view detail = {};
};

/// The one emit point. Checks enabled() before building the Event, so a
/// disabled tracer costs a branch and never touches the heap.
inline void emit(EventKind kind, Origin origin, const EventFields& f = {}) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  Event e;
  e.kind = kind;
  e.origin = origin;
  e.plane = f.plane;
  e.cause = f.cause;
  e.action = f.action;
  e.ok = f.ok;
  e.prep_ms = f.prep_ms;
  e.trans_ms = f.trans_ms;
  e.label = f.label;
  e.detail = f.detail;
  t.record_now(std::move(e));
}

}  // namespace seed::obs
