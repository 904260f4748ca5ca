//! The thread-safe telemetry recorder.
//!
//! A [`Recorder`] is a cheap cloneable handle. Disabled (the default) it
//! holds nothing and every call is a single branch on an `Option` — the
//! instrumented hot paths in the runner, fabric, and sampler pay near-zero
//! cost. Enabled, it accumulates three kinds of telemetry behind mutexes:
//!
//! * **events** — a timestamped stream of span start/end and point events
//!   ([`SpanKind`]: run, session, round, transport hop, trial), dumped as
//!   JSON lines by `bci trace`;
//! * **counters** — named monotone `u64` counters (they only ever
//!   increase, so merging snapshots is addition);
//! * **histograms** — named fixed-bucket [`Histogram`]s (latencies, queue
//!   depths, bits per round, sampling attempts).
//!
//! Timestamps are microseconds since the recorder was created, so an event
//! stream is self-contained and machine-diffable without wall-clock
//! context.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;
use crate::json::Json;

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Start,
    /// A span closed.
    End,
    /// An instantaneous observation inside a span.
    Point,
}

impl EventKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Start => "start",
            EventKind::End => "end",
            EventKind::Point => "point",
        }
    }
}

/// The unit of work an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole Monte-Carlo run.
    Run,
    /// One scheduled fabric session.
    Session,
    /// One protocol round (a message appended to the board).
    Round,
    /// One transport hop (a turn shipped to a player and back).
    Hop,
    /// One serial Monte-Carlo trial.
    Trial,
    /// One batch moving through a job pool's queue.
    Batch,
    /// One generic job executed by a fabric job pool (e.g. an experiment
    /// sweep point).
    Job,
}

impl SpanKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Session => "session",
            SpanKind::Round => "round",
            SpanKind::Hop => "hop",
            SpanKind::Trial => "trial",
            SpanKind::Batch => "batch",
            SpanKind::Job => "job",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// Start / end / point.
    pub kind: EventKind,
    /// The span this event belongs to.
    pub span: SpanKind,
    /// Span instance id (session id, trial id, round index, ...).
    pub id: u64,
    /// Free-form attributes.
    pub attrs: Vec<(&'static str, Json)>,
}

impl Event {
    /// Serializes as one JSON object (one line of the trace stream).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("ts_us".to_owned(), Json::UInt(self.ts_us)),
            ("ev".to_owned(), Json::str(self.kind.name())),
            ("span".to_owned(), Json::str(self.span.name())),
            ("id".to_owned(), Json::UInt(self.id)),
        ];
        if !self.attrs.is_empty() {
            fields.push((
                "attrs".to_owned(),
                Json::Obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), v.clone()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }
}

/// A fixed-capacity ring of the most recent events — the flight
/// recorder. The backing store is allocated once at construction;
/// `push` overwrites the oldest slot under the caller's lock and never
/// grows the buffer, so a coordinator can feed it from the dispatch
/// loop without unbounded memory or allocator traffic.
#[derive(Debug)]
struct FlightRing {
    cap: usize,
    buf: Vec<Event>,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
}

impl FlightRing {
    fn new(cap: usize) -> Self {
        FlightRing {
            cap,
            buf: Vec::with_capacity(cap),
            head: 0,
        }
    }

    fn push(&mut self, event: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Oldest-first copy of the retained events.
    fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

#[derive(Debug)]
struct Inner {
    t0: Instant,
    capture_events: bool,
    events: Mutex<Vec<Event>>,
    flight: Option<Mutex<FlightRing>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, u64>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
}

/// Opaque token returned by [`Recorder::span_start`]; hand it back to
/// [`Recorder::span_end`] so the end event carries the span's duration.
#[derive(Debug, Clone, Copy)]
pub struct SpanToken(Option<Instant>);

/// A cloneable telemetry handle; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder: every method is one branch and returns.
    pub const fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder capturing events, counters, and histograms.
    pub fn new() -> Self {
        Recorder::with_capture(true)
    }

    /// A recorder capturing counters and histograms only. Use for long
    /// sweeps where an event per round would cost unbounded memory.
    pub fn metrics_only() -> Self {
        Recorder::build(false, None)
    }

    /// A metrics recorder with a flight recorder attached: the most
    /// recent `capacity` events are retained in a fixed ring (allocated
    /// up front, overwritten in place) instead of the unbounded stream
    /// [`Recorder::new`] keeps. Long-running coordinators use this to
    /// keep post-mortem context for [`Recorder::flight_jsonl`] without
    /// paying full-event-stream memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 — a zero-slot flight recorder silently
    /// recording nothing is a configuration bug.
    pub fn with_flight(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        Recorder::build(false, Some(capacity))
    }

    fn with_capture(capture_events: bool) -> Self {
        Recorder::build(capture_events, None)
    }

    fn build(capture_events: bool, flight_capacity: Option<usize>) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                capture_events,
                events: Mutex::new(Vec::new()),
                flight: flight_capacity.map(|cap| Mutex::new(FlightRing::new(cap))),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether any telemetry is being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether events are being retained anywhere — the unbounded stream
    /// or the flight ring. Check before building per-event attribute
    /// vectors on hot paths.
    #[inline]
    pub fn events_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.capture_events || inner.flight.is_some())
    }

    fn push_event(
        &self,
        kind: EventKind,
        span: SpanKind,
        id: u64,
        attrs: Vec<(&'static str, Json)>,
    ) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if !inner.capture_events && inner.flight.is_none() {
            return;
        }
        let event = Event {
            ts_us: inner.t0.elapsed().as_micros() as u64,
            kind,
            span,
            id,
            attrs,
        };
        if inner.capture_events {
            if let Some(flight) = &inner.flight {
                flight.lock().expect("flight lock").push(event.clone());
            }
            inner.events.lock().expect("events lock").push(event);
        } else if let Some(flight) = &inner.flight {
            flight.lock().expect("flight lock").push(event);
        }
    }

    /// Opens a span: emits a start event and returns a token carrying the
    /// start time for [`span_end`](Recorder::span_end).
    pub fn span_start(
        &self,
        span: SpanKind,
        id: u64,
        attrs: Vec<(&'static str, Json)>,
    ) -> SpanToken {
        if !self.enabled() {
            return SpanToken(None);
        }
        self.push_event(EventKind::Start, span, id, attrs);
        SpanToken(Some(Instant::now()))
    }

    /// Closes a span: emits an end event with a `dur_us` attribute.
    pub fn span_end(
        &self,
        span: SpanKind,
        id: u64,
        token: SpanToken,
        mut attrs: Vec<(&'static str, Json)>,
    ) {
        let Some(started) = token.0 else { return };
        attrs.push(("dur_us", Json::UInt(started.elapsed().as_micros() as u64)));
        self.push_event(EventKind::End, span, id, attrs);
    }

    /// Emits an instantaneous point event.
    pub fn point(&self, span: SpanKind, id: u64, attrs: Vec<(&'static str, Json)>) {
        self.push_event(EventKind::Point, span, id, attrs);
    }

    /// Adds `delta` to the named monotone counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            *inner
                .counters
                .lock()
                .expect("counters lock")
                .entry(name)
                .or_insert(0) += delta;
        }
    }

    /// Sets the named gauge to `value` (last write wins). Gauges report
    /// point-in-time levels — roster occupancy, session-table size,
    /// inflight-window usage — that counters' monotonicity can't express.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner
                .gauges
                .lock()
                .expect("gauges lock")
                .insert(name, value);
        }
    }

    /// Microseconds since the recorder was created (0 when disabled).
    pub fn uptime_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.t0.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    /// Records `value` into the named histogram, created over `bounds` on
    /// first use (see the presets in [`crate::hist`]).
    ///
    /// # Panics
    ///
    /// Panics if the name was first used with a different bucket ladder.
    #[inline]
    pub fn hist_record(&self, name: &'static str, value: u64, bounds: &[u64]) {
        if let Some(inner) = &self.inner {
            let mut hists = inner.hists.lock().expect("hists lock");
            let hist = hists.entry(name).or_insert_with(|| Histogram::new(bounds));
            assert_eq!(hist.bounds(), bounds, "histogram '{name}' bucket ladder");
            hist.record(value);
        }
    }

    /// A copy of the captured event stream, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map(|inner| inner.events.lock().expect("events lock").clone())
            .unwrap_or_default()
    }

    /// The event stream as JSON lines (one event per line).
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Oldest-first copy of the flight-recorder ring (empty when no
    /// flight recorder is attached).
    pub fn flight_events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.flight.as_ref())
            .map(|flight| flight.lock().expect("flight lock").events())
            .unwrap_or_default()
    }

    /// The flight-recorder ring as JSON lines (one event per line,
    /// oldest first) — the post-mortem dump format.
    pub fn flight_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.flight_events() {
            out.push_str(&event.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// A point-in-time copy of all counters, gauges, and histograms,
    /// stamped with the recorder's uptime.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot::default(),
            Some(inner) => Snapshot {
                uptime_us: inner.t0.elapsed().as_micros() as u64,
                counters: inner
                    .counters
                    .lock()
                    .expect("counters lock")
                    .iter()
                    .map(|(&k, &v)| (k.to_owned(), v))
                    .collect(),
                gauges: inner
                    .gauges
                    .lock()
                    .expect("gauges lock")
                    .iter()
                    .map(|(&k, &v)| (k.to_owned(), v))
                    .collect(),
                hists: inner
                    .hists
                    .lock()
                    .expect("hists lock")
                    .iter()
                    .map(|(&k, v)| (k.to_owned(), v.clone()))
                    .collect(),
            },
        }
    }
}

/// A mergeable copy of a recorder's counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Microseconds the recorder had been alive when captured.
    pub uptime_us: u64,
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name (last write wins).
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Merges `other` in: counters add (both streams' increments count),
    /// histograms merge bucket-wise; gauges and uptime take the max (a
    /// merged level has no additive meaning — the high-water mark does).
    ///
    /// # Panics
    ///
    /// Panics if a shared histogram name has a different bucket ladder.
    pub fn merge(&mut self, other: &Snapshot) {
        self.uptime_us = self.uptime_us.max(other.uptime_us);
        for (name, &value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, &value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(value);
        }
        for (name, hist) in &other.hists {
            match self.hists.get_mut(name) {
                Some(existing) => existing.merge(hist),
                None => {
                    self.hists.insert(name.clone(), hist.clone());
                }
            }
        }
    }

    /// Serializes as `{uptime_us, counters: {...}, gauges: {...},
    /// histograms: {...}}` (`gauges` elided when empty, keeping the
    /// pre-gauge shape for metrics-only producers).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("uptime_us".to_owned(), Json::UInt(self.uptime_us)),
            (
                "counters".to_owned(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                        .collect(),
                ),
            ),
        ];
        if !self.gauges.is_empty() {
            fields.push((
                "gauges".to_owned(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                        .collect(),
                ),
            ));
        }
        fields.push((
            "histograms".to_owned(),
            Json::Obj(
                self.hists
                    .iter()
                    .map(|(k, h)| (k.clone(), h.to_json()))
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LATENCY_US_BOUNDS;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        assert!(!rec.events_enabled());
        rec.counter_add("x", 3);
        rec.hist_record("h", 9, LATENCY_US_BOUNDS);
        rec.point(SpanKind::Round, 0, vec![]);
        let token = rec.span_start(SpanKind::Session, 1, vec![]);
        rec.span_end(SpanKind::Session, 1, token, vec![]);
        assert!(rec.events().is_empty());
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn counters_are_monotone_and_summed() {
        let rec = Recorder::new();
        rec.counter_add("sessions", 2);
        rec.counter_add("sessions", 3);
        assert_eq!(rec.snapshot().counter("sessions"), 5);
        assert_eq!(rec.snapshot().counter("absent"), 0);
    }

    #[test]
    fn span_events_carry_duration() {
        let rec = Recorder::new();
        let token = rec.span_start(SpanKind::Session, 7, vec![("w", Json::UInt(4))]);
        rec.span_end(SpanKind::Session, 7, token, vec![]);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Start);
        assert_eq!(events[1].kind, EventKind::End);
        assert_eq!(events[1].id, 7);
        assert!(events[1].attrs.iter().any(|(k, _)| *k == "dur_us"));
        assert!(events[0].ts_us <= events[1].ts_us);
    }

    #[test]
    fn metrics_only_drops_events_but_keeps_metrics() {
        let rec = Recorder::metrics_only();
        assert!(rec.enabled());
        assert!(!rec.events_enabled());
        rec.point(SpanKind::Round, 0, vec![]);
        rec.counter_add("c", 1);
        assert!(rec.events().is_empty());
        assert_eq!(rec.snapshot().counter("c"), 1);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let rec = Recorder::new();
        rec.point(SpanKind::Hop, 3, vec![("speaker", Json::UInt(1))]);
        rec.point(SpanKind::Hop, 4, vec![]);
        let out = rec.events_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ts_us\":"));
        assert!(lines[0].contains("\"span\":\"hop\""));
        assert!(lines[0].contains("\"attrs\":{\"speaker\":1}"));
        assert!(lines[1].ends_with('}'));
    }

    #[test]
    fn snapshot_merge_sums_counters_and_merges_hists() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.counter_add("n", 1);
        b.counter_add("n", 2);
        b.counter_add("only_b", 7);
        a.hist_record("lat", 10, LATENCY_US_BOUNDS);
        b.hist_record("lat", 20, LATENCY_US_BOUNDS);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("n"), 3);
        assert_eq!(snap.counter("only_b"), 7);
        assert_eq!(snap.hist("lat").expect("merged").count(), 2);
    }

    #[test]
    fn gauges_are_last_write_wins_and_merge_by_max() {
        let rec = Recorder::metrics_only();
        rec.gauge_set("inflight", 7);
        rec.gauge_set("inflight", 3);
        let snap = rec.snapshot();
        assert_eq!(snap.gauge("inflight"), 3);
        assert_eq!(snap.gauge("absent"), 0);

        let other = Recorder::metrics_only();
        other.gauge_set("inflight", 9);
        other.gauge_set("only_other", 2);
        let mut merged = snap.clone();
        merged.merge(&other.snapshot());
        assert_eq!(
            merged.gauge("inflight"),
            9,
            "merge keeps the high-water mark"
        );
        assert_eq!(merged.gauge("only_other"), 2);
    }

    #[test]
    fn snapshot_carries_uptime_and_merge_takes_max() {
        let rec = Recorder::metrics_only();
        let snap = rec.snapshot();
        let mut merged = Snapshot {
            uptime_us: 5,
            ..Snapshot::default()
        };
        merged.merge(&Snapshot {
            uptime_us: 9,
            ..Snapshot::default()
        });
        assert_eq!(merged.uptime_us, 9);
        // A live recorder's uptime is monotone.
        assert!(rec.uptime_us() >= snap.uptime_us);
    }

    #[test]
    fn flight_ring_keeps_the_most_recent_events() {
        let rec = Recorder::with_flight(3);
        assert!(rec.events_enabled(), "flight ring wants events");
        for id in 0..5u64 {
            rec.point(SpanKind::Session, id, vec![]);
        }
        assert!(
            rec.events().is_empty(),
            "flight recorder must not grow the unbounded stream"
        );
        let kept: Vec<u64> = rec.flight_events().iter().map(|e| e.id).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted, order preserved");
        let jsonl = rec.flight_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"ts_us\":")));
    }

    #[test]
    fn flight_ring_timestamps_are_monotone_after_wrap() {
        let rec = Recorder::with_flight(2);
        for id in 0..7u64 {
            rec.point(SpanKind::Hop, id, vec![]);
        }
        let events = rec.flight_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].ts_us <= events[1].ts_us);
        assert_eq!(events[0].id, 5);
        assert_eq!(events[1].id, 6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_flight_recorder_is_rejected() {
        let _ = Recorder::with_flight(0);
    }

    #[test]
    fn snapshot_json_shape_includes_uptime_and_gauges() {
        let rec = Recorder::metrics_only();
        rec.counter_add("c", 1);
        let plain = rec.snapshot().to_json().to_string();
        assert!(plain.starts_with("{\"uptime_us\":"));
        assert!(
            !plain.contains("\"gauges\""),
            "empty gauges elided: {plain}"
        );
        rec.gauge_set("g", 4);
        let gauged = rec.snapshot().to_json().to_string();
        assert!(gauged.contains("\"gauges\":{\"g\":4}"));
        assert!(gauged.contains("\"counters\":{\"c\":1}"));
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        rec.counter_add("ticks", 1);
                        rec.hist_record("v", 5, &[1, 10]);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("ticks"), 400);
        assert_eq!(snap.hist("v").expect("hist").count(), 400);
    }
}
