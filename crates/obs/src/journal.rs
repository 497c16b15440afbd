//! Fixed-footprint per-span event journal with head sampling.
//!
//! The aggregate span tree ([`crate::Recorder`]) answers "where does the
//! time go overall?" but cannot answer "where did *this* request's time
//! go?" — it folds every entry of a path into one count/total pair. The
//! journal keeps the individual events: one [`SpanEvent`] when a sampled
//! span opens and one when it closes, each carrying the request's trace
//! id, its own span id, its parent span id, the span name, a timestamp,
//! and (on close) the duration.
//!
//! **Footprint.** Events live in one ring of packed 40-byte slots,
//! allocated once when the journal is made and written in place: a push
//! neither allocates nor compares strings. A span name is a
//! `&'static str`; the slot keeps a one-byte index into the journal's
//! table of names, found by pointer compare (one entry per call site).
//! Durations are kept in `u32` microseconds and thread ordinals in `u16`;
//! both saturate rather than wrap. The default ring holds
//! [`BUDGET_BYTES`] (1 MiB) of slots, [`DEFAULT_CAPACITY`] events; its
//! pages are touched only as events land in them. When the ring is full
//! the oldest event is overwritten and counted in `obs.journal.dropped`;
//! `obs.journal.bytes` is the ring bytes in use and
//! `obs.journal.allocs` counts the pushes that had to allocate (none).
//!
//! **Head sampling.** Whether a trace is journaled is decided once, from
//! its trace id (`trace_id % sample == 0`), so a trace is always recorded
//! completely or not at all — spans of the same request on other threads
//! (the engine thread, the group-commit leader) make the same decision
//! independently. `sample == 1` records every trace, `sample == 0`
//! disables the journal entirely. The default comes from
//! `ORPHEUS_TRACE_SAMPLE`.
//!
//! The export format of [`Journal::to_chrome_jsonl`] is Chrome's trace
//! event format (one JSON object per line, phases `B`/`E`, microsecond
//! timestamps): load a dump in `chrome://tracing` / Perfetto to see the
//! request timeline across threads.

use crate::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Environment knob: head-sampling rate (`1` = every trace, `N` = one in
/// `N`, `0` = journal disabled).
pub const SAMPLE_ENV: &str = "ORPHEUS_TRACE_SAMPLE";

/// Default sampling rate: record every trace.
pub const DEFAULT_SAMPLE: u64 = 1;

/// Default slow-query threshold in milliseconds.
pub const DEFAULT_SLOW_MS: u64 = 100;

/// Bytes of slots a default journal holds.
pub const BUDGET_BYTES: usize = 1 << 20;

/// Default ring capacity in events: as many slots as fit the budget.
pub const DEFAULT_CAPACITY: usize = BUDGET_BYTES / std::mem::size_of::<Slot>();

/// Names a journal tells apart; every later name reads back as [`OTHER`].
const NAMES: usize = u8::MAX as usize;

/// The name of an event whose name found the table full.
const OTHER: &str = "obs.journal.other";

/// Which edge of a span an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Begin,
    End,
}

/// One journaled span edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub phase: Phase,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: u64,
    pub name: &'static str,
    /// Microseconds since the process's trace origin.
    pub ts_us: u64,
    /// Span duration in microseconds (at most `u32::MAX`); zero for
    /// `Begin` events.
    pub dur_us: u64,
    /// Small per-process thread ordinal (not the OS tid; at most
    /// `u16::MAX`).
    pub thread: u64,
}

/// A [`SpanEvent`] as the ring stores it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    ts_us: u64,
    dur_us: u32,
    thread: u16,
    name: u8,
    phase: Phase,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 40);

/// Monotonic process origin every journal timestamp is relative to.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Microseconds since the process trace origin.
pub fn now_us() -> u64 {
    origin().elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// A small, stable, per-process ordinal for the current thread (thread
/// ids are opaque; Chrome's `tid` field wants a number).
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORD: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORD.with(|o| *o)
}

#[derive(Debug)]
struct Ring {
    /// Filled front to back until full, then overwritten from `head`.
    slots: Vec<Slot>,
    /// Once full, the oldest slot, which the next push overwrites.
    head: usize,
    /// Each distinct name pointer seen, at the index its slots carry.
    names: Vec<&'static str>,
}

impl Ring {
    /// The index of `name`, adding it to the table while it has room
    /// (`NAMES` itself, once full).
    fn intern(&mut self, name: &'static str) -> u8 {
        let same = |n: &&str| std::ptr::addr_eq(*n, name) && n.len() == name.len();
        let i = self.names.iter().position(same).unwrap_or(self.names.len());
        if i == self.names.len() && i < NAMES {
            self.names.push(name);
        }
        i as u8
    }

    fn event(&self, s: &Slot) -> SpanEvent {
        SpanEvent {
            phase: s.phase,
            trace_id: s.trace_id,
            span_id: s.span_id,
            parent_span_id: s.parent_span_id,
            name: self.names.get(s.name as usize).copied().unwrap_or(OTHER),
            ts_us: s.ts_us,
            dur_us: u64::from(s.dur_us),
            thread: u64::from(s.thread),
        }
    }

    /// The buffered events, oldest first.
    fn events(&self) -> impl Iterator<Item = SpanEvent> + '_ {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer).map(|s| self.event(s))
    }
}

/// Bounded, sampled ring of span events. Shared by cloning the owning
/// [`crate::Recorder`]; all methods take `&self`.
#[derive(Debug)]
pub struct Journal {
    ring: Mutex<Ring>,
    capacity: usize,
    sample: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    allocs: AtomicU64,
}

impl Journal {
    /// A journal holding at most `capacity` events, sampling one trace in
    /// `sample` (`0` disables recording entirely). The ring is allocated
    /// here, once.
    pub fn new(capacity: usize, sample: u64) -> Journal {
        let ring = Ring {
            slots: Vec::with_capacity(capacity.max(1)),
            head: 0,
            names: Vec::with_capacity(NAMES),
        };
        Journal {
            ring: Mutex::new(ring),
            capacity: capacity.max(1),
            sample: AtomicU64::new(sample),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    /// A journal with the default capacity and the `ORPHEUS_TRACE_SAMPLE`
    /// sampling rate (invalid values fall back to the default; the CLI
    /// validates and exits first, so the fallback only covers embedders).
    pub fn from_env() -> Journal {
        #[expect(
            clippy::disallowed_methods,
            reason = "loadgen sets this around `Server::start`; no setting reaches each `Database`'s recorder"
        )]
        let raw = std::env::var(SAMPLE_ENV).ok();
        let sample = raw.as_deref().and_then(parse_sample);
        Journal::new(DEFAULT_CAPACITY, sample.unwrap_or(DEFAULT_SAMPLE))
    }

    /// Lock the ring, recovering from poisoning (events are pushed from
    /// guard drops that may run during panic unwinds).
    fn locked(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether events of `trace_id` are recorded. Decided purely from the
    /// id, so every thread of a trace agrees without coordination.
    pub fn sampled(&self, trace_id: u64) -> bool {
        let sample = self.sample.load(Ordering::Relaxed);
        trace_id != 0 && sample != 0 && trace_id.is_multiple_of(sample)
    }

    /// Change the sampling rate (tests; the env knob sets the initial value).
    pub fn set_sample(&self, sample: u64) {
        self.sample.store(sample, Ordering::Relaxed);
    }

    /// Current sampling rate (`0` = disabled).
    pub fn sample(&self) -> u64 {
        self.sample.load(Ordering::Relaxed)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Write one event into the ring, narrowing `dur_us` and `thread`
    /// with saturation.
    fn push(&self, e: SpanEvent) {
        let mut ring = self.locked();
        let capacities = (ring.slots.capacity(), ring.names.capacity());
        let slot = Slot {
            trace_id: e.trace_id,
            span_id: e.span_id,
            parent_span_id: e.parent_span_id,
            ts_us: e.ts_us,
            dur_us: u32::try_from(e.dur_us).unwrap_or(u32::MAX),
            thread: u16::try_from(e.thread).unwrap_or(u16::MAX),
            name: ring.intern(e.name),
            phase: e.phase,
        };
        if ring.slots.len() < self.capacity {
            ring.slots.push(slot);
        } else {
            let head = ring.head;
            ring.slots[head] = slot;
            ring.head = (head + 1) % self.capacity;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if (ring.slots.capacity(), ring.names.capacity()) != capacities {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a span-open edge (no duration yet).
    pub fn begin(&self, trace_id: u64, span_id: u64, parent: u64, name: &'static str) {
        self.push(SpanEvent {
            phase: Phase::Begin,
            trace_id,
            span_id,
            parent_span_id: parent,
            name,
            ts_us: now_us(),
            dur_us: 0,
            thread: thread_ordinal(),
        });
    }

    /// Record a span-close edge with its measured duration.
    pub fn end(&self, trace_id: u64, span_id: u64, parent: u64, name: &'static str, dur: Duration) {
        self.push(SpanEvent {
            phase: Phase::End,
            trace_id,
            span_id,
            parent_span_id: parent,
            name,
            ts_us: now_us(),
            dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
            thread: thread_ordinal(),
        });
    }

    /// Attribute a shared piece of work (e.g. the one WAL fsync of a
    /// group-commit batch) to `trace_id` without touching the aggregate
    /// tree — an `End`-only event under a distinct name, so aggregate
    /// totals are never double counted.
    pub fn attribute(&self, trace_id: u64, name: &'static str, dur: Duration) {
        if !self.sampled(trace_id) {
            return;
        }
        self.end(trace_id, crate::span::next_span_id(), 0, name, dur);
    }

    /// Events currently in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        self.locked().events().collect()
    }

    /// Events of one trace, oldest first.
    pub fn trace_events(&self, trace_id: u64) -> Vec<SpanEvent> {
        self.locked()
            .events()
            .filter(|e| e.trace_id == trace_id)
            .collect()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.locked().slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring bytes holding buffered events (never above the capacity's).
    pub fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Slot>()
    }

    /// Total events recorded since creation (including later-dropped ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Pushes that allocated (the ring and its name table are allocated
    /// up front, so this stays 0).
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Drop every buffered event and zero the counters; the ring keeps
    /// its allocation and its name table.
    pub fn clear(&self) {
        let mut ring = self.locked();
        ring.slots.clear();
        ring.head = 0;
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
    }

    /// Publish the journal counters into a metrics registry (idempotent:
    /// counters are set, not added).
    pub fn publish(&self, registry: &crate::Registry) {
        registry.counter_set("obs.journal.recorded", self.recorded());
        registry.counter_set("obs.journal.dropped", self.dropped());
        registry.counter_set("obs.journal.allocs", self.allocs());
        registry.gauge_set("obs.journal.events", self.len() as f64);
        registry.gauge_set("obs.journal.bytes", self.bytes() as f64);
    }

    /// Chrome-trace-event JSONL: one complete JSON object per line, with
    /// `ph` `B`/`E`, microsecond `ts` (and `dur` on `E` lines), and the
    /// trace/span/parent ids as hex strings under `args`.
    pub fn to_chrome_jsonl(&self) -> String {
        let pid = std::process::id();
        let mut out = String::new();
        for e in self.locked().events() {
            let mut fields = vec![
                ("name", Json::Str(e.name.to_owned())),
                ("cat", Json::Str("orpheus".to_owned())),
                (
                    "ph",
                    Json::Str(match e.phase {
                        Phase::Begin => "B".to_owned(),
                        Phase::End => "E".to_owned(),
                    }),
                ),
                ("ts", Json::Num(e.ts_us as f64)),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(e.thread as f64)),
                (
                    "args",
                    Json::object(vec![
                        ("trace", Json::Str(format!("{:#x}", e.trace_id))),
                        ("span", Json::Str(format!("{:#x}", e.span_id))),
                        ("parent", Json::Str(format!("{:#x}", e.parent_span_id))),
                    ]),
                ),
            ];
            if e.phase == Phase::End {
                fields.push(("dur", Json::Num(e.dur_us as f64)));
            }
            out.push_str(&Json::object(fields).to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Human summary for `trace dump` without `--json`.
    pub fn summary_text(&self) -> String {
        let events = self.snapshot();
        let mut traces: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
        for e in &events {
            let entry = traces.entry(e.trace_id).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += e.dur_us;
        }
        let mut out = format!(
            "journal: {} buffered event(s), {} recorded, {} dropped, sample 1/{}, capacity {}\n",
            events.len(),
            self.recorded(),
            self.dropped(),
            self.sample(),
            self.capacity(),
        );
        for (trace, (n, dur)) in traces.iter().rev().take(20) {
            out.push_str(&format!(
                "  trace {trace:#x}: {n} event(s), {dur}us total span time\n"
            ));
        }
        if events.is_empty() {
            out.push_str("  (no sampled traces; check ORPHEUS_TRACE_SAMPLE)\n");
        }
        out
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new(DEFAULT_CAPACITY, DEFAULT_SAMPLE)
    }
}

/// Per-name self time (duration minus direct children) summed over the
/// `End` events given, largest first. Feed it one trace's events to get
/// the slow-query log's "top spans" line.
pub fn self_times(events: &[SpanEvent]) -> Vec<(&'static str, u64)> {
    let mut child_dur: HashMap<u64, u64> = HashMap::new();
    for e in events {
        if e.phase == Phase::End && e.parent_span_id != 0 {
            *child_dur.entry(e.parent_span_id).or_insert(0) += e.dur_us;
        }
    }
    let mut per_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        if e.phase != Phase::End {
            continue;
        }
        let children = child_dur.get(&e.span_id).copied().unwrap_or(0);
        *per_name.entry(e.name).or_insert(0) += e.dur_us.saturating_sub(children);
    }
    let mut out: Vec<(&'static str, u64)> = per_name.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    out
}

/// Parse an `ORPHEUS_TRACE_SAMPLE` value: a non-negative integer; `0`
/// disables the journal. `None` for anything else.
pub fn parse_sample(raw: &str) -> Option<u64> {
    raw.trim().parse().ok()
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "concurrency tests spawn their own threads"
)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let j = Journal::new(4, 1);
        for i in 0..10u64 {
            j.begin(1, i + 1, 0, "op");
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.recorded(), 10);
        assert_eq!(j.dropped(), 6);
        // Oldest evicted: the survivors are the last four span ids.
        let ids: Vec<u64> = j.snapshot().iter().map(|e| e.span_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn four_threads_overfill_the_ring_without_allocating() {
        const CAP: usize = 64;
        const PER_THREAD: u64 = (10 * CAP / 4) as u64;
        const NAMES: [&str; 4] = ["t.zero", "t.one", "t.two", "t.three"];
        let j = std::sync::Arc::new(Journal::new(CAP, 1));
        // Every field is a function of (thread, i), so each survivor can
        // be checked whole.
        let event = |t: u64, i: u64| SpanEvent {
            phase: if i.is_multiple_of(2) {
                Phase::Begin
            } else {
                Phase::End
            },
            trace_id: t + 1,
            span_id: (t << 32) | i,
            parent_span_id: i * 3,
            name: NAMES[t as usize],
            ts_us: 1_000 * t + i,
            dur_us: i * 7,
            thread: 100 + t,
        };
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || (0..PER_THREAD).for_each(|i| j.push(event(t, i))))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.len(), CAP);
        assert_eq!(j.recorded(), 4 * PER_THREAD);
        assert_eq!(j.dropped(), j.recorded() - CAP as u64);
        assert_eq!(j.allocs(), 0);
        assert_eq!(j.bytes(), CAP * 40);
        let mut survivors: [Vec<u64>; 4] = Default::default();
        for e in j.snapshot() {
            let (t, i) = (e.trace_id - 1, e.span_id & 0xffff_ffff);
            assert_eq!(e, event(t, i));
            survivors[t as usize].push(i);
        }
        // The ring keeps a suffix of the push order, so each thread's
        // survivors are its newest events, oldest first.
        for ids in survivors {
            let first = PER_THREAD - ids.len() as u64;
            assert_eq!(ids, (first..PER_THREAD).collect::<Vec<_>>());
        }
    }

    #[test]
    fn narrowed_fields_saturate() {
        let j = Journal::new(4, 1);
        j.end(1, 1, 0, "long", Duration::from_secs(5_000));
        j.push(SpanEvent {
            phase: Phase::Begin,
            trace_id: 1,
            span_id: 2,
            parent_span_id: 0,
            name: "late",
            ts_us: 9,
            dur_us: u64::MAX,
            thread: u64::from(u16::MAX) + 5,
        });
        let events = j.snapshot();
        assert_eq!(events[0].dur_us, u64::from(u32::MAX));
        assert_eq!(events[1].dur_us, u64::from(u32::MAX));
        assert_eq!(events[1].thread, u64::from(u16::MAX));
    }

    #[test]
    fn names_past_the_table_read_back_as_other() {
        let j = Journal::new(2 * NAMES, 1);
        let names: Vec<&'static str> = (0..=NAMES)
            .map(|i| &*Box::leak(format!("n{i}").into_boxed_str()))
            .collect();
        for (i, name) in names.iter().enumerate() {
            j.begin(1, i as u64 + 1, 0, name);
        }
        j.begin(1, 0, 0, names[3]);
        let events = j.snapshot();
        assert_eq!(events[NAMES - 1].name, names[NAMES - 1]);
        assert_eq!(events[NAMES].name, OTHER);
        assert_eq!(events[NAMES + 1].name, "n3");
        assert_eq!(j.allocs(), 0);
    }

    #[test]
    fn a_wrapped_ring_dumps_capacity_lines_oldest_first() {
        let j = Journal::new(8, 1);
        for i in 1..=20u64 {
            j.begin(1, i, 0, "op");
        }
        let dump = j.to_chrome_jsonl();
        let spans: Vec<String> = dump
            .lines()
            .map(|l| {
                let line = crate::parse(l).unwrap();
                line.get_path("args/span")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect();
        let expected: Vec<String> = (13..=20u64).map(|i| format!("{i:#x}")).collect();
        assert_eq!(spans, expected);
    }

    #[test]
    fn sampling_is_per_trace_and_zero_disables() {
        let j = Journal::new(16, 2);
        assert!(j.sampled(2));
        assert!(j.sampled(4));
        assert!(!j.sampled(3));
        assert!(!j.sampled(0), "trace id 0 means untraced");
        j.set_sample(0);
        assert!(!j.sampled(2));
        j.set_sample(1);
        assert!(j.sampled(3));
    }

    #[test]
    fn disabled_journal_never_allocates() {
        let j = Journal::new(16, 0);
        // Callers gate on sampled(); mimic the recorder's hot path.
        for t in 1..100u64 {
            if j.sampled(t) {
                j.begin(t, t, 0, "op");
            }
            j.attribute(t, "shared", Duration::from_micros(5));
        }
        assert_eq!(j.allocs(), 0);
        assert_eq!(j.recorded(), 0);
        assert!(j.is_empty());
    }

    #[test]
    fn chrome_jsonl_lines_parse_and_carry_ids() {
        let j = Journal::new(16, 1);
        j.begin(0xabc, 7, 3, "orpheus.commit");
        j.end(0xabc, 7, 3, "orpheus.commit", Duration::from_micros(1500));
        let dump = j.to_chrome_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let missing = crate::missing_keys(
                line,
                &[
                    "name",
                    "ph",
                    "ts",
                    "pid",
                    "tid",
                    "args/trace",
                    "args/span",
                    "args/parent",
                ],
            )
            .unwrap();
            assert!(missing.is_empty(), "{missing:?} in {line}");
        }
        let end = crate::parse(lines[1]).unwrap();
        assert_eq!(end.get("ph").and_then(Json::as_str), Some("E"));
        assert_eq!(end.get("dur").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(
            end.get_path("args/trace").and_then(Json::as_str),
            Some("0xabc")
        );
    }

    #[test]
    fn self_times_subtract_direct_children() {
        // parent (100us) -> child (60us) -> grandchild (10us); sibling (5us).
        let mk = |span, parent, name: &'static str, dur| SpanEvent {
            phase: Phase::End,
            trace_id: 1,
            span_id: span,
            parent_span_id: parent,
            name,
            ts_us: 0,
            dur_us: dur,
            thread: 1,
        };
        let events = vec![
            mk(1, 0, "parent", 100),
            mk(2, 1, "child", 60),
            mk(3, 2, "grandchild", 10),
            mk(4, 1, "sibling", 5),
        ];
        let top = self_times(&events);
        assert_eq!(
            top,
            [
                ("child", 50),
                ("parent", 35),
                ("grandchild", 10),
                ("sibling", 5)
            ]
        );
    }

    #[test]
    fn publish_exports_counters() {
        let j = Journal::new(2, 1);
        j.begin(1, 1, 0, "a");
        j.begin(1, 2, 0, "b");
        j.begin(1, 3, 0, "c");
        let reg = crate::Registry::new();
        j.publish(&reg);
        assert_eq!(reg.counter("obs.journal.recorded"), 3);
        assert_eq!(reg.counter("obs.journal.dropped"), 1);
        assert_eq!(reg.counter("obs.journal.allocs"), 0);
        assert_eq!(reg.gauge("obs.journal.events"), Some(2.0));
        assert_eq!(reg.gauge("obs.journal.bytes"), Some(80.0));
    }

    #[test]
    fn clear_resets_everything() {
        let j = Journal::new(4, 1);
        j.begin(1, 1, 0, "a");
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.recorded(), 0);
        assert_eq!(j.allocs(), 0);
    }

    #[test]
    fn parse_sample_takes_non_negative_integers_only() {
        assert_eq!(parse_sample("4"), Some(4));
        assert_eq!(parse_sample(" 0 "), Some(0));
        for bad in ["every-other", "-3", "1.5", ""] {
            assert_eq!(parse_sample(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn summary_text_mentions_traces_and_drops() {
        let j = Journal::new(8, 1);
        j.end(0x10, 1, 0, "a", Duration::from_micros(40));
        let text = j.summary_text();
        assert!(text.contains("0x10"), "{text}");
        assert!(text.contains("1 buffered"), "{text}");
        let empty = Journal::new(8, 0);
        assert!(empty.summary_text().contains("no sampled traces"));
    }
}
