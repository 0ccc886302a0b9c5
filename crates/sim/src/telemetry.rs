//! Structured telemetry: counters, log2 histograms, a metrics registry,
//! and deterministic exporters (Chrome/Perfetto trace-event JSON, CSV
//! timelines, human summary tables).
//!
//! The paper's entire evaluation is *observation* of the simulator:
//! per-component utilization drives the <2 µW claim and event-service
//! timing drives the EP-vs-microcontroller comparison. This module turns
//! those quantities into first-class, queryable data, in the spirit of
//! PELS-style event-service-latency reporting. Everything here is
//! in-tree, allocation-light, and byte-deterministic: two same-seed runs
//! must produce identical exports, so the exporters never consult
//! wall-clock time, hash-map iteration order, or locale.

use crate::repeat::Totals;
use crate::trace::{TraceBuffer, TraceKind};
use std::fmt::Write as _;
use ulp_testkit::json::Quoted;

// ---------------------------------------------------------------------
// Log2 histogram
// ---------------------------------------------------------------------

/// Number of buckets in a [`Log2Histogram`]: bucket 0 holds the value 0,
/// bucket `i` (1..=64) holds values in `[2^(i-1), 2^i)` — so bucket 64
/// holds `[2^63, u64::MAX]`.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram over `u64` samples.
///
/// Recording is a handful of integer operations (no allocation, no
/// floating point), cheap enough for per-event probes. Quantiles are
/// answered as the *upper bound* of the bucket containing the requested
/// rank, so for any recorded value `v > 0` the estimate `e` satisfies
/// `v <= e <= 2v - 1`; the value 0 is always reported exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub const fn new() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LOG2_BUCKETS`.
    pub fn bucket_upper(i: usize) -> u64 {
        assert!(i < LOG2_BUCKETS, "bucket {i} out of range");
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record `n` samples of `value`: the histogram `n` calls of
    /// [`record`](Log2Histogram::record) leave.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of recorded samples.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Quantile estimate for `p` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(p·count)`-th smallest sample (rank
    /// clamped to at least 1), refined by the exact `min`/`max` when the
    /// rank lands in the extreme buckets' tails.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&p), "quantile {p} out of [0, 1]");
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                // The estimate can never be below the global minimum or
                // above the global maximum — both are tracked exactly.
                return Some(Self::bucket_upper(i).clamp(self.min, self.max));
            }
        }
        unreachable!("rank <= count")
    }

    /// Merge another histogram into this one. Merging is associative and
    /// commutative: any grouping of merges over the same samples yields
    /// the same histogram.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Visit the buckets, `count` and `sum` as counts, for a machine
    /// that repeats whole iterations of its state (until `sum`
    /// saturates). `min` and `max` are left out: the iterations a jump
    /// covers record only the values the recorded one did, which cannot
    /// move them again.
    pub fn totals(&mut self, t: &mut dyn Totals) {
        for n in &mut self.buckets {
            t.count(n);
        }
        t.count(&mut self.count);
        t.count(&mut self.sum);
    }
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonic event count.
    Counter(u64),
    /// A sample distribution (boxed: the histogram's fixed bucket array
    /// dwarfs a counter, and registries hold a mixed `Vec` of both).
    Histogram(Box<Log2Histogram>),
}

/// An insertion-ordered registry of named metrics.
///
/// Ordering is by first registration, never by hashing, so `summary()`
/// and `to_csv()` are byte-deterministic across runs and platforms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, Metric)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn entry(&mut self, name: &str) -> Option<&mut Metric> {
        self.entries
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m)
    }

    /// Add to (or create) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a histogram.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self.entry(name) {
            Some(Metric::Counter(v)) => *v += n,
            Some(Metric::Histogram(_)) => panic!("metric `{name}` is a histogram"),
            None => self.entries.push((name.to_string(), Metric::Counter(n))),
        }
    }

    /// Record a sample into (or create) a histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a counter.
    pub fn record(&mut self, name: &str, value: u64) {
        match self.entry(name) {
            Some(Metric::Histogram(h)) => h.record(value),
            Some(Metric::Counter(_)) => panic!("metric `{name}` is a counter"),
            None => {
                let mut h = Log2Histogram::new();
                h.record(value);
                self.entries
                    .push((name.to_string(), Metric::Histogram(Box::new(h))));
            }
        }
    }

    /// Insert (or merge into) a whole histogram under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a counter.
    pub fn insert_histogram(&mut self, name: &str, hist: &Log2Histogram) {
        match self.entry(name) {
            Some(Metric::Histogram(h)) => h.merge(hist),
            Some(Metric::Counter(_)) => panic!("metric `{name}` is a counter"),
            None => self
                .entries
                .push((name.to_string(), Metric::Histogram(Box::new(hist.clone())))),
        }
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// A counter's value, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            Metric::Counter(v) => Some(*v),
            Metric::Histogram(_) => None,
        }
    }

    /// A histogram, if `name` is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        match self.get(name)? {
            Metric::Histogram(h) => Some(h.as_ref()),
            Metric::Counter(_) => None,
        }
    }

    /// All metrics in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> + '_ {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another registry into this one: counters add, histograms
    /// merge, unknown names append in the other's order.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, m) in &other.entries {
            match m {
                Metric::Counter(v) => self.counter_add(name, *v),
                Metric::Histogram(h) => self.insert_histogram(name, h),
            }
        }
    }

    /// A fixed-width human-readable table, deterministic byte-for-byte.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .entries
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(4)
            .max(6);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>9}  {:>12}  {:>12}  {:>10}  {:>10}  {:>10}  {:>10}",
            "metric", "kind", "count", "sum", "min", "p50", "p99", "max",
        );
        for (name, m) in &self.entries {
            match m {
                Metric::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{name:<name_w$}  {:>9}  {v:>12}  {:>12}  {:>10}  {:>10}  {:>10}  {:>10}",
                        "counter", "-", "-", "-", "-", "-",
                    );
                }
                Metric::Histogram(h) => {
                    let cell = |v: Option<u64>| match v {
                        Some(v) => v.to_string(),
                        None => "-".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "{name:<name_w$}  {:>9}  {:>12}  {:>12}  {:>10}  {:>10}  {:>10}  {:>10}",
                        "histogram",
                        h.count(),
                        h.sum(),
                        cell(h.min()),
                        cell(h.percentile(0.50)),
                        cell(h.percentile(0.99)),
                        cell(h.max()),
                    );
                }
            }
        }
        out
    }

    /// CSV export: `name,kind,count,sum,min,p50,p90,p99,max,mean`.
    /// Counters fill `count` and leave the distribution columns empty.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,kind,count,sum,min,p50,p90,p99,max,mean\n");
        for (name, m) in &self.entries {
            match m {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{name},counter,{v},,,,,,,");
                }
                Metric::Histogram(h) => {
                    let cell = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_default();
                    let mean = h.mean().map(|m| format!("{m:.3}")).unwrap_or_default();
                    let _ = writeln!(
                        out,
                        "{name},histogram,{},{},{},{},{},{},{},{mean}",
                        h.count(),
                        h.sum(),
                        cell(h.min()),
                        cell(h.percentile(0.50)),
                        cell(h.percentile(0.90)),
                        cell(h.percentile(0.99)),
                        cell(h.max()),
                    );
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Chrome/Perfetto trace-event JSON
// ---------------------------------------------------------------------

/// Format a microsecond timestamp deterministically (three decimals,
/// fixed notation — no locale, no scientific form).
fn fmt_us(us: f64) -> String {
    format!("{us:.3}")
}

/// Thread ids used when deriving tracks from a [`TraceBuffer`].
mod tid {
    pub const EP: u32 = 1;
    pub const MCU: u32 = 2;
    pub const RADIO: u32 = 3;
    pub const BUS: u32 = 4;
    pub const IRQ: u32 = 5;
    pub const POWER: u32 = 6;
    pub const OTHER: u32 = 7;
}

/// Builder for Chrome trace-event JSON (the format `chrome://tracing`
/// and [Perfetto](https://ui.perfetto.dev) open directly).
///
/// Events are emitted in insertion order and all numbers are formatted
/// with fixed precision, so the output is byte-stable across runs.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name a process (Perfetto group header).
    pub fn meta_process(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}}",
            Quoted(name)
        ));
    }

    /// Name a thread (Perfetto track label).
    pub fn meta_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            Quoted(name)
        ));
    }

    /// A thread-scoped instant event.
    pub fn instant(&mut self, pid: u32, tid: u32, ts_us: f64, cat: &str, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"cat\":{},\"name\":{}}}",
            fmt_us(ts_us),
            Quoted(cat),
            Quoted(name)
        ));
    }

    /// A complete duration event.
    pub fn span(&mut self, pid: u32, tid: u32, ts_us: f64, dur_us: f64, cat: &str, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
             \"cat\":{},\"name\":{}}}",
            fmt_us(ts_us),
            fmt_us(dur_us),
            Quoted(cat),
            Quoted(name)
        ));
    }

    /// A counter sample (rendered as a track graph in Perfetto).
    pub fn counter(&mut self, pid: u32, ts_us: f64, name: &str, value: u64) {
        self.events.push(format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"name\":{},\
             \"args\":{{\"value\":{value}}}}}",
            fmt_us(ts_us),
            Quoted(name)
        ));
    }

    /// Import a whole [`TraceBuffer`] as process `pid`, with `clock_hz`
    /// converting cycles to microseconds. Event-processor ISR runs
    /// (`LOOKUP` → `READY`) and microcontroller awake periods (wakeup →
    /// sleep) become duration spans on their own tracks; every raw event
    /// also appears as an instant, so nothing recorded is invisible.
    pub fn add_machine(&mut self, pid: u32, name: &str, trace: &TraceBuffer, clock_hz: f64) {
        assert!(clock_hz > 0.0, "clock frequency must be positive");
        self.meta_process(pid, name);
        self.meta_thread(pid, tid::EP, "event processor");
        self.meta_thread(pid, tid::MCU, "mcu");
        self.meta_thread(pid, tid::RADIO, "radio");
        self.meta_thread(pid, tid::BUS, "bus");
        self.meta_thread(pid, tid::IRQ, "irq");
        self.meta_thread(pid, tid::POWER, "power");
        self.meta_thread(pid, tid::OTHER, "other");
        let us = |cycles: u64| cycles as f64 * 1e6 / clock_hz;

        let mut ep_run: Option<(u64, u8)> = None; // (start cycle, irq)
        let mut mcu_awake: Option<(u64, u8)> = None; // (start cycle, cause)
        for e in trace.events() {
            let at = e.at.0;
            let (track, label) = match &e.kind {
                TraceKind::EpLookup { irq } => {
                    ep_run.get_or_insert((at, *irq));
                    (tid::EP, format!("LOOKUP irq={irq}"))
                }
                TraceKind::EpFetch { .. } | TraceKind::EpExecute { .. } => {
                    (tid::EP, e.kind.to_string())
                }
                TraceKind::EpTerminate | TraceKind::EpWakeupMcu { .. } => {
                    if let Some((start, irq)) = ep_run.take() {
                        self.span(
                            pid,
                            tid::EP,
                            us(start),
                            us(at) - us(start),
                            "ep",
                            &format!("isr irq={irq}"),
                        );
                    }
                    (tid::EP, e.kind.to_string())
                }
                TraceKind::IrqAssert { .. } | TraceKind::IrqDispatch { .. } => {
                    (tid::IRQ, e.kind.to_string())
                }
                TraceKind::BusRead { .. } | TraceKind::BusWrite { .. } => {
                    (tid::BUS, e.kind.to_string())
                }
                TraceKind::PowerOn { .. }
                | TraceKind::PowerOff { .. }
                | TraceKind::SramBankWake { .. }
                | TraceKind::SramBankGate { .. } => (tid::POWER, e.kind.to_string()),
                TraceKind::RadioTxStart
                | TraceKind::RadioTxDone { .. }
                | TraceKind::RadioRxDelivered => (tid::RADIO, e.kind.to_string()),
                TraceKind::McuWake { cause, .. } => {
                    mcu_awake.get_or_insert((at, *cause));
                    (tid::MCU, e.kind.to_string())
                }
                TraceKind::McuSleep => {
                    if let Some((start, cause)) = mcu_awake.take() {
                        self.span(
                            pid,
                            tid::MCU,
                            us(start),
                            us(at) - us(start),
                            "mcu",
                            &format!("awake irq={cause}"),
                        );
                    }
                    (tid::MCU, e.kind.to_string())
                }
                TraceKind::FaultInjected { .. }
                | TraceKind::FaultAbsorbed { .. }
                | TraceKind::Note(_)
                | TraceKind::Text(_) => (tid::OTHER, e.kind.to_string()),
            };
            self.instant(pid, track, us(at), e.component, &label);
        }
    }

    /// Serialize to a complete JSON document.
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// CSV timeline of a raw trace buffer: `cycle,t_us,component,event`,
/// with the event text always double-quoted (embedded quotes doubled).
pub fn csv_timeline(trace: &TraceBuffer, clock_hz: f64) -> String {
    assert!(clock_hz > 0.0, "clock frequency must be positive");
    let mut out = String::from("cycle,t_us,component,event\n");
    for e in trace.events() {
        let detail = e.kind.to_string().replace('"', "\"\"");
        let _ = writeln!(
            out,
            "{},{},{},\"{detail}\"",
            e.at.0,
            fmt_us(e.at.0 as f64 * 1e6 / clock_hz),
            e.component,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Cycles;

    #[test]
    fn histogram_buckets_cover_the_u64_range() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_upper(0), 0);
        assert_eq!(Log2Histogram::bucket_upper(1), 1);
        assert_eq!(Log2Histogram::bucket_upper(2), 3);
        assert_eq!(Log2Histogram::bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = Log2Histogram::bucket_of(v);
            assert!(v <= Log2Histogram::bucket_upper(i));
            if i > 0 {
                assert!(v > Log2Histogram::bucket_upper(i - 1));
            }
        }
    }

    /// `record_n(v, n)` leaves the histogram `n` calls of `record(v)`
    /// leave: buckets, count, the saturating sum, min and max, from an
    /// empty histogram and from one with samples already in it.
    #[test]
    fn record_n_is_n_records() {
        let mut pre = Log2Histogram::new();
        pre.record(5);
        pre.record(1 << 40);
        for start in [Log2Histogram::new(), pre] {
            for (value, n) in [(0, 3), (1, 1), (9_999, 700), (u64::MAX / 3, 4), (7, 0)] {
                let (mut bulk, mut one) = (start.clone(), start.clone());
                bulk.record_n(value, n);
                for _ in 0..n {
                    one.record(value);
                }
                assert_eq!(bulk, one, "record_n({value}, {n})");
            }
        }
    }

    /// Reads the counts `totals` visits, or adds `k` times `deltas` to
    /// them.
    struct Counts {
        read: Vec<u64>,
        deltas: Vec<u64>,
        k: u64,
    }

    impl Totals for Counts {
        fn sum(&mut self, _: &mut f64) {
            unreachable!("a histogram has no f64 sum");
        }

        fn count(&mut self, n: &mut u64) {
            let i = self.read.len();
            self.read.push(*n);
            if let Some(delta) = self.deltas.get(i) {
                *n += self.k * delta;
            }
        }
    }

    /// Advancing the counts `totals` visits by `k` times what one
    /// iteration of records added leaves the histogram `k` more such
    /// iterations leave, min and max included, also where that iteration
    /// moved them (from an empty histogram, or to new extremes).
    #[test]
    fn totals_repeat_an_iteration_of_records() {
        let iteration = |h: &mut Log2Histogram| {
            for v in [0, 7, 699, 1 << 33] {
                h.record(v);
            }
        };
        let counts = |h: &mut Log2Histogram, deltas: Vec<u64>, k: u64| {
            let mut c = Counts {
                read: Vec::new(),
                deltas,
                k,
            };
            h.totals(&mut c);
            c.read
        };
        let mut pre = Log2Histogram::new();
        pre.record(40);
        for mut h in [Log2Histogram::new(), pre] {
            let before = counts(&mut h, Vec::new(), 0);
            iteration(&mut h);
            let after = counts(&mut h, Vec::new(), 0);
            let mut want = h.clone();
            for _ in 0..5 {
                iteration(&mut want);
            }
            let deltas = after.iter().zip(&before).map(|(b, a)| b - a).collect();
            counts(&mut h, deltas, 5);
            assert_eq!(h, want);
        }
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let mut h = Log2Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), None);
        for v in [3u64, 5, 9, 0, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 117);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        // rank(0.5) = 3rd smallest = 5, bucket upper = 7.
        assert_eq!(h.percentile(0.5), Some(7));
        // rank(1.0) = 5th = 100 → bucket upper 127 clamped to max 100.
        assert_eq!(h.percentile(1.0), Some(100));
        // rank(0.0) clamps to 1st = 0 → exact.
        assert_eq!(h.percentile(0.0), Some(0));
    }

    #[test]
    fn histogram_merge_is_sum() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut all = Log2Histogram::new();
        for v in [1u64, 9, 200] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 64, 65535] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
    }

    #[test]
    fn metrics_registry_is_insertion_ordered() {
        let mut m = Metrics::new();
        m.counter_add("z.events", 2);
        m.record("a.latency", 10);
        m.counter_add("z.events", 3);
        m.record("a.latency", 20);
        assert_eq!(m.counter("z.events"), Some(5));
        assert_eq!(m.histogram("a.latency").unwrap().count(), 2);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["z.events", "a.latency"],
            "no sorting, no hashing"
        );
        let summary = m.summary();
        let z = summary.find("z.events").unwrap();
        let a = summary.find("a.latency").unwrap();
        assert!(z < a);
        assert!(m.to_csv().starts_with("name,kind,count,"));
    }

    #[test]
    #[should_panic(expected = "is a histogram")]
    fn metrics_kind_confusion_panics() {
        let mut m = Metrics::new();
        m.record("x", 1);
        m.counter_add("x", 1);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = TraceBuffer::new(64);
        t.set_enabled(true);
        t.record(Cycles(10), "ep", TraceKind::EpLookup { irq: 0 });
        t.record(
            Cycles(12),
            "ep",
            TraceKind::EpExecute {
                insn: ulp_isa::ep::Instruction::Terminate,
            },
        );
        t.record(Cycles(13), "ep", TraceKind::EpTerminate);
        t.record(
            Cycles(20),
            "mcu",
            TraceKind::McuWake {
                handler: 0x400,
                cause: 18,
            },
        );
        t.record(Cycles(40), "mcu", TraceKind::McuSleep);
        let mut ct = ChromeTrace::new();
        ct.add_machine(1, "node \"A\"", &t, 100_000.0);
        ct.counter(1, 100.0, "busy", 7);
        let json = ct.finish();
        ulp_testkit::json::parse(&json).expect("well-formed trace JSON");
        assert!(json.contains("\"ph\":\"X\""), "derived spans present");
        assert!(json.contains("isr irq=0"));
        assert!(json.contains("awake irq=18"));
        assert!(json.contains("node \\\"A\\\""), "names escaped");
    }

    #[test]
    fn csv_timeline_quotes_details() {
        let mut t = TraceBuffer::new(8);
        t.set_enabled(true);
        t.record(
            Cycles(100),
            "ep",
            TraceKind::EpExecute {
                insn: ulp_isa::ep::Instruction::WriteI {
                    addr: 0x1200,
                    value: 1,
                },
            },
        );
        let csv = csv_timeline(&t, 100_000.0);
        assert_eq!(
            csv,
            "cycle,t_us,component,event\n100,1000.000,ep,\"EXECUTE writei 0x1200, 1\"\n"
        );
    }
}
