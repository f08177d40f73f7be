//! In-memory span recording for the traced run.
//!
//! A span has a name, a start, an end, the span it ran inside, and the
//! request it belongs to (every span of one job, op or sweep shares that
//! id). Spans are kept in memory while the workload runs and written out
//! once at the end as a Chrome `trace_event` file. Every closed span is
//! also recorded, in nanoseconds, in a `catnap_telemetry::Registry`
//! histogram under its name, next to the counters the workloads add.
//! A disabled tracer records nothing and never reads the clock.

use catnap_telemetry::{Histogram, Registry};
use catnap_util::{Json, ToJson};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span was taken at (`multinoc.step`, …).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Median of a histogram of span lengths, in nanoseconds. The median
/// sample's bucket is read as `Histogram::value_at_quantile` finds it,
/// and the median placed inside that bucket by its rank among the
/// bucket's samples, so it moves with the samples rather than in
/// whole-bucket steps.
fn median_ns(h: &Histogram) -> f64 {
    let rank = h.count().div_ceil(2).max(1);
    let mut seen = 0;
    for (low, high, count) in h.nonzero_buckets() {
        if seen + count >= rank {
            // The bucket's samples, spread evenly over its range.
            let inside = ((rank - seen) as f64 - 0.5) / count as f64;
            let v = low as f64 + inside * (high - low) as f64;
            return v.clamp(h.min() as f64, h.max() as f64);
        }
        seen += count;
    }
    h.max() as f64
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "an open span must be passed to Tracer::end"]
pub struct Open(Option<usize>);

/// Span recorder plus the per-layer registry.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Span histograms (ns, by span name) and workload counters.
    pub registry: Registry,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            registry: Registry::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost
    /// first.
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans must close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        let (name, dur) = (s.name, s.dur_ns());
        self.registry.observe(name, dur);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Closed spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.registry.histogram(name).map_or(0, |h| h.count())
    }

    /// Summed length of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.registry.histogram(name).map_or(0.0, |h| h.sum() as f64 / 1e6)
    }

    /// Median length of the spans named `name`, in milliseconds, or
    /// `None` if there were none.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        self.registry.histogram(name).map(|h| median_ns(h) / 1e6)
    }

    /// Median length of the spans named `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        self.median_ms(name).map(|ms| ms * 1e3)
    }

    /// Per span name: count, total and self time in milliseconds. Self
    /// time is a span's length minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.dur_ns() as f64 / 1e6;
            e.2 += s.dur_ns().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as a Chrome `trace_event` file (load it in
    /// Perfetto or chrome://tracing), with `meta` and the registry as
    /// extra top-level keys.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the file cannot be written.
    pub fn write_chrome(&self, path: &Path, meta: &Json) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"meta\":{},\"registry\":{},\"traceEvents\":[",
            meta.to_compact_string(),
            self.registry.to_json().to_compact_string()
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.request
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("inner", 7, || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let summary = t.summary();
        let (n_outer, total, self_ms) = summary["outer"];
        assert_eq!(n_outer, 1);
        assert_eq!(summary["inner"].0, 2);
        assert!(self_ms < total && (total - self_ms - summary["inner"].1).abs() < 1e-6);
        assert_eq!(t.count("inner"), 2);
        assert!((t.total_ms("inner") - summary["inner"].1).abs() < 1e-6);
        assert!(t.median_ms("inner").is_some_and(|ms| ms > 0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("x", 0);
        t.end(open);
        assert_eq!(t.span("y", 0, || 5), 5);
        assert!(t.spans().is_empty());
        assert!(t.registry.histogram("x").is_none());
        assert_eq!(t.median_ms("x"), None);
    }

    #[test]
    fn median_reads_the_registry_histogram() {
        let mut h = Histogram::latency();
        for v in [10, 20, 30, 40, 50_000] {
            h.record(v);
        }
        // Exact below 32 ns: the third of five samples.
        assert_eq!(median_ns(&h), 30.0);
        let mut wide = Histogram::latency();
        for v in 1_000_000..1_000_100 {
            wide.record(v);
        }
        let m = median_ns(&wide);
        assert!((1_000_000.0..=1_000_099.0).contains(&m), "{m}");
    }
}
