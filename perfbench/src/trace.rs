//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, the span that caused it and the request
//! it belongs to.  Spans stay in memory while the workload runs and are
//! written out once it ends; a layer's self time is its span's duration
//! minus the time its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Layer boundary the span was taken at, e.g. `pipeline.extend`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request, 0 for none.
    pub request: u64,
}

struct Inner {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span sink; a disabled tracer records nothing and costs one branch.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self(None)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self(Some(Arc::new(Inner {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent ends.  0 when disabled.
    pub fn reserve(&self) -> u64 {
        // Ids only need to be unique; they publish no other memory.
        self.0
            .as_ref()
            .map_or(0, |inner| inner.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        span: (Instant, Instant),
        parent: u64,
        request: u64,
    ) {
        if let Some(inner) = &self.0 {
            let ns = |t: Instant| t.saturating_duration_since(inner.origin).as_nanos() as u64;
            inner
                .spans
                .lock()
                .expect("span buffer lock poisoned")
                .push(Span {
                    id,
                    name,
                    start_ns: ns(span.0),
                    end_ns: ns(span.1),
                    parent,
                    request,
                });
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled() {
            return f(0);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, (start, Instant::now()), parent, request);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .spans
                .lock()
                .expect("span buffer lock poisoned")
                .clone()
        })
    }
}

/// Per-name totals: span count, total and self time in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover.
    pub self_ns: u64,
}

/// Totals and self times per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += total;
        layer.self_ns += total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The spans plus their self-time table as one JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"layers\": {");
    for (i, (name, t)) in self_times(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("},\n\"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}[{}, \"{}\", {}, {}, {}, {}]",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::on();
        tracer.span("outer", 0, 7, |outer| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tracer.span("inner", outer, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request == 7));
        let times = self_times(&spans);
        let (outer, inner) = (times["outer"], times["inner"]);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 5_000_000 && outer.self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        assert_eq!(tracer.span("x", 0, 0, |id| id), 0);
        assert!(tracer.spans().is_empty());
    }
}
