//! A timing wrapper around the snapshot source handed to `salsa_serve::serve`.
//!
//! It measures snapshot assembly at the boundary between the serve stack
//! (cache and coalescer) and the pipeline without touching either: the
//! span of each `SnapshotSource::snapshot` call, and from the view's
//! per-shard statistics the part of that span the slowest worker spent
//! copying its sketch.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use salsa_pipeline::{SnapshotSource, SnapshotView};

use crate::trace::Tracer;

/// Snapshot timings, in milliseconds, one entry per assembled view.
#[derive(Debug, Default, Clone)]
pub struct SnapshotLog {
    /// Wall time of each `snapshot()` call.
    pub span_ms: Vec<f64>,
    /// Copy time of the slowest shard for each view (shards copy in
    /// parallel, so the slowest one is on the critical path).
    pub copy_ms: Vec<f64>,
    last_copy_secs: Vec<f64>,
}

/// Forwards every call to `inner`; when the tracer records, it also logs
/// and traces each snapshot assembly.
pub struct TimedSource<H> {
    inner: H,
    tracer: Tracer,
    log: Arc<Mutex<SnapshotLog>>,
}

impl<H> TimedSource<H> {
    /// Wraps `inner`; the returned log fills while the wrapper is in use.
    pub fn new(inner: H, tracer: Tracer) -> (Self, Arc<Mutex<SnapshotLog>>) {
        let log = Arc::new(Mutex::new(SnapshotLog::default()));
        let wrapper = Self {
            inner,
            tracer,
            log: Arc::clone(&log),
        };
        (wrapper, log)
    }
}

impl<H: SnapshotSource<S>, S> SnapshotSource<S> for TimedSource<H> {
    fn snapshot(&self) -> Option<SnapshotView<S>> {
        if !self.tracer.enabled() {
            return self.inner.snapshot();
        }
        let start = Instant::now();
        let view = self.inner.snapshot();
        let end = Instant::now();
        let id = self.tracer.reserve();
        self.tracer
            .record(id, "pipeline.snapshot", (start, end), 0, 0);
        if let Some(view) = &view {
            let mut log = self.log.lock().expect("snapshot log lock poisoned");
            let shards = view.shards();
            log.last_copy_secs.resize(shards.len(), 0.0);
            let mut copy = 0.0f64;
            for (last, shard) in log.last_copy_secs.iter_mut().zip(shards) {
                // A restarted shard starts its counter over; never go negative.
                copy = copy.max((shard.snapshot_secs - *last).max(0.0));
                *last = shard.snapshot_secs;
            }
            log.span_ms.push((end - start).as_secs_f64() * 1e3);
            log.copy_ms.push(copy * 1e3);
        }
        view
    }

    fn acknowledged(&self) -> u64 {
        self.inner.acknowledged()
    }

    fn recycle(&self, spare: S) {
        self.inner.recycle(spare);
    }
}
