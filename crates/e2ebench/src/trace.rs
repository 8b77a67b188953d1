//! Harness-side spans: one per layer boundary the harness crosses, kept
//! in memory and written out as a chrome trace when the run ends.
//!
//! The spans wrap calls into the program's public functions; nothing
//! inside the program is instrumented here.  A phase's self time is the
//! seconds [`Tracer::span`] returns for it — the same two clock reads
//! that make the span.

use std::time::Instant;

use telemetry::{SpanEvent, SpanRecorder};

/// Records spans while switched on; always times.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    rec: SpanRecorder,
    adopted: Vec<SpanEvent>,
    on: bool,
}

impl Tracer {
    /// A switched-off tracer on track `tid`, stamping against `epoch`.
    pub fn new(epoch: Instant, tid: u64) -> Self {
        Self {
            epoch,
            rec: SpanRecorder::new(epoch, 0, tid),
            adopted: Vec::new(),
            on: false,
        }
    }

    /// Switch recording on or off (timing is unaffected).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` as span `name` of repetition or request `id`; returns its
    /// result and its seconds.
    pub fn span<T>(&mut self, name: &str, id: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, id, start, end, &[]);
        (out, (end - start).as_secs_f64())
    }

    /// Record an interval timed by the caller.
    pub fn record(
        &mut self,
        name: &str,
        id: usize,
        start: Instant,
        end: Instant,
        args: &[(&str, String)],
    ) {
        if !self.on {
            return;
        }
        let mut all = vec![("id", id.to_string())];
        all.extend_from_slice(args);
        self.rec.record(name, "harness", start, end, &all);
    }

    /// Adopt the timeline a `FarmReport` returned for the call that
    /// began at `began`: the program stamps its spans against its own
    /// epoch, taken as it starts, so they are shifted onto this clock
    /// (and onto process track 1) by the time the call began.
    pub fn adopt(&mut self, spans: &[SpanEvent], began: Instant, id: usize) {
        if !self.on {
            return;
        }
        let shift = began.saturating_duration_since(self.epoch).as_micros() as u64;
        self.adopted.extend(spans.iter().map(|s| {
            let mut s = s.clone();
            s.pid = 1;
            s.ts_us += shift;
            s.args.push(("id".into(), id.to_string()));
            s
        }));
    }

    /// Everything recorded and adopted.
    pub fn into_events(self) -> Vec<SpanEvent> {
        let mut events = self.rec.into_events();
        events.extend(self.adopted);
        events
    }
}
