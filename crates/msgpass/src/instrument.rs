//! Transparent telemetry instrumentation for any [`Transport`].
//!
//! [`Instrumented`] wraps an endpoint and records, per message tag:
//! messages and bytes sent, messages and bytes received, and send/recv
//! call latencies (log2-bucketed nanosecond histograms).  The counters
//! live in a shared [`EndpointStats`] so the farm can keep an `Arc`
//! handle while the wrapped endpoint moves to its worker thread, then
//! harvest a [`CommSnapshot`] after the join.
//!
//! Because the wrapper works at the [`Transport`] seam it measures all
//! substrates identically — the per-tag message table of the paper's
//! §4 becomes one merged snapshot whether the run farmed over channels
//! or TCP.  Bytes are counted as
//! `8 ×` the `f64` payload length (the same convention as
//! [`Transport::payload_bytes`] and the worker's own `bytes_sent`
//! ledger), so transport-level framing overhead is excluded and the
//! numbers are comparable across substrates.
//!
//! Recording honours the global `telemetry::enabled()` switch: when
//! telemetry is off every counter update compiles down to one relaxed
//! atomic load and a skipped branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use telemetry::{Histogram, HistogramSnapshot};

use crate::{CommError, Envelope, Rank, Tag, Transport};

/// Number of distinct tags tracked individually; tags `>= TRACKED_TAGS`
/// fold into the last slot.  The farm protocol uses tags 1–11, so 16
/// leaves ample headroom.
pub const TRACKED_TAGS: usize = 16;

/// Shared per-endpoint communication counters, indexed by tag.
#[derive(Debug, Default)]
pub struct EndpointStats {
    sent_count: [AtomicU64; TRACKED_TAGS],
    sent_bytes: [AtomicU64; TRACKED_TAGS],
    recv_count: [AtomicU64; TRACKED_TAGS],
    recv_bytes: [AtomicU64; TRACKED_TAGS],
    send_ns: Histogram,
    recv_ns: Histogram,
}

/// Fold an arbitrary tag into a tracked slot.
#[inline]
fn slot(tag: Tag) -> usize {
    (tag as usize).min(TRACKED_TAGS - 1)
}

impl EndpointStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one message of `words` `f64`s about to be sent under
    /// `tag`.  Counting *before* the transport's send call means the
    /// receiver can never observe a message its sender has not counted
    /// yet — a per-job table cut the moment the last reply arrives is
    /// closed-world.  Says whether anything was recorded.
    #[inline]
    fn count_send(&self, tag: Tag, words: usize) -> bool {
        if !telemetry::enabled() {
            return false;
        }
        let s = slot(tag);
        self.sent_count[s].fetch_add(1, Ordering::Relaxed);
        self.sent_bytes[s].fetch_add((words * 8) as u64, Ordering::Relaxed);
        true
    }

    /// Take back a [`count_send`](Self::count_send) whose send failed.
    #[inline]
    fn uncount_send(&self, tag: Tag, words: usize) {
        let s = slot(tag);
        self.sent_count[s].fetch_sub(1, Ordering::Relaxed);
        self.sent_bytes[s].fetch_sub((words * 8) as u64, Ordering::Relaxed);
    }

    /// Record one received message of `words` `f64`s under `tag`,
    /// taking `elapsed` inside the transport's recv call (which
    /// includes the time blocked waiting for the message).
    #[inline]
    pub fn on_recv(&self, tag: Tag, words: usize, elapsed: Duration) {
        if !telemetry::enabled() {
            return;
        }
        let s = slot(tag);
        self.recv_count[s].fetch_add(1, Ordering::Relaxed);
        self.recv_bytes[s].fetch_add((words * 8) as u64, Ordering::Relaxed);
        self.recv_ns.record(elapsed.as_nanos() as u64);
    }

    /// Immutable copy of everything recorded so far, labelled with the
    /// owning endpoint's rank.
    pub fn snapshot(&self, rank: Rank) -> CommSnapshot {
        let load = |a: &[AtomicU64; TRACKED_TAGS]| {
            let mut out = [0u64; TRACKED_TAGS];
            for (o, v) in out.iter_mut().zip(a.iter()) {
                *o = v.load(Ordering::Relaxed);
            }
            out
        };
        CommSnapshot {
            rank,
            sent_count: load(&self.sent_count),
            sent_bytes: load(&self.sent_bytes),
            recv_count: load(&self.recv_count),
            recv_bytes: load(&self.recv_bytes),
            send_ns: self.send_ns.snapshot(),
            recv_ns: self.recv_ns.snapshot(),
        }
    }
}

/// Plain-data view of one endpoint's communication, mergeable across
/// ranks into the run-wide message table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSnapshot {
    /// Rank of the endpoint that recorded these numbers.
    pub rank: Rank,
    /// Messages sent, by tag slot.
    pub sent_count: [u64; TRACKED_TAGS],
    /// Payload bytes sent, by tag slot.
    pub sent_bytes: [u64; TRACKED_TAGS],
    /// Messages received, by tag slot.
    pub recv_count: [u64; TRACKED_TAGS],
    /// Payload bytes received, by tag slot.
    pub recv_bytes: [u64; TRACKED_TAGS],
    /// Send-call latency distribution (nanoseconds).
    pub send_ns: HistogramSnapshot,
    /// Recv-call latency distribution (nanoseconds; includes blocking).
    pub recv_ns: HistogramSnapshot,
}

impl Default for CommSnapshot {
    fn default() -> Self {
        Self {
            rank: 0,
            sent_count: [0; TRACKED_TAGS],
            sent_bytes: [0; TRACKED_TAGS],
            recv_count: [0; TRACKED_TAGS],
            recv_bytes: [0; TRACKED_TAGS],
            send_ns: HistogramSnapshot::default(),
            recv_ns: HistogramSnapshot::default(),
        }
    }
}

impl CommSnapshot {
    /// Total messages sent across all tags.
    pub fn total_sent(&self) -> u64 {
        self.sent_count.iter().sum()
    }

    /// Total payload bytes sent across all tags.
    pub fn total_sent_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Total messages received across all tags.
    pub fn total_recv(&self) -> u64 {
        self.recv_count.iter().sum()
    }

    /// Total payload bytes received across all tags.
    pub fn total_recv_bytes(&self) -> u64 {
        self.recv_bytes.iter().sum()
    }

    /// Fold another endpoint's snapshot into this one (tag-wise sums;
    /// the rank label keeps this side's value).
    pub fn merge(&mut self, other: &CommSnapshot) {
        for i in 0..TRACKED_TAGS {
            self.sent_count[i] += other.sent_count[i];
            self.sent_bytes[i] += other.sent_bytes[i];
            self.recv_count[i] += other.recv_count[i];
            self.recv_bytes[i] += other.recv_bytes[i];
        }
        self.send_ns.merge(&other.send_ns);
        self.recv_ns.merge(&other.recv_ns);
    }

    /// Render this snapshot as a generic [`telemetry::TelemetrySnapshot`]:
    /// counters `msgs_sent`, `msgs_recv`, `bytes_sent`, `bytes_recv`
    /// (plus per-tag `…_tagN` breakdowns for tags that moved) and the
    /// `send_ns`/`recv_ns` latency histograms.  These names are part of
    /// the observability contract (`docs/OBSERVABILITY.md`); the farm
    /// report and the service's `/metrics` endpoint both build on them.
    pub fn to_telemetry(&self) -> telemetry::TelemetrySnapshot {
        let mut s = telemetry::TelemetrySnapshot::default();
        s.add("msgs_sent", self.total_sent());
        s.add("msgs_recv", self.total_recv());
        s.add("bytes_sent", self.total_sent_bytes());
        s.add("bytes_recv", self.total_recv_bytes());
        for tag in 0..TRACKED_TAGS {
            if self.sent_count[tag] > 0 {
                s.add(&format!("msgs_sent_tag{tag}"), self.sent_count[tag]);
                s.add(&format!("bytes_sent_tag{tag}"), self.sent_bytes[tag]);
            }
            if self.recv_count[tag] > 0 {
                s.add(&format!("msgs_recv_tag{tag}"), self.recv_count[tag]);
                s.add(&format!("bytes_recv_tag{tag}"), self.recv_bytes[tag]);
            }
        }
        s.histograms.insert("send_ns".into(), self.send_ns.clone());
        s.histograms.insert("recv_ns".into(), self.recv_ns.clone());
        s
    }

    /// Traffic accumulated since `base`, an earlier snapshot of the
    /// *same* endpoint: tag-wise saturating differences of every
    /// counter.  A pooled farm takes a snapshot between jobs and
    /// reports each job's table as `now.delta(&before)`, so per-job
    /// reports don't accumulate earlier jobs' traffic.  Latency
    /// histograms subtract bucket-wise; their `min`/`max` stay
    /// cumulative (see [`HistogramSnapshot::delta`]).
    pub fn delta(&self, base: &CommSnapshot) -> CommSnapshot {
        let sub = |a: &[u64; TRACKED_TAGS], b: &[u64; TRACKED_TAGS]| {
            let mut out = [0u64; TRACKED_TAGS];
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = a[i].saturating_sub(b[i]);
            }
            out
        };
        CommSnapshot {
            rank: self.rank,
            sent_count: sub(&self.sent_count, &base.sent_count),
            sent_bytes: sub(&self.sent_bytes, &base.sent_bytes),
            recv_count: sub(&self.recv_count, &base.recv_count),
            recv_bytes: sub(&self.recv_bytes, &base.recv_bytes),
            send_ns: self.send_ns.delta(&base.send_ns),
            recv_ns: self.recv_ns.delta(&base.recv_ns),
        }
    }
}

/// A [`Transport`] wrapper that forwards every call to the inner
/// endpoint and records per-tag counts, bytes, and latencies into a
/// shared [`EndpointStats`].
#[derive(Debug)]
pub struct Instrumented<T: Transport> {
    inner: T,
    stats: Arc<EndpointStats>,
}

impl<T: Transport> Instrumented<T> {
    /// Wrap `inner`, returning the wrapper and a shared handle to its
    /// counters (keep the handle; the wrapper usually moves to a
    /// thread).
    pub fn new(inner: T) -> (Self, Arc<EndpointStats>) {
        let stats = Arc::new(EndpointStats::new());
        (
            Self {
                inner,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }

    /// The shared counter handle.
    pub fn stats(&self) -> Arc<EndpointStats> {
        Arc::clone(&self.stats)
    }

    /// Unwrap, dropping the instrumentation.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for Instrumented<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, dest: Rank, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        let counted = self.stats.count_send(tag, data.len());
        let t0 = Instant::now();
        let r = self.inner.send(dest, tag, data);
        if counted {
            match r {
                Ok(()) => self.stats.send_ns.record(t0.elapsed().as_nanos() as u64),
                Err(_) => self.stats.uncount_send(tag, data.len()),
            }
        }
        r
    }

    fn probe(&mut self, source: Option<Rank>, tag: Option<Tag>) -> Result<Envelope, CommError> {
        self.inner.probe(source, tag)
    }

    fn probe_timeout(
        &mut self,
        source: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, CommError> {
        self.inner.probe_timeout(source, tag, timeout)
    }

    fn recv(&mut self, source: Rank, tag: Tag, buf: &mut Vec<f64>) -> Result<Envelope, CommError> {
        let t0 = Instant::now();
        let r = self.inner.recv(source, tag, buf);
        if let Ok(env) = &r {
            self.stats.on_recv(env.tag, env.len, t0.elapsed());
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelWorld;
    use crate::World;

    #[test]
    fn wrapper_counts_per_tag_traffic() {
        let mut eps = ChannelWorld::endpoints(2).unwrap();
        let w1 = eps.pop().unwrap();
        let w0 = eps.pop().unwrap();
        let (mut a, sa) = Instrumented::new(w0);
        let (mut b, sb) = Instrumented::new(w1);

        a.send(1, 3, &[1.0, 2.0, 3.0]).unwrap();
        a.send(1, 3, &[4.0]).unwrap();
        a.send(1, 5, &[]).unwrap();
        let mut buf = Vec::new();
        b.recv(0, 3, &mut buf).unwrap();
        b.recv(0, 3, &mut buf).unwrap();
        b.recv(0, 5, &mut buf).unwrap();

        let snap_a = sa.snapshot(0);
        let snap_b = sb.snapshot(1);
        assert_eq!(snap_a.sent_count[3], 2);
        assert_eq!(snap_a.sent_bytes[3], 32);
        assert_eq!(snap_a.sent_count[5], 1);
        assert_eq!(snap_a.sent_bytes[5], 0);
        assert_eq!(snap_a.total_sent(), 3);
        assert_eq!(snap_a.total_recv(), 0);
        assert_eq!(snap_b.recv_count[3], 2);
        assert_eq!(snap_b.recv_bytes[3], 32);
        assert_eq!(snap_b.recv_count[5], 1);
        assert_eq!(snap_b.total_recv_bytes(), 32);
        assert_eq!(snap_a.send_ns.count, 3);
        assert_eq!(snap_b.recv_ns.count, 3);
        // closed world: everything sent was received
        assert_eq!(snap_a.total_sent_bytes(), snap_b.total_recv_bytes());
    }

    #[test]
    fn oversized_tags_fold_into_last_slot() {
        let mut eps = ChannelWorld::endpoints(2).unwrap();
        let w1 = eps.pop().unwrap();
        let w0 = eps.pop().unwrap();
        let (mut a, sa) = Instrumented::new(w0);
        let mut b = w1;
        a.send(1, 999, &[1.0]).unwrap();
        a.send(1, u32::MAX, &[1.0]).unwrap();
        let mut buf = Vec::new();
        b.recv(0, 999, &mut buf).unwrap();
        let snap = sa.snapshot(0);
        assert_eq!(snap.sent_count[TRACKED_TAGS - 1], 2);
        assert_eq!(snap.total_sent(), 2);
    }

    #[test]
    fn snapshot_merge_sums_tagwise() {
        let mut a = CommSnapshot::default();
        a.sent_count[4] = 2;
        a.sent_bytes[4] = 100;
        let mut b = CommSnapshot {
            rank: 1,
            ..CommSnapshot::default()
        };
        b.sent_count[4] = 3;
        b.sent_bytes[4] = 50;
        b.recv_count[1] = 1;
        a.merge(&b);
        assert_eq!(a.sent_count[4], 5);
        assert_eq!(a.sent_bytes[4], 150);
        assert_eq!(a.recv_count[1], 1);
        assert_eq!(a.rank, 0);
    }

    #[test]
    fn failed_send_is_not_counted() {
        let mut eps = ChannelWorld::endpoints(2).unwrap();
        let _w1 = eps.pop().unwrap();
        let w0 = eps.pop().unwrap();
        let (mut a, sa) = Instrumented::new(w0);
        assert!(a.send(7, 1, &[1.0]).is_err());
        assert_eq!(sa.snapshot(0).total_sent(), 0);
    }
}
