//! Leveled structured event logging with a flight-recorder ring.
//!
//! Every event carries a timestamp, level, target (the subsystem that
//! emitted it), a short message naming the event kind, and `key=value`
//! fields.  Two sinks see each event:
//!
//! * **stderr** — gated by a process-wide level set from `--log
//!   level[,json]`; off by default so library users pay nothing.
//!   Line format: `ts level target message k=v k=v`; JSON mode emits
//!   one object per line instead.
//! * **flight recorder** — a fixed-capacity ring ([`FLIGHT_CAPACITY`]
//!   events) that always records, so the last moments before a failure
//!   can be dumped even when stderr logging was off.  Events tagged
//!   with a `job` field (the canonical request hash, rendered by
//!   [`job_hex`]) can be pulled per request via [`for_job`].
//!
//! Logging here is for *rare* control-plane events (job accepted,
//! requeue, respawn, heartbeat miss) — it takes a mutex per event and
//! is not meant for per-mode hot paths; those stay on the lock-free
//! metrics and span recorders.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Capacity of the flight-recorder ring.
pub const FLIGHT_CAPACITY: usize = 1024;

/// Severity, ordered so that `level <= threshold` means "emit".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 0,
    /// Degraded but recovering (requeue, respawn, heartbeat miss).
    Warn = 1,
    /// Normal control-plane milestones (job accepted, job done).
    Info = 2,
    /// Chatty detail (cache probes, mode assignment).
    Debug = 3,
}

impl Level {
    /// Lowercase name, as printed and parsed.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a lowercase level name.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Option<Level> {
        match v {
            0 => Some(Level::Error),
            1 => Some(Level::Warn),
            2 => Some(Level::Info),
            3 => Some(Level::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct LogEvent {
    /// Process-wide monotonically increasing sequence number.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem (`master`, `pool`, `worker`, `service`, ...).
    pub target: String,
    /// Event kind (`job_accepted`, `mode_requeue`, ...).
    pub message: String,
    /// Structured `key=value` payload.
    pub fields: Vec<(String, String)>,
}

impl LogEvent {
    /// Value of the named field, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Human line form: `ts level target message k=v ...`.
    pub fn render_line(&self) -> String {
        let mut s = format!(
            "{}.{:03} {:5} {} {}",
            self.unix_ms / 1000,
            self.unix_ms % 1000,
            self.level,
            self.target,
            self.message
        );
        for (k, v) in &self.fields {
            s.push(' ');
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }

    /// One-line JSON object form (fields inlined as string values).
    pub fn render_json(&self) -> String {
        use crate::json::Json;
        let mut obj = vec![
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("unix_ms".to_string(), Json::Num(self.unix_ms as f64)),
            ("level".to_string(), Json::Str(self.level.as_str().into())),
            ("target".to_string(), Json::Str(self.target.clone())),
            ("message".to_string(), Json::Str(self.message.clone())),
        ];
        for (k, v) in &self.fields {
            obj.push((k.clone(), Json::Str(v.clone())));
        }
        Json::Obj(obj).to_string()
    }
}

/// Stderr threshold: `u8::MAX` = off (the default).
static STDERR_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);
/// Whether stderr lines render as JSON objects.
static STDERR_JSON: AtomicU8 = AtomicU8::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);

struct Ring {
    events: Vec<LogEvent>,
    next: usize,
}

static FLIGHT: Mutex<Ring> = Mutex::new(Ring {
    events: Vec::new(),
    next: 0,
});

/// Set the stderr sink: `None` silences it, `Some(level)` emits events
/// at or above `level` (line format, or JSON objects when `json`).
pub fn set_stderr(level: Option<Level>, json: bool) {
    STDERR_LEVEL.store(level.map_or(u8::MAX, |l| l as u8), Ordering::Relaxed);
    STDERR_JSON.store(u8::from(json), Ordering::Relaxed);
}

/// Current stderr threshold, `None` when silenced.
pub fn stderr_level() -> Option<Level> {
    Level::from_u8(STDERR_LEVEL.load(Ordering::Relaxed))
}

/// Parse the `--log` flag value: `LEVEL` or `LEVEL,json`.
pub fn parse_log_flag(s: &str) -> Result<(Level, bool), String> {
    let (level, json) = match s.split_once(',') {
        Some((l, "json")) => (l, true),
        Some((_, other)) => return Err(format!("unknown --log modifier {other:?}")),
        None => (s, false),
    };
    Level::parse(level)
        .map(|l| (l, json))
        .ok_or_else(|| format!("unknown log level {level:?} (error|warn|info|debug)"))
}

/// Record one event: always into the flight ring, and onto stderr when
/// the threshold admits it.
pub fn log(level: Level, target: &str, message: &str, fields: &[(&str, String)]) {
    let event = LogEvent {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        level,
        target: target.to_string(),
        message: message.to_string(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    };
    let threshold = STDERR_LEVEL.load(Ordering::Relaxed);
    if threshold != u8::MAX && (level as u8) <= threshold {
        if STDERR_JSON.load(Ordering::Relaxed) != 0 {
            eprintln!("{}", event.render_json());
        } else {
            eprintln!("{}", event.render_line());
        }
    }
    if let Ok(mut ring) = FLIGHT.lock() {
        if ring.events.len() < FLIGHT_CAPACITY {
            ring.events.push(event);
        } else {
            let at = ring.next;
            ring.events[at] = event;
        }
        ring.next = (ring.next + 1) % FLIGHT_CAPACITY;
    }
}

fn snapshot_ring() -> Vec<LogEvent> {
    let Ok(ring) = FLIGHT.lock() else {
        return Vec::new();
    };
    let mut events = ring.events.clone();
    events.sort_by_key(|e| e.seq);
    events
}

/// The last `max` recorded events, oldest first.
pub fn recent(max: usize) -> Vec<LogEvent> {
    let events = snapshot_ring();
    let skip = events.len().saturating_sub(max);
    events.into_iter().skip(skip).collect()
}

/// Canonical rendering of a job hash in log fields and span args.
pub fn job_hex(job_hash: u64) -> String {
    format!("{job_hash:016x}")
}

/// Canonical rendering of one shard of an ensemble sweep in log fields
/// and span args: the ensemble's canonical hash plus the shard's index,
/// `<ensemble_hex>/<shard>`.  Filtering on the prefix collects a whole
/// sweep's trail; the full label isolates one shard.
pub fn shard_label(ensemble_hash: u64, shard: usize) -> String {
    format!("{ensemble_hash:016x}/{shard}")
}

/// The last `max` events whose `job` field matches `job_hash`, oldest
/// first — the flight-recorder trail of one request.
pub fn for_job(job_hash: u64, max: usize) -> Vec<LogEvent> {
    let hex = job_hex(job_hash);
    let events: Vec<LogEvent> = snapshot_ring()
        .into_iter()
        .filter(|e| e.field("job") == Some(hex.as_str()))
        .collect();
    let skip = events.len().saturating_sub(max);
    events.into_iter().skip(skip).collect()
}

/// Render a flight-recorder dump: one JSON object per line, oldest
/// first — the sidecar format written next to a failing job's report.
pub fn render_flight_dump(events: &[LogEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.render_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_roundtrip() {
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("verbose"), None);
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn parse_log_flag_forms() {
        assert_eq!(parse_log_flag("info"), Ok((Level::Info, false)));
        assert_eq!(parse_log_flag("debug,json"), Ok((Level::Debug, true)));
        assert!(parse_log_flag("loud").is_err());
        assert!(parse_log_flag("info,yaml").is_err());
    }

    #[test]
    fn flight_ring_keeps_job_trail() {
        let job = 0xdead_beef_0123_4567u64;
        let other = job ^ 1;
        log(
            Level::Info,
            "test-ring",
            "job_accepted",
            &[("job", job_hex(job))],
        );
        log(
            Level::Debug,
            "test-ring",
            "cache_miss",
            &[("job", job_hex(other))],
        );
        log(
            Level::Warn,
            "test-ring",
            "mode_requeue",
            &[("job", job_hex(job)), ("ik", "3".into())],
        );
        let trail = for_job(job, 16);
        assert_eq!(trail.len(), 2);
        assert_eq!(trail[0].message, "job_accepted");
        assert_eq!(trail[1].message, "mode_requeue");
        assert_eq!(trail[1].field("ik"), Some("3"));
        assert!(trail[0].seq < trail[1].seq);

        let dump = render_flight_dump(&trail);
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("\"mode_requeue\""));
        assert!(dump.contains(&job_hex(job)));
    }

    #[test]
    fn render_line_is_greppable() {
        let e = LogEvent {
            seq: 1,
            unix_ms: 1_723_000_000_123,
            level: Level::Warn,
            target: "pool".into(),
            message: "respawn".into(),
            fields: vec![("worker".into(), "2".into())],
        };
        let line = e.render_line();
        assert!(line.contains("warn"), "{line}");
        assert!(line.contains("pool respawn worker=2"), "{line}");
        let json = e.render_json();
        assert!(json.contains("\"level\":"), "{json}");
    }
}
