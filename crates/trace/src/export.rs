//! A drained capture ([`Trace`]), its diff and its exporter.
//!
//! Two consumers:
//!
//! * **Diffing** ([`Trace::diff`]) — the golden-trace and replay tests
//!   compare traces event-for-event, resolving interned names and argument
//!   blobs so two captures diff equal even if their interning orders were
//!   to differ.
//! * **Chrome trace-event JSON** ([`Trace::to_chrome_json`]) — loadable in
//!   Perfetto / `chrome://tracing`; the persist-event sequence number is
//!   used as the timestamp axis, which is exactly the deterministic
//!   ordering axis, so two runs of the same schedule render identically.

use crate::event::{EventKind, TraceEvent};

/// A merged, drained capture: events in the pool-wide total order plus the
/// resolved interning tables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Events sorted by `(seq, thread)`, ring order preserved within ties.
    pub events: Vec<TraceEvent>,
    /// Interned names; id `n` (≥ 1) lives at `names[n - 1]`.
    pub names: Vec<String>,
    /// Interned blobs; id `n` (≥ 1) lives at `blobs[n - 1]`.
    pub blobs: Vec<Vec<u8>>,
    /// Events lost to full rings. A non-zero value means the event list is
    /// a per-thread prefix of the run, not the whole run.
    pub dropped: u64,
}

/// Where two traces first disagree. `left`/`right` is `None` when that
/// trace simply ended first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Index of the first differing event.
    pub index: usize,
    /// The left trace's event at `index`, if any.
    pub left: Option<TraceEvent>,
    /// The right trace's event at `index`, if any.
    pub right: Option<TraceEvent>,
}

impl std::fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traces diverge at event {}: left={:?} right={:?}",
            self.index, self.left, self.right
        )
    }
}

/// A payload word with interning resolved, for resolve-aware diffing.
#[derive(PartialEq, Eq, Debug)]
enum Resolved<'a> {
    Raw(u64),
    Blob(Option<&'a [u8]>),
}

impl Trace {
    /// Resolves an interned name id (`0` or out-of-range → `None`).
    pub fn name(&self, id: u32) -> Option<&str> {
        (id != 0)
            .then(|| self.names.get(id as usize - 1))
            .flatten()
            .map(String::as_str)
    }

    /// Resolves an interned blob id (`0` or out-of-range → `None`).
    pub fn blob(&self, id: u32) -> Option<&[u8]> {
        (id != 0)
            .then(|| self.blobs.get(id as usize - 1))
            .flatten()
            .map(Vec::as_slice)
    }

    /// Event counts per kind, indexed by discriminant.
    pub fn kind_counts(&self) -> [u64; EventKind::ALL.len()] {
        let mut counts = [0u64; EventKind::ALL.len()];
        for e in &self.events {
            counts[e.kind as usize] += 1;
        }
        counts
    }

    /// An event's identity with interned ids replaced by what they resolve
    /// to, so traces from different tracers compare by meaning, not by the
    /// accident of interning order.
    fn resolved_key(
        &self,
        e: &TraceEvent,
    ) -> (u64, u32, u8, Option<&str>, Resolved<'_>, Resolved<'_>) {
        let b = match e.kind {
            // TxBegin's second payload word is an argument blob id.
            EventKind::TxBegin => Resolved::Blob(self.blob(e.b as u32)),
            _ => Resolved::Raw(e.b),
        };
        (
            e.seq,
            e.thread,
            e.kind as u8,
            self.name(e.name),
            Resolved::Raw(e.a),
            b,
        )
    }

    /// First divergence between two traces, or `None` if they are
    /// equivalent event-for-event (names and blobs resolved).
    pub fn diff(&self, other: &Trace) -> Option<TraceDivergence> {
        let n = self.events.len().max(other.events.len());
        for i in 0..n {
            let l = self.events.get(i);
            let r = other.events.get(i);
            let same = match (l, r) {
                (Some(a), Some(b)) => self.resolved_key(a) == other.resolved_key(b),
                _ => false,
            };
            if !same {
                return Some(TraceDivergence {
                    index: i,
                    left: l.copied(),
                    right: r.copied(),
                });
            }
        }
        None
    }

    /// Serializes to Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// envelope), loadable in Perfetto and `chrome://tracing`. The
    /// persist-event sequence number is the timestamp; each event is a
    /// 1-tick complete event so it renders with visible width.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = self.name(e.name).unwrap_or(e.kind.label());
            out.push_str("{\"name\":\"");
            escape_json_into(name, &mut out);
            out.push_str("\",\"cat\":\"");
            out.push_str(e.kind.label());
            out.push_str("\",\"ph\":\"X\",\"dur\":1,\"pid\":1,\"tid\":");
            out.push_str(&e.thread.to_string());
            out.push_str(",\"ts\":");
            out.push_str(&e.seq.to_string());
            out.push_str(",\"args\":{\"a\":");
            out.push_str(&e.a.to_string());
            out.push_str(",\"b\":");
            out.push_str(&e.b.to_string());
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    seq: 0,
                    thread: 0,
                    kind: EventKind::TxBegin,
                    name: 1,
                    a: 0,
                    b: 1,
                },
                TraceEvent {
                    seq: 0,
                    thread: 0,
                    kind: EventKind::Store,
                    name: 0,
                    a: 4096,
                    b: 8,
                },
                TraceEvent {
                    seq: 1,
                    thread: 0,
                    kind: EventKind::Fence,
                    name: 0,
                    a: 0,
                    b: 0,
                },
            ],
            names: vec!["transfer".into()],
            blobs: vec![vec![1, 2, 3]],
            dropped: 0,
        }
    }

    #[test]
    fn diff_resolves_interning() {
        let t = sample();
        // Same meaning, different interning order: extra unused entries
        // shift the ids.
        let mut other = sample();
        other.names = vec!["unused".into(), "transfer".into()];
        other.blobs = vec![vec![9], vec![1, 2, 3]];
        other.events[0].name = 2;
        other.events[0].b = 2;
        assert_eq!(t.diff(&other), None);

        // A genuinely different payload diverges.
        let mut bad = sample();
        bad.events[1].a = 8192;
        let d = t.diff(&bad).unwrap();
        assert_eq!(d.index, 1);

        // Length mismatch diverges at the shorter trace's end.
        let mut short = sample();
        short.events.pop();
        let d = t.diff(&short).unwrap();
        assert_eq!(d.index, 2);
        assert!(d.right.is_none());
    }

    #[test]
    fn chrome_json_is_wellformed_enough() {
        let mut t = sample();
        t.names[0] = "with \"quotes\"\n".into();
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\u000a"));
        assert!(json.contains("\"cat\":\"store\""));
        assert_eq!(json.matches("{\"name\":").count(), t.events.len());
    }

    #[test]
    fn kind_counts_tally() {
        let counts = sample().kind_counts();
        assert_eq!(counts[EventKind::TxBegin as usize], 1);
        assert_eq!(counts[EventKind::Store as usize], 1);
        assert_eq!(counts[EventKind::Fence as usize], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }
}
