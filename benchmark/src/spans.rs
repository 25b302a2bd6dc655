//! Span recorder for the traced run.
//!
//! The benchmark records spans from its own files, around the calls into
//! each layer. Spans stay in memory (one pre-reserved `Vec`) and are written
//! out as Chrome trace-event JSON when the run ends. Recording is off in the
//! untraced rounds: opening a span is then one thread-local flag test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` name, e.g. `kvnet.service.process_batch_on`.
    pub name: &'static str,
    /// Start, ns since recording was enabled.
    pub start_ns: u64,
    /// End, ns since recording was enabled.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by every span of one batch / op / restart.
    pub group: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    group: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        group: 0,
    });
}

/// Starts recording into a buffer reserved for `capacity` spans.
pub fn enable(capacity: usize) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.epoch = Instant::now();
        r.spans = Vec::with_capacity(capacity);
        r.open.clear();
        r.group = 0;
    });
}

/// Stops recording and hands back everything recorded.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Sets the identifier stamped on spans opened from now on.
pub fn set_group(group: u64) {
    REC.with(|r| r.borrow_mut().group = group);
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard(Option<u32>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return SpanGuard(None);
        }
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let group = r.group;
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            group,
        });
        r.open.push(idx);
        SpanGuard(Some(idx))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let now = r.epoch.elapsed().as_nanos() as u64;
                // `take()` may have emptied the buffer under an open guard.
                if let Some(s) = r.spans.get_mut(idx as usize) {
                    s.end_ns = now;
                }
                if r.open.last() == Some(&idx) {
                    r.open.pop();
                }
            });
        }
    }
}

/// Per-span self time: its duration minus the part its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Adds count, total and self time per span name of `spans` to `out`.
pub fn add_totals(out: &mut BTreeMap<&'static str, NameTotal>, spans: &[Span]) {
    let own = self_times(spans);
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own_ns;
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for the first
/// `limit` spans: complete (`"ph":"X"`) events, µs timestamps, the group id
/// and parent index in `args`.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"group\":{},\"span\":{},\"parent\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.group,
            i,
            parent
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { leaf 15..25 }, b 50..70 }
        let spans = vec![
            sp("root", 0, 100, NO_PARENT),
            sp("a", 10, 40, 0),
            sp("leaf", 15, 25, 1),
            sp("b", 50, 70, 0),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let own: u64 = self_times(&spans).iter().sum();
        assert_eq!(own, 100, "self times partition the root's duration");
        let mut t = BTreeMap::new();
        add_totals(&mut t, &spans);
        add_totals(&mut t, &[]);
        assert_eq!(
            t["root"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(t["a"].self_ns, 20);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        enable(16);
        set_group(7);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let _sibling = span("sibling");
        drop(_sibling);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert!(spans.iter().all(|s| s.group == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Off again: guards are inert.
        drop(span("ignored"));
        assert!(take().is_empty());
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let spans = vec![
            sp("kvnet.proto.decode", 1_000, 2_500, NO_PARENT),
            sp("x.y", 1_200, 1_300, 0),
        ];
        let doc = crate::json::Json::parse(&chrome_trace(&spans, 10)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(1.5));
        assert_eq!(events[0].get("cat").unwrap().as_str(), Some("kvnet"));
        assert_eq!(chrome_trace(&spans, 1).matches("\"ph\"").count(), 1);
    }
}
