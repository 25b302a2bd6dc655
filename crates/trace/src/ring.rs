//! Capture: lock-free per-thread rings and the [`Tracer`] that owns them.
//!
//! A [`ThreadRing`] is an append-only buffer of packed events with exactly
//! one writer — the owning thread — publishing each slot with a `Release`
//! store of the length. Readers ([`Tracer::take`]) observe a consistent
//! prefix with one `Acquire` load. No slot is ever rewritten, so there is
//! no ABA hazard and no unsafe code; a full ring counts drops instead of
//! wrapping, keeping every captured trace a faithful *prefix* of the run.
//!
//! The hot-path cost when tracing is enabled is one thread-local lookup and
//! four relaxed atomic stores; when disabled the recording sites are never
//! reached at all (the pool checks one relaxed flag).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::event::{EventKind, TraceEvent};
use crate::export::Trace;

/// Default per-thread ring capacity, in events (4 words = 32 bytes each).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One thread's append-only event buffer.
///
/// Safe to share (`&self` methods over atomics), but the push contract is
/// single-writer: only the thread the ring was registered for may push to
/// it. The [`Tracer`] enforces this by handing each
/// thread its own ring through thread-local storage.
pub struct ThreadRing {
    /// This ring's thread registration index within its tracer.
    thread: u32,
    /// Packed event words, `capacity * 4` long.
    words: Box<[AtomicU64]>,
    /// Published event count. `Release` on push, `Acquire` on read.
    len: AtomicUsize,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

impl ThreadRing {
    fn new(thread: u32, capacity: usize) -> ThreadRing {
        let words = (0..capacity * 4).map(|_| AtomicU64::new(0)).collect();
        ThreadRing {
            thread,
            words,
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one event; returns `false` (and counts a drop) if full.
    fn push(&self, seq: u64, kind: EventKind, name: u32, a: u64, b: u64) -> bool {
        let n = self.len.load(Ordering::Relaxed);
        if (n + 1) * 4 > self.words.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let ev = TraceEvent {
            seq,
            thread: self.thread,
            kind,
            name,
            a,
            b,
        };
        for (i, w) in ev.pack().into_iter().enumerate() {
            self.words[n * 4 + i].store(w, Ordering::Relaxed);
        }
        self.len.store(n + 1, Ordering::Release);
        true
    }

    /// Copies the published events out, in append order.
    fn events(&self) -> Vec<TraceEvent> {
        let n = self.len.load(Ordering::Acquire);
        (0..n)
            .filter_map(|i| {
                let w = [
                    self.words[i * 4].load(Ordering::Relaxed),
                    self.words[i * 4 + 1].load(Ordering::Relaxed),
                    self.words[i * 4 + 2].load(Ordering::Relaxed),
                    self.words[i * 4 + 3].load(Ordering::Relaxed),
                ];
                TraceEvent::unpack(w)
            })
            .collect()
    }

    fn reset(&self) -> u64 {
        self.len.store(0, Ordering::Release);
        self.dropped.swap(0, Ordering::Relaxed)
    }
}

/// Interning table handing out stable ids (starting at 1; 0 = none).
#[derive(Default)]
struct Interner<K: std::hash::Hash + Eq + Clone> {
    ids: HashMap<K, u32>,
    list: Vec<K>,
}

impl<K: std::hash::Hash + Eq + Clone> Interner<K> {
    fn intern(&mut self, key: &K) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        self.list.push(key.clone());
        let id = self.list.len() as u32;
        self.ids.insert(key.clone(), id);
        id
    }
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of `(tracer id, ring)` pairs. Weak so a dropped
    /// tracer frees its rings even while threads still hold cache entries.
    static TLS_RINGS: RefCell<Vec<(u64, Weak<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

/// A capture session: the ring registry plus name/blob interning tables.
///
/// Threads register lazily on their first [`record`](Self::record); their
/// registration order defines the `thread` index stamped into events, so a
/// single-threaded run always records as thread 0 — which is what makes
/// golden traces comparable across runs.
pub struct Tracer {
    id: u64,
    capacity: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    names: Mutex<Interner<String>>,
    blobs: Mutex<Interner<Vec<u8>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .field("threads", &self.thread_count())
            .finish()
    }
}

impl Tracer {
    /// A tracer with [`DEFAULT_RING_CAPACITY`] events per thread ring.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A tracer with an explicit per-thread ring capacity (in events).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(1),
            rings: Mutex::new(Vec::new()),
            names: Mutex::new(Interner::default()),
            blobs: Mutex::new(Interner::default()),
        }
    }

    /// The calling thread's ring, registering it on first use.
    fn my_ring(&self) -> Arc<ThreadRing> {
        TLS_RINGS.with(|cell| {
            let mut cache = cell.borrow_mut();
            if let Some((_, weak)) = cache.iter().find(|(id, _)| *id == self.id) {
                if let Some(ring) = weak.upgrade() {
                    return ring;
                }
            }
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            let mut rings = self.rings.lock().unwrap();
            let ring = Arc::new(ThreadRing::new(rings.len() as u32, self.capacity));
            rings.push(ring.clone());
            cache.push((self.id, Arc::downgrade(&ring)));
            ring
        })
    }

    /// Records one event at sequence stamp `seq`; returns `false` if the
    /// calling thread's ring was full and the event was dropped.
    pub fn record(&self, seq: u64, kind: EventKind, name: u32, a: u64, b: u64) -> bool {
        self.my_ring().push(seq, kind, name, a, b)
    }

    /// Interns a transaction (or step) name, returning its stable id ≥ 1.
    pub fn intern(&self, name: &str) -> u32 {
        // Cold path only (once per distinct name per event site would still
        // be fine — the table is tiny).
        let mut names = self.names.lock().unwrap();
        if let Some(&id) = names.ids.get(name) {
            return id;
        }
        names.intern(&name.to_string())
    }

    /// Interns an opaque byte blob (e.g. serialized transaction arguments),
    /// returning its stable id ≥ 1. Identical blobs share an id.
    pub fn record_blob(&self, bytes: &[u8]) -> u32 {
        self.blobs.lock().unwrap().intern(&bytes.to_vec())
    }

    /// Number of threads that have registered rings.
    pub fn thread_count(&self) -> usize {
        self.rings.lock().unwrap().len()
    }

    /// Events dropped so far across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Drains all rings into a merged [`Trace`] and resets them; interning
    /// tables are snapshotted but kept (ids stay valid across takes).
    ///
    /// Events merge into the pool-wide total order: stable sort by
    /// `(seq, thread)`, which preserves each ring's append order for equal
    /// keys. Call from a quiescent point — a thread still recording while
    /// its ring is drained keeps its in-flight events for the next take,
    /// but the drain itself is always safe.
    pub fn take(&self) -> Trace {
        let rings = self.rings.lock().unwrap();
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut dropped = 0;
        for ring in rings.iter() {
            events.extend(ring.events());
            dropped += ring.reset();
        }
        events.sort_by_key(|e| (e.seq, e.thread));
        Trace {
            events,
            names: self.names.lock().unwrap().list.clone(),
            blobs: self.blobs.lock().unwrap().list.clone(),
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_tables() {
        let t = Tracer::new();
        let name = t.intern("put");
        assert_eq!(name, 1);
        assert_eq!(t.intern("put"), 1, "interning is stable");
        let blob = t.record_blob(b"args");
        assert_eq!(t.record_blob(b"args"), blob, "blobs dedupe");
        assert!(t.record(0, EventKind::Store, 0, 64, 8));
        assert!(t.record(1, EventKind::Fence, 0, 0, 0));
        assert!(t.record(1, EventKind::TxBegin, name, 0, blob as u64));
        let trace = t.take();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.events[0].kind, EventKind::Store);
        assert_eq!(trace.events[2].kind, EventKind::TxBegin);
        assert_eq!(trace.name(name), Some("put"));
        assert_eq!(trace.blob(blob), Some(&b"args"[..]));
        assert_eq!(trace.dropped, 0);
        assert_eq!(t.take().events.len(), 0, "take drains");
    }

    #[test]
    fn full_ring_counts_drops() {
        let t = Tracer::with_capacity(2);
        assert!(t.record(0, EventKind::Store, 0, 0, 0));
        assert!(t.record(1, EventKind::Store, 0, 0, 0));
        assert!(!t.record(2, EventKind::Store, 0, 0, 0));
        let trace = t.take();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 1);
    }

    #[test]
    fn threads_get_distinct_rings() {
        let t = Arc::new(Tracer::new());
        t.record(0, EventKind::Fence, 0, 0, 0);
        let t2 = t.clone();
        std::thread::spawn(move || {
            t2.record(1, EventKind::Fence, 0, 0, 0);
        })
        .join()
        .unwrap();
        assert_eq!(t.thread_count(), 2);
        let trace = t.take();
        assert_eq!(trace.events[0].thread, 0);
        assert_eq!(trace.events[1].thread, 1);
    }
}
