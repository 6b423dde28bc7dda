//! The flight recorder: a fixed-size ring buffer of recent span/event
//! records, dumped on demand — in practice by the scheduler's batch-panic
//! handler — for post-mortem debugging.
//!
//! The ring is preallocated at construction; recording copies one small
//! `Copy` struct under a `std::sync::Mutex` (untraced, so no lock-order
//! edges; per-event frequency, not per-kernel, so the cost is noise).
//! Events carry caller-supplied timestamps — the recorder never reads a
//! clock.

use std::sync::{Mutex, PoisonError};

/// One recorded event. `kind` is a static tag (e.g. `"serve.reply.ok"`);
/// `key` identifies the subject (the serving stack uses the session-slot
/// address); `a`/`b` are kind-specific payloads (batch sizes, queue
/// depths, duration nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Caller-clock timestamp in nanoseconds since the caller's epoch.
    pub t_nanos: u64,
    /// Static event tag.
    pub kind: &'static str,
    /// Subject key (0 when not applicable).
    pub key: u64,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

impl Event {
    pub fn new(t_nanos: u64, kind: &'static str, key: u64, a: u64, b: u64) -> Self {
        Self {
            t_nanos,
            kind,
            key,
            a,
            b,
        }
    }
}

const EMPTY: Event = Event {
    t_nanos: 0,
    kind: "",
    key: 0,
    a: 0,
    b: 0,
};

struct Ring {
    buf: Vec<Event>,
    /// Next write position.
    head: usize,
    /// Total events ever recorded (so a dump can say how many were lost).
    total: u64,
}

/// A fixed-capacity ring of recent [`Event`]s plus a slot holding the
/// most recent panic dump.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    last_panic: Mutex<Option<String>>,
    capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` events
    /// (preallocated; recording never allocates).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Mutex::new(Ring {
                buf: vec![EMPTY; capacity],
                head: 0,
                total: 0,
            }),
            last_panic: Mutex::new(None),
            capacity,
        }
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event, overwriting the oldest when full.
    pub fn record(&self, ev: Event) {
        let mut r = self.ring();
        let head = r.head;
        r.buf[head] = ev;
        r.head = (head + 1) % self.capacity;
        r.total += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        let r = self.ring();
        (r.total as usize).min(self.capacity)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the ring oldest-to-newest, one event per line.
    pub fn dump(&self) -> String {
        let r = self.ring();
        let held = (r.total as usize).min(self.capacity);
        let mut out = String::with_capacity(held * 64 + 64);
        out.push_str(&format!(
            "flight recorder: {} of {} total events retained\n",
            held, r.total
        ));
        // Oldest event sits at `head` once the ring has wrapped, at 0
        // before that.
        let start = if r.total as usize > self.capacity {
            r.head
        } else {
            0
        };
        for i in 0..held {
            let ev = &r.buf[(start + i) % self.capacity];
            out.push_str(&format!(
                "t={}ns {} key={:#x} a={} b={}\n",
                ev.t_nanos, ev.kind, ev.key, ev.a, ev.b
            ));
        }
        out
    }

    /// Freezes a dump for post-mortem retrieval (and returns it), for a
    /// caller that caught a panic and keeps running; the latest dump wins.
    /// Nothing is printed: the default panic hook has already reported
    /// the panic, and the dump is read back through
    /// [`FlightRecorder::last_panic_dump`].
    pub fn dump_on_panic(&self, context: &str) -> String {
        let dump = format!("== panic: {context} ==\n{}", self.dump());
        *self
            .last_panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(dump.clone());
        dump
    }

    /// The most recent [`FlightRecorder::dump_on_panic`] dump, if any.
    pub fn last_panic_dump(&self) -> Option<String> {
        self.last_panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        let rec = FlightRecorder::new(4);
        assert!(rec.is_empty());
        for i in 0..10u64 {
            rec.record(Event::new(i, "tick", i, 0, 0));
        }
        assert_eq!(rec.len(), 4);
        let dump = rec.dump();
        assert!(dump.contains("4 of 10 total"), "{dump}");
        // Oldest-to-newest: events 6..=9 survive, in order.
        let positions: Vec<usize> = (6..10)
            .map(|i| dump.find(&format!("t={i}ns")).expect("event present"))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{dump}");
        assert!(!dump.contains("t=5ns"), "oldest events overwritten");
    }

    #[test]
    fn panic_dump_is_frozen_and_retrievable() {
        let rec = FlightRecorder::new(8);
        rec.record(Event::new(1, "serve.enqueue", 0xAB, 3, 0));
        assert!(rec.last_panic_dump().is_none());
        let dump = rec.dump_on_panic("batch exploded");
        assert!(dump.contains("batch exploded"));
        assert!(dump.contains("serve.enqueue"));
        assert_eq!(rec.last_panic_dump().as_deref(), Some(dump.as_str()));
    }
}
