//! Exact device-memory budget accounting.
//!
//! There is no GPU here, so GPU memory is *accounted* rather than sampled:
//! components register their allocations against a [`MemoryTracker`] with a
//! fixed budget, and the tracker records current and peak usage and rejects
//! allocations that would exceed the budget — which is exactly how the query
//! optimizer's "GPU memory budget" rule (Fig. 8) decides between the
//! coarse-index plan and the DIPR plans, and how the serving layer's
//! admission control reserves a session's worst-case bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Error returned when an allocation would exceed the device budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failed allocation.
    pub requested: u64,
    /// Bytes in use at the time of the request.
    pub in_use: u64,
    /// The tracker's budget.
    pub budget: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} B in use of {} B budget",
            self.requested, self.in_use, self.budget
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Thread-safe byte-granular budget tracker for one device.
#[derive(Debug)]
pub struct MemoryTracker {
    budget: u64,
    in_use: AtomicU64,
    peak: AtomicU64,
}

impl MemoryTracker {
    /// Creates a tracker with the given byte budget.
    pub fn new(budget: u64) -> Arc<Self> {
        Arc::new(Self {
            budget,
            in_use: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        })
    }

    /// An effectively unlimited tracker (for host DRAM in experiments that
    /// only constrain the GPU side).
    pub fn unbounded() -> Arc<Self> {
        Self::new(u64::MAX)
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Bytes still available under the budget.
    pub fn available(&self) -> u64 {
        self.budget.saturating_sub(self.in_use())
    }

    /// Attempts to allocate `bytes`, returning an RAII guard that releases
    /// the reservation on drop.
    pub fn alloc(self: &Arc<Self>, bytes: u64) -> Result<MemoryGuard, OutOfMemory> {
        // CAS loop so concurrent allocators can never jointly overshoot.
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(bytes) {
                Some(n) if n <= self.budget => n,
                _ => {
                    return Err(OutOfMemory {
                        requested: bytes,
                        in_use: cur,
                        budget: self.budget,
                    })
                }
            };
            match self
                .in_use
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::AcqRel);
                    return Ok(MemoryGuard {
                        tracker: Arc::clone(self),
                        bytes,
                    });
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Whether `bytes` could be allocated right now. This is the optimizer's
    /// "GPU memory budget" probe — it does not reserve anything.
    pub fn would_fit(&self, bytes: u64) -> bool {
        self.in_use()
            .checked_add(bytes)
            .map(|n| n <= self.budget)
            .unwrap_or(false)
    }

    fn release(&self, bytes: u64) {
        self.in_use.fetch_sub(bytes, Ordering::AcqRel);
    }
}

/// RAII reservation of device memory; releases on drop.
#[derive(Debug)]
pub struct MemoryGuard {
    tracker: Arc<MemoryTracker>,
    bytes: u64,
}

impl MemoryGuard {
    /// Size of this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grows the reservation by `extra` bytes in place.
    pub fn grow(&mut self, extra: u64) -> Result<(), OutOfMemory> {
        let g = self.tracker.alloc(extra)?;
        // Fold the new reservation into this guard and disarm the temporary.
        self.bytes += g.bytes;
        std::mem::forget(g);
        Ok(())
    }
}

impl Drop for MemoryGuard {
    fn drop(&mut self) {
        self.tracker.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_release_round_trip() {
        let t = MemoryTracker::new(100);
        assert_eq!(t.available(), 100);
        {
            let g = t.alloc(60).unwrap();
            assert_eq!(g.bytes(), 60);
            assert_eq!(t.in_use(), 60);
            assert_eq!(t.available(), 40);
        }
        assert_eq!(t.in_use(), 0);
        assert_eq!(t.peak(), 60);
    }

    #[test]
    fn rejects_over_budget() {
        let t = MemoryTracker::new(100);
        let _g = t.alloc(80).unwrap();
        let err = t.alloc(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(err.budget, 100);
        assert!(!t.would_fit(30));
        assert!(t.would_fit(20));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let t = MemoryTracker::new(1000);
        let a = t.alloc(400).unwrap();
        let b = t.alloc(500).unwrap();
        drop(a);
        drop(b);
        assert_eq!(t.peak(), 900);
        assert_eq!(t.in_use(), 0);
    }

    #[test]
    fn guard_grow() {
        let t = MemoryTracker::new(100);
        let mut g = t.alloc(40).unwrap();
        g.grow(50).unwrap();
        assert_eq!(t.in_use(), 90);
        assert!(g.grow(20).is_err());
        assert_eq!(t.in_use(), 90);
        drop(g);
        assert_eq!(t.in_use(), 0);
    }

    #[test]
    fn concurrent_allocations_never_overshoot() {
        let t = MemoryTracker::new(10_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Ok(g) = t.alloc(7) {
                            assert!(t.in_use() <= t.budget());
                            drop(g);
                        }
                    }
                });
            }
        });
        assert_eq!(t.in_use(), 0);
        assert!(t.peak() <= 10_000);
    }

    #[test]
    fn unbounded_accepts_huge_allocations() {
        let t = MemoryTracker::unbounded();
        let _g = t.alloc(u64::MAX / 2).unwrap();
        assert!(t.would_fit(u64::MAX / 4));
    }
}
