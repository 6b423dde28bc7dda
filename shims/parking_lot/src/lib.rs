//! Offline shim for `parking_lot`: wraps `std::sync` primitives behind
//! parking_lot's non-poisoning API (`lock()` / `read()` / `write()` return
//! guards directly, not `Result`s). Poisoned locks are recovered — the
//! protected data is handed out anyway, matching parking_lot's semantics of
//! not propagating panics through locks.
//!
//! # Lock tracing (`lock-tracing` feature)
//!
//! Behind the `lock-tracing` cargo feature every `Mutex`/`RwLock` carries a
//! *site*: a `&'static str` registered through [`Mutex::new_named`] /
//! [`RwLock::new_named`] identifying the lock's role (e.g.
//! `"core.db.contexts"`). Many lock instances may share one site — all
//! per-session mutexes are the site `"serve.session"` — because deadlock
//! potential is a property of the *class* of lock, not the instance. With
//! the feature enabled the shim maintains:
//!
//! * a **thread-local held-lock stack** (`lock_tracing::held_sites`),
//! * a **global acquisition-order graph** over named sites: acquiring `B`
//!   while holding `A` records the edge `A → B`. If the new edge would
//!   close a cycle (some `B ⇝ A` path already exists), the acquisition
//!   **panics** with both site names, the full inverted path, and two
//!   backtraces: where the conflicting order was first established and
//!   where the current acquisition is happening. Self-edges (`A` while
//!   holding `A`) are permitted — same-class nesting such as a scheduler
//!   locking many sessions is ordering-safe only if a single thread ever
//!   holds several, which is a design invariant the order graph cannot
//!   express (cf. lockdep's nesting annotations) — so it is documented at
//!   the call sites instead.
//! * a **would-block-while-holding detector**: a `lock()`/`read()`/
//!   `write()` that cannot be satisfied immediately while the thread
//!   already holds at least one lock records a
//!   `lock_tracing::WouldBlockEvent` (held sites, wanted site, thread name). Threads
//!   that must never do this — e.g. a latency-critical scheduler — can opt
//!   into panicking instead via
//!   `lock_tracing::forbid_blocking_while_holding`.
//!
//! Unnamed locks participate in the held stack and the would-block
//! detector but **not** in the order graph: two unrelated anonymous locks
//! acquired in opposite orders by unrelated subsystems are not a deadlock,
//! and flagging them would bury real inversions in noise. Name any lock
//! whose ordering matters.
//!
//! With the feature disabled (the default) the site string is carried but
//! never consulted, guards are thin newtypes over the `std::sync` guards,
//! and no global state exists — the shim stays drop-in API-compatible with
//! real `parking_lot` either way (`new_named` degrades to `new`).

// Acquisition paths are written as paired `#[cfg(feature)]` /
// `#[cfg(not(feature))]` blocks; the first block must `return` explicitly,
// which clippy flags as needless because it cannot see the inactive twin.
#![allow(clippy::needless_return)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::Duration;

#[cfg(feature = "lock-tracing")]
pub mod lock_tracing;

#[cfg(feature = "lock-tracing")]
use std::sync::atomic::AtomicUsize;

/// Lock-site identity: a static name plus a lazily resolved site id.
/// Compiled in only under `lock-tracing`.
#[cfg(feature = "lock-tracing")]
#[derive(Debug)]
struct Site {
    name: &'static str,
    cache: AtomicUsize,
}

#[cfg(feature = "lock-tracing")]
impl Site {
    const fn new(name: &'static str) -> Self {
        Site {
            name,
            cache: AtomicUsize::new(0),
        }
    }

    fn resolve(&self) -> usize {
        lock_tracing::resolve_site(&self.cache, self.name)
    }
}

/// A mutual-exclusion lock (non-poisoning API).
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lock-tracing")]
    site: Site,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self::new_named(value, "")
    }

    /// Creates a new mutex whose acquisitions are attributed to the lock
    /// site `name` when the `lock-tracing` feature is enabled (see the
    /// crate docs). Without the feature this is exactly [`Mutex::new`].
    pub const fn new_named(value: T, name: &'static str) -> Self {
        let _ = name;
        Mutex {
            #[cfg(feature = "lock-tracing")]
            site: Site::new(name),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lock-tracing")]
        {
            let site = self.site.resolve();
            let inner = match self.inner.try_lock() {
                Ok(g) => g,
                Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    lock_tracing::on_would_block(site);
                    match self.inner.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    }
                }
            };
            return MutexGuard {
                inner: Some(inner),
                site,
                token: lock_tracing::on_acquired(site),
            };
        }
        #[cfg(not(feature = "lock-tracing"))]
        {
            let inner = match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            MutexGuard { inner: Some(inner) }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(feature = "lock-tracing")]
        {
            let site = self.site.resolve();
            return Some(MutexGuard {
                inner: Some(inner),
                site,
                token: lock_tracing::on_acquired(site),
            });
        }
        #[cfg(not(feature = "lock-tracing"))]
        Some(MutexGuard { inner: Some(inner) })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A reader-writer lock (non-poisoning API).
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "lock-tracing")]
    site: Site,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self::new_named(value, "")
    }

    /// Creates a new lock whose acquisitions are attributed to the lock
    /// site `name` when the `lock-tracing` feature is enabled (see the
    /// crate docs). Without the feature this is exactly [`RwLock::new`].
    pub const fn new_named(value: T, name: &'static str) -> Self {
        let _ = name;
        RwLock {
            #[cfg(feature = "lock-tracing")]
            site: Site::new(name),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "lock-tracing")]
        {
            let site = self.site.resolve();
            let inner = match self.inner.try_read() {
                Ok(g) => g,
                Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    lock_tracing::on_would_block(site);
                    match self.inner.read() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    }
                }
            };
            return RwLockReadGuard {
                inner: Some(inner),
                token: lock_tracing::on_acquired(site),
            };
        }
        #[cfg(not(feature = "lock-tracing"))]
        {
            let inner = match self.inner.read() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            RwLockReadGuard { inner: Some(inner) }
        }
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "lock-tracing")]
        {
            let site = self.site.resolve();
            let inner = match self.inner.try_write() {
                Ok(g) => g,
                Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    lock_tracing::on_would_block(site);
                    match self.inner.write() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    }
                }
            };
            return RwLockWriteGuard {
                inner: Some(inner),
                token: lock_tracing::on_acquired(site),
            };
        }
        #[cfg(not(feature = "lock-tracing"))]
        {
            let inner = match self.inner.write() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            RwLockWriteGuard { inner: Some(inner) }
        }
    }

    /// Attempts to acquire a read lock without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(feature = "lock-tracing")]
        {
            let site = self.site.resolve();
            return Some(RwLockReadGuard {
                inner: Some(inner),
                token: lock_tracing::on_acquired(site),
            });
        }
        #[cfg(not(feature = "lock-tracing"))]
        Some(RwLockReadGuard { inner: Some(inner) })
    }

    /// Attempts to acquire a write lock without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(feature = "lock-tracing")]
        {
            let site = self.site.resolve();
            return Some(RwLockWriteGuard {
                inner: Some(inner),
                token: lock_tracing::on_acquired(site),
            });
        }
        #[cfg(not(feature = "lock-tracing"))]
        Some(RwLockWriteGuard { inner: Some(inner) })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex::lock`]. The `inner` option is `None` only while
/// the guard is parked inside [`Condvar::wait`] (the lock is released
/// there); every deref outside that window sees `Some`.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
    #[cfg(feature = "lock-tracing")]
    site: usize,
    #[cfg(feature = "lock-tracing")]
    token: u64,
}

/// See [`MutexGuard`] (`MutexGuard::map` is not part of the shim surface,
/// so the mapped guard is the same type).
pub type MappedMutexGuard<'a, T> = MutexGuard<'a, T>;

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .expect("guard is parked in Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard is parked in Condvar::wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "lock-tracing")]
        if self.inner.is_some() {
            lock_tracing::on_released(self.token);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<sync::RwLockReadGuard<'a, T>>,
    #[cfg(feature = "lock-tracing")]
    token: u64,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .expect("read guard always holds its lock")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "lock-tracing")]
        if self.inner.is_some() {
            lock_tracing::on_released(self.token);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<sync::RwLockWriteGuard<'a, T>>,
    #[cfg(feature = "lock-tracing")]
    token: u64,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .expect("write guard always holds its lock")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("write guard always holds its lock")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "lock-tracing")]
        if self.inner.is_some() {
            lock_tracing::on_released(self.token);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout elapsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` if the wait ended by timeout rather than a notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable over [`Mutex`] (parking_lot-style API: `wait` takes
/// the guard by `&mut` and reacquires the lock before returning).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Atomically releases the guard's lock and blocks until notified;
    /// the lock is reacquired before returning. Under `lock-tracing` the
    /// release and the reacquisition both update the held-lock stack, and
    /// the reacquisition is order-checked like any other acquisition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard re-entered Condvar::wait");
        #[cfg(feature = "lock-tracing")]
        lock_tracing::on_released(guard.token);
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        #[cfg(feature = "lock-tracing")]
        {
            guard.token = lock_tracing::on_acquired(guard.site);
        }
        guard.inner = Some(inner);
    }

    /// [`Condvar::wait`] with a timeout.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard re-entered Condvar::wait");
        #[cfg(feature = "lock-tracing")]
        lock_tracing::on_released(guard.token);
        let (inner, res) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        #[cfg(feature = "lock-tracing")]
        {
            guard.token = lock_tracing::on_acquired(guard.site);
        }
        guard.inner = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }
}

#[cfg(test)]
mod tests {
    use super::{Condvar, Mutex, RwLock};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn try_variants() {
        let m = Mutex::new(5);
        {
            let _g = m.lock();
            assert!(m.try_lock().is_none());
        }
        assert_eq!(*m.try_lock().expect("uncontended"), 5);

        let l = RwLock::new(7);
        {
            let _r = l.read();
            assert!(l.try_write().is_none());
            assert_eq!(*l.try_read().expect("read-read is fine"), 7);
        }
        assert_eq!(*l.try_write().expect("uncontended"), 7);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            *ready = true;
            cv.notify_one();
            drop(ready);
        });
        let (lock, cv) = &*pair;
        let mut ready = lock.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        assert!(*ready);
        t.join().expect("notifier thread");
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut g = lock.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
        // The guard still holds the lock after the wait.
        drop(g);
        assert!(lock.try_lock().is_some());
    }
}
