//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind parking_lot's poison-free API (the
//! build environment has no registry access). Poisoning is deliberately
//! swallowed: a panicking holder does not make the data unreachable, which
//! matches parking_lot semantics. The guards are std's own, re-exported:
//! the workspace uses `RwLockWriteGuard::downgrade` to turn a write guard
//! into a read guard without releasing the lock.

use std::sync::{self, PoisonError};

pub use sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutex whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose accessors never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, ignoring poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard, ignoring poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn downgraded_write_guard_admits_concurrent_readers() {
        let l = RwLock::new(1);
        let mut w = l.write();
        *w += 1;
        let r = RwLockWriteGuard::downgrade(w);
        assert_eq!(*r, 2);
        // Another thread's reader gets in while the downgraded guard is
        // still held; a writer would block here until `r` is dropped.
        let seen = std::thread::scope(|s| s.spawn(|| *l.read()).join().unwrap());
        assert_eq!(seen, 2);
        assert_eq!(*r, 2);
        drop(r);
        *l.write() = 3;
        assert_eq!(*l.read(), 3);
    }
}
