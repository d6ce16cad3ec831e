//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::Mutex` behind the poison-free `parking_lot` API
//! (`lock()` returns the guard directly). A poisoned std lock is
//! recovered rather than propagated, matching parking_lot's behaviour
//! of never poisoning.

use std::sync;

pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::Mutex;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }
}
