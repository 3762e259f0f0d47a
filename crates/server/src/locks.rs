//! Poison-free lock accessors.
//!
//! `std` mutexes poison when a holder panics, and `.lock().unwrap()` then
//! turns *every later* access into a panic — one crashed worker becomes a
//! server-wide cascade. None of the state guarded in this crate can be left
//! half-updated in a way later readers cannot tolerate (counters are plain
//! integers, the completion list is push/take-safe, the catalog's `register` is effectively
//! transactional), so the right recovery is to take the data and keep
//! serving. These helpers centralise that decision.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, recovering the data if a previous holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquire a read guard, recovering from poisoning.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquire a write guard, recovering from poisoning.
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_access_survives_a_poisoning_panic() {
        let m = Arc::new(Mutex::new(7));
        let holder = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("injected panic while holding the lock");
        })
        .join();
        assert!(m.is_poisoned(), "the panic must have poisoned the mutex");
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn rwlock_access_survives_a_poisoning_panic() {
        let l = Arc::new(RwLock::new(vec![1, 2]));
        let holder = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = holder.write().unwrap();
            panic!("injected panic while holding the write lock");
        })
        .join();
        assert!(l.is_poisoned());
        write(&l).push(3);
        assert_eq!(read(&l).len(), 3);
    }
}
