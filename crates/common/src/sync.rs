//! The workspace's locks: [`Mutex`] and [`RwLock`] over `std::sync` whose
//! `lock()` / `read()` / `write()` hand back the guard directly and
//! **recover from poisoning**.
//!
//! A statement that panics is isolated by the governor (`catch_unwind`
//! around the statement) and the engine keeps serving, so a lock the
//! panicking thread held must stay usable: the next holder gets the data
//! as the panicking one left it. The panic costs the statement, not the
//! session — `governed_stress` holds the engine to that under real
//! panics. The guards are `std`'s, so a `Condvar` pairs with [`Mutex`].

use std::sync::{self, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock that does not stay poisoned.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new, unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Block until the lock is held; a previous holder's panic is ignored.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader–writer lock that does not stay poisoned.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new, unlocked lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Block until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The unit-level twin of `governed_stress`: a holder that panics
    /// leaves the lock usable and its last write visible.
    #[test]
    fn a_lock_whose_holder_panicked_is_still_lockable() {
        let m = Arc::new(Mutex::new(0u32));
        let rw = Arc::new(RwLock::new(vec![1u8]));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let holder = std::thread::spawn(move || {
            let mut g = m2.lock();
            let mut w = rw2.write();
            *g = 7;
            w.push(2);
            panic!("statement panicked while holding both locks");
        });
        assert!(holder.join().is_err(), "the holder must have panicked");

        assert_eq!(*m.lock(), 7);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
        assert_eq!(*rw.read(), [1, 2]);
        rw.write().push(3);
        assert_eq!(*rw.read(), [1, 2, 3]);
    }

    #[test]
    fn readers_share_and_a_condvar_pairs_with_the_mutex() {
        let rw = RwLock::new(5);
        let (a, b) = (rw.read(), rw.read());
        assert_eq!(*a + *b, 10);
        drop((a, b));

        let pair = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let setter = std::thread::spawn(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_one();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            ready = pair.1.wait(ready).unwrap_or_else(PoisonError::into_inner);
        }
        setter.join().expect("setter thread");
        assert!(*ready);
    }
}
