//! The per-cosmology physics tables and the cache that shares them.
//!
//! PLINGER's workers each computed the background and recombination
//! tables from the broadcast parameters on their own node.  Worker
//! *threads* of one process can share them instead: every [`Farm`] and
//! [`FarmPool`] owns one [`TableCache`] and hands it to the workers it
//! spawns (respawned ranks included), so a cosmology's tables are built
//! once per process and every rank integrates against the same
//! `Arc<PhysicsTables>`.  A `--tcp-worker` child process owns a cache of
//! its own — one build per process there too.
//!
//! The cache de-duplicates builds in flight: [`TableCache::get_or_build`]
//! (job start) blocks on a build another thread has begun rather than
//! repeating it, and [`TableCache::prefetch`] (a tag-13 hint) is
//! claim-or-skip — the first thread to see an unclaimed cosmology builds
//! it, every other thread returns at once.  Tables depend on the
//! cosmology alone and are bit-identical wherever they are built, so
//! sharing never changes results.
//!
//! [`Farm`]: crate::Farm
//! [`FarmPool`]: crate::FarmPool

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use background::{Background, CosmoParams};
use recomb::ThermoHistory;

use crate::protocol::cosmo_hash;

/// Cosmologies a [`TableCache`] keeps: the shard being integrated, the
/// next one (built on a hint while this one runs), and one shard that
/// failed and was requeued behind its successor's hint.  Evicted tables
/// stay alive for as long as a worker still holds their `Arc`.
pub const TABLE_CACHE_CAPACITY: usize = 3;

/// Everything a mode integration shares with every other mode of its
/// cosmology.
pub struct PhysicsTables {
    /// Background expansion tables.
    pub bg: Background,
    /// Thermal (recombination) history tables.
    pub thermo: ThermoHistory,
}

impl PhysicsTables {
    /// Build both tables — the one place on the worker side that does.
    fn build(cosmo: &CosmoParams) -> Self {
        let bg = Background::new(cosmo.clone());
        let thermo = ThermoHistory::new(&bg);
        Self { bg, thermo }
    }
}

enum Slot<T> {
    /// Claimed: some thread is building this entry right now.
    Building,
    Ready(Arc<T>),
}

/// A small keyed cache with in-flight de-duplication, least recently
/// used entry evicted first.  Generic over the cached value only so its
/// concurrency tests need not build real tables; everything outside this
/// module uses the default `TableCache<PhysicsTables>`.
pub struct TableCache<T = PhysicsTables> {
    /// `(cosmo_hash, slot)`, least recently used first.
    slots: Mutex<VecDeque<(u64, Slot<T>)>>,
    /// Signalled whenever a `Building` slot is published or abandoned.
    settled: Condvar,
}

impl<T> Default for TableCache<T> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(VecDeque::new()),
            settled: Condvar::new(),
        }
    }
}

/// A claimed `Building` slot.  Dropped unpublished — the build
/// panicked — it removes the slot and wakes the waiters, so one of them
/// builds instead of every worker of the pool waiting forever.
struct Claim<'a, T> {
    cache: &'a TableCache<T>,
    key: u64,
    published: bool,
}

impl<T> Claim<'_, T> {
    fn publish(mut self, value: T) -> Arc<T> {
        let value = Arc::new(value);
        let mut slots = self.cache.lock();
        if let Some(entry) = slots.iter_mut().find(|(k, _)| *k == self.key) {
            entry.1 = Slot::Ready(Arc::clone(&value));
        }
        // claimed slots are never evicted: a waiter may be parked on one
        while slots.len() > TABLE_CACHE_CAPACITY {
            let Some(oldest) = slots.iter().position(|(_, s)| matches!(s, Slot::Ready(_))) else {
                break;
            };
            slots.remove(oldest);
        }
        self.published = true;
        drop(slots);
        self.cache.settled.notify_all();
        value
    }
}

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        if !self.published {
            self.cache.lock().retain(|(k, _)| *k != self.key);
            self.cache.settled.notify_all();
        }
    }
}

impl<T> TableCache<T> {
    /// Builds run outside the lock and every critical section is a
    /// queue push, move or removal, so a poisoned mutex still guards a
    /// consistent queue.
    fn lock(&self) -> MutexGuard<'_, VecDeque<(u64, Slot<T>)>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mark `key`, which the caller found absent, as being built.
    fn claim(&self, slots: &mut VecDeque<(u64, Slot<T>)>, key: u64) -> Claim<'_, T> {
        slots.push_back((key, Slot::Building));
        Claim {
            cache: self,
            key,
            published: false,
        }
    }

    /// The value under `key`, built with `build` by this thread when no
    /// thread has it or is building it, waited for otherwise.  The
    /// flag says whether this call did the build.
    fn get_or_build_with(&self, key: u64, build: impl FnOnce() -> T) -> (Arc<T>, bool) {
        let mut slots = self.lock();
        let claim = loop {
            match slots.iter().position(|(k, _)| *k == key) {
                None => break self.claim(&mut slots, key),
                Some(at) => {
                    if let Slot::Ready(value) = &slots[at].1 {
                        let value = Arc::clone(value);
                        // most recently used goes last
                        if let Some(entry) = slots.remove(at) {
                            slots.push_back(entry);
                        }
                        return (value, false);
                    }
                    slots = self.settled.wait(slots).unwrap_or_else(|e| e.into_inner());
                }
            }
        };
        drop(slots);
        (claim.publish(build()), true)
    }

    /// Build the value under `key` unless some thread already has or is
    /// building it; never waits.  Says whether this call did the build.
    fn prefetch_with(&self, key: u64, build: impl FnOnce() -> T) -> bool {
        let mut slots = self.lock();
        if slots.iter().any(|(k, _)| *k == key) {
            return false;
        }
        let claim = self.claim(&mut slots, key);
        drop(slots);
        claim.publish(build());
        true
    }
}

impl TableCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tables of `cosmo` at job start: shared if some rank of this
    /// process already built them, waited for if one is building them
    /// now, built here otherwise.  The flag says whether this call did
    /// the build ([`WorkerStats::ctx_rebuilds`](crate::WorkerStats)).
    pub fn get_or_build(&self, cosmo: &CosmoParams) -> (Arc<PhysicsTables>, bool) {
        self.get_or_build_with(cosmo_hash(cosmo), || PhysicsTables::build(cosmo))
    }

    /// Answer a tag-13 hint: build the tables of `cosmo` if no rank of
    /// this process has claimed them yet, return at once otherwise.
    /// Says whether this call did the build
    /// ([`WorkerStats::prefetch_builds`](crate::WorkerStats)).
    pub fn prefetch(&self, cosmo: &CosmoParams) -> bool {
        self.prefetch_with(cosmo_hash(cosmo), || PhysicsTables::build(cosmo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn threads_asking_for_one_key_build_once_and_share_the_arc() {
        const N: usize = 8;
        let cache = TableCache::<usize>::default();
        let builds = AtomicUsize::new(0);
        let gate = Barrier::new(N);
        let got: Vec<(Arc<usize>, bool)> = thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        cache.get_or_build_with(7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            42
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(got.iter().filter(|(_, built)| *built).count(), 1);
        for (value, _) in &got {
            assert!(Arc::ptr_eq(value, &got[0].0), "ranks hold different tables");
        }
    }

    #[test]
    fn hint_for_a_claimed_key_returns_without_building_or_waiting() {
        let cache = &TableCache::<usize>::default();
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let (finish_tx, finish_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            let builder = s.spawn(move || {
                cache.prefetch_with(7, || {
                    claimed_tx.send(()).unwrap();
                    // hold the claim until the other hint has come back
                    finish_rx.recv().unwrap();
                    1
                })
            });
            claimed_rx.recv().unwrap();
            // the key is claimed and still building: a second hint must
            // come straight back (it would deadlock here if it waited)
            assert!(!cache.prefetch_with(7, || unreachable!("second hint built")));
            finish_tx.send(()).unwrap();
            assert!(builder.join().unwrap(), "claimant did not build");
        });
        // and once published, hints and job starts both find it
        assert!(!cache.prefetch_with(7, || unreachable!("hint rebuilt a ready key")));
        let (value, built) = cache.get_or_build_with(7, || unreachable!("job start rebuilt"));
        assert_eq!((*value, built), (1, false));
    }

    #[test]
    fn eviction_keeps_a_held_arc_alive() {
        let cache = TableCache::<String>::default();
        let (held, _) = cache.get_or_build_with(0, || "zero".to_string());
        for key in 1..=TABLE_CACHE_CAPACITY as u64 {
            cache.get_or_build_with(key, || key.to_string());
        }
        // key 0 was least recently used: gone from the cache …
        let (again, rebuilt) = cache.get_or_build_with(0, || "rebuilt".to_string());
        assert!(rebuilt, "capacity + 1 keys all stayed cached");
        assert_eq!(*again, "rebuilt");
        // … while the worker still integrating against it is unharmed
        assert_eq!(*held, "zero");
        assert_eq!(cache.lock().len(), TABLE_CACHE_CAPACITY);
    }

    #[test]
    fn a_hit_refreshes_the_entry_against_eviction() {
        let cache = TableCache::<u64>::default();
        for key in 0..TABLE_CACHE_CAPACITY as u64 {
            cache.get_or_build_with(key, || key);
        }
        // touch key 0, then push one more: key 1 is now the oldest
        assert!(!cache.get_or_build_with(0, || unreachable!()).1);
        cache.get_or_build_with(99, || 99);
        assert!(!cache.get_or_build_with(0, || unreachable!()).1);
        assert!(cache.get_or_build_with(1, || 1).1, "key 1 outlived key 0");
    }

    #[test]
    fn a_panicking_build_leaves_the_key_retryable() {
        let cache = &TableCache::<usize>::default();
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let (finish_tx, finish_rx) = mpsc::channel::<()>();
        let (waiting_tx, waiting_rx) = mpsc::channel();
        thread::scope(|s| {
            let doomed = s.spawn(move || {
                cache.get_or_build_with(7, || -> usize {
                    claimed_tx.send(()).unwrap();
                    finish_rx.recv().unwrap();
                    panic!("build failed");
                })
            });
            claimed_rx.recv().unwrap();
            let waiter = s.spawn(move || {
                waiting_tx.send(()).unwrap();
                cache.get_or_build_with(7, || 5)
            });
            // the waiter is either parked on the claim or about to find
            // it; both orders must end with it building on its own
            waiting_rx.recv().unwrap();
            finish_tx.send(()).unwrap();
            assert!(doomed.join().is_err(), "build did not panic");
            let (value, built) = waiter.join().unwrap();
            assert_eq!((*value, built), (5, true));
        });
        assert!(!cache.get_or_build_with(7, || unreachable!()).1);
    }

    #[test]
    fn real_tables_are_shared_by_cosmology() {
        let cache = TableCache::new();
        let scdm = CosmoParams::standard_cdm();
        assert!(cache.prefetch(&scdm), "first hint must build");
        let (a, built) = cache.get_or_build(&scdm);
        assert!(!built, "hinted tables rebuilt at job start");
        assert!(a.bg.tau0() > 10_000.0);
        let (b, _) = cache.get_or_build(&scdm);
        assert!(Arc::ptr_eq(&a, &b));
        let (c, built) = cache.get_or_build(&CosmoParams::lcdm());
        assert!(built && !Arc::ptr_eq(&a, &c));
    }
}
