//! Cross-job caches keyed by the FNV-1a config digest.
//!
//! Every cache is a map from digest → slot, where a slot's lifecycle is
//! governed by the [`FillSlot`] single-fill protocol: the first job to
//! need a cold key computes the value exactly once, concurrent jobs on
//! the same key block until the value is published (publish and wakeup
//! happen under the slot mutex, so a waiter can never miss the wakeup),
//! and every later job reads the published value without spending any
//! work. A failed fill abandons the claim, so the computation is retried
//! by the next job instead of wedging the key forever.

use crate::fill::{Claim, FillSlot, EMPTY, FILL_ORDERINGS, READY};
use pulsar_core::Calibration;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// One cache entry: the fill flag plus the (mutex-guarded) value and the
/// condvar waiters block on while the fill is in flight.
#[derive(Debug)]
struct Slot<T> {
    fill: FillSlot,
    value: Mutex<Option<T>>,
    ready_cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            fill: FillSlot::new(),
            value: Mutex::new(None),
            ready_cv: Condvar::new(),
        }
    }
}

/// Outcome of a [`DigestCache::get_or_fill`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// This call computed and published the value.
    Filled,
    /// The value was already published (or another job filled it while
    /// this call waited) — zero work spent here.
    Hit,
}

/// A digest-keyed, single-fill, blocking cache.
#[derive(Debug)]
pub struct DigestCache<T> {
    slots: Mutex<HashMap<u64, Arc<Slot<T>>>>,
}

impl<T> Default for DigestCache<T> {
    fn default() -> Self {
        DigestCache {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

impl<T: Clone> DigestCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        DigestCache {
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn slot(&self, key: u64) -> Arc<Slot<T>> {
        let mut map = lock_clean(&self.slots);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Slot::new())))
    }

    /// The published value for `key`, without blocking or filling.
    pub fn lookup(&self, key: u64) -> Option<T> {
        let slot = self.slot(key);
        if slot.fill.ready(&FILL_ORDERINGS) {
            lock_clean(&slot.value).clone()
        } else {
            None
        }
    }

    /// Returns the value for `key`, computing it with `compute` if and
    /// only if this call wins the fill claim. Exactly one concurrent
    /// caller per cold key runs `compute`; the others block until the
    /// value is published and then share it. When the winning `compute`
    /// fails, the claim is abandoned (the error propagates to the winner
    /// only) and a blocked caller takes over the fill with its own
    /// `compute` closure.
    ///
    /// # Errors
    ///
    /// Whatever the winning `compute` returns.
    pub fn get_or_fill<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, CacheOutcome), E> {
        let slot = self.slot(key);
        let mut compute = Some(compute);
        loop {
            match slot.fill.try_claim(&FILL_ORDERINGS) {
                Claim::Won => {
                    // `compute` is only consumed here, and a `Won` arm
                    // always returns, so the claim can't outlive it.
                    let Some(f) = compute.take() else {
                        slot.fill.abandon(&FILL_ORDERINGS);
                        slot.ready_cv.notify_all();
                        return Err(unreachable_fill_state());
                    };
                    match f() {
                        Ok(v) => {
                            let mut g = lock_clean(&slot.value);
                            *g = Some(v.clone());
                            // Publish + wakeup under the slot mutex:
                            // a waiter holding the lock either sees READY
                            // already or is on the condvar before the
                            // notify — no lost wakeup.
                            slot.fill.publish(&FILL_ORDERINGS);
                            slot.ready_cv.notify_all();
                            drop(g);
                            return Ok((v, CacheOutcome::Filled));
                        }
                        Err(e) => {
                            let g = lock_clean(&slot.value);
                            slot.fill.abandon(&FILL_ORDERINGS);
                            slot.ready_cv.notify_all();
                            drop(g);
                            return Err(e);
                        }
                    }
                }
                Claim::Ready => {
                    let g = lock_clean(&slot.value);
                    if let Some(v) = g.clone() {
                        return Ok((v, CacheOutcome::Hit));
                    }
                    // READY with no value cannot happen (publish follows
                    // the value write under the same mutex); treat it as
                    // in-progress rather than panic in a daemon.
                }
                Claim::InProgress => {}
            }
            // Block until the in-flight fill publishes or abandons.
            let mut g = lock_clean(&slot.value);
            loop {
                match slot.fill.peek(&FILL_ORDERINGS) {
                    READY => break,
                    EMPTY => break, // abandoned: retry the claim
                    _ => {
                        g = slot
                            .ready_cv
                            .wait(g)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            }
        }
    }

    /// Number of keys with a published value (for stats reporting).
    pub fn len(&self) -> usize {
        let map = lock_clean(&self.slots);
        map.values()
            .filter(|s| s.fill.ready(&FILL_ORDERINGS))
            .count()
    }

    /// True when no key has a published value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Locks a mutex, riding through poisoning: a cache value is only
/// observable after a *completed* fill, so a panic elsewhere can't leave
/// it half-written.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Stand-in error for the impossible claim-won-twice state; never
/// constructed with a correct [`FillSlot`] (see `get_or_fill`).
fn unreachable_fill_state<E>() -> E {
    // The fill protocol guarantees a single `Won` per claim cycle and the
    // winning arm always returns, so this closure-already-consumed path
    // is dead; `pulsar-check` model P4 explores the claim protocol.
    panic!("fill claim won twice for one get_or_fill call")
}

/// A completed run's cached payload: the exact report text the first
/// execution produced (bit-identical replay for every later hit) plus
/// the transient-solve count the first execution spent — the number every
/// subsequent hit saves.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Rendered report, byte-identical to the one-shot CLI's.
    pub text: String,
    /// Transient solves (sparse + dense) the filling run spent.
    pub solves: u64,
}

/// The daemon's cross-job cache bundle, shared by every worker.
#[derive(Debug, Default)]
pub struct ServeCaches {
    /// Whole-result cache: digest → completed report text. A hit answers
    /// a submission with zero solves.
    pub result: DigestCache<CachedResult>,
    /// Calibration cache: a study's calibrated operating point, keyed by
    /// kind, sample count and seed.
    pub calib: DigestCache<Calibration>,
}

impl ServeCaches {
    /// Empty caches.
    pub fn new() -> Self {
        ServeCaches::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn second_lookup_hits_without_computing() {
        let cache: DigestCache<u64> = DigestCache::new();
        let computes = AtomicU64::new(0);
        let f = || {
            computes.fetch_add(1, Ordering::Relaxed); // ordering: test-only counter
            Ok::<u64, ()>(7)
        };
        let (v, o) = cache.get_or_fill(42, f).expect("fill");
        assert_eq!((v, o), (7, CacheOutcome::Filled));
        let (v, o) = cache
            .get_or_fill(42, || {
                computes.fetch_add(1, Ordering::Relaxed); // ordering: test-only counter
                Ok::<u64, ()>(8)
            })
            .expect("hit");
        assert_eq!((v, o), (7, CacheOutcome::Hit));
        assert_eq!(computes.load(Ordering::Relaxed), 1); // ordering: test-only counter
        assert_eq!(cache.lookup(42), Some(7));
        assert_eq!(cache.lookup(43), None);
    }

    #[test]
    fn failed_fill_is_retried_by_the_next_caller() {
        let cache: DigestCache<u64> = DigestCache::new();
        let e = cache.get_or_fill(1, || Err::<u64, &str>("boom"));
        assert_eq!(e.expect_err("fill must fail"), "boom");
        let (v, o) = cache.get_or_fill(1, || Ok::<u64, &str>(5)).expect("retry");
        assert_eq!((v, o), (5, CacheOutcome::Filled));
    }

    #[test]
    fn concurrent_cold_key_fills_exactly_once() {
        let cache = Arc::new(DigestCache::<u64>::new());
        let computes = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                let (v, _) = cache
                    .get_or_fill(9, || {
                        computes.fetch_add(1, Ordering::Relaxed); // ordering: test-only counter
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        Ok::<u64, ()>(11)
                    })
                    .expect("fill or hit");
                v
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("no panic"), 11);
        }
        assert_eq!(computes.load(Ordering::Relaxed), 1); // ordering: test-only counter
    }
}
