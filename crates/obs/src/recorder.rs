//! The [`Recorder`] handle: a cheap, cloneable, possibly-disabled window
//! onto a metrics registry and event journal.
//!
//! # Overhead contract
//!
//! A disabled recorder (the default) carries `None` internally, so every
//! instrumentation call — counter add, histogram record, span open — is a
//! single branch on an `Option` and returns immediately. In particular
//! **no clock is read** on the disabled path; pulsebench's
//! `obs.trace_overhead` measures what enabling a recorder costs. An enabled
//! recorder increments relaxed atomics on a shard private to the handle
//! that [`Recorder::fork`] created, so concurrent samples never contend on
//! a cache line.

use crate::journal::Event;
use crate::metrics::{Counter, HistId, MetricsSnapshot, Phase, Shard};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared state behind every enabled recorder of one run.
struct Registry {
    /// Shards still owned by a live handle; summed on snapshot.
    live: Mutex<Vec<Arc<Shard>>>,
    /// Accumulator absorbing retired shards, so a long campaign does not
    /// grow `live` without bound.
    folded: Shard,
    /// Structured events, in the order they were recorded.
    journal: Mutex<Vec<Event>>,
}

struct RecorderInner {
    registry: Arc<Registry>,
    shard: Arc<Shard>,
}

/// A handle for recording metrics, spans, and journal events.
///
/// Cloning is cheap (an `Arc` bump) and clones share the same shard; use
/// [`Recorder::fork`] for a new shard in the same registry (one per worker
/// thread or per Monte Carlo sample). The default handle is disabled.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<RecorderInner>>);

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("Recorder(enabled)"),
            None => f.write_str("Recorder(disabled)"),
        }
    }
}

impl Recorder {
    /// A recorder that drops everything. Every instrumentation call is a
    /// single `Option` branch.
    pub fn disabled() -> Recorder {
        Recorder(None)
    }

    /// A fresh enabled recorder with its own registry and root shard.
    pub fn enabled() -> Recorder {
        let root = Arc::new(Shard::new());
        let registry = Arc::new(Registry {
            live: Mutex::new(vec![root.clone()]),
            folded: Shard::new(),
            journal: Mutex::new(Vec::new()),
        });
        Recorder(Some(Arc::new(RecorderInner {
            registry,
            shard: root,
        })))
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A new handle over the same registry with a private shard —
    /// contention-free for a worker thread or one Monte Carlo sample.
    /// Forking a disabled recorder yields a disabled recorder.
    pub fn fork(&self) -> Recorder {
        match &self.0 {
            None => Recorder(None),
            Some(inner) => {
                let shard = Arc::new(Shard::new());
                if let Ok(mut live) = inner.registry.live.lock() {
                    live.push(shard.clone());
                }
                Recorder(Some(Arc::new(RecorderInner {
                    registry: inner.registry.clone(),
                    shard,
                })))
            }
        }
    }

    /// Folds this handle's shard into the registry accumulator and drops
    /// it from the live set. Totals are preserved exactly; increments made
    /// through this handle *after* retirement are lost. Idempotent.
    pub fn retire(&self) {
        if let Some(inner) = &self.0 {
            if let Ok(mut live) = inner.registry.live.lock() {
                if let Some(pos) = live.iter().position(|s| Arc::ptr_eq(s, &inner.shard)) {
                    let shard = live.remove(pos);
                    shard.fold_into(&inner.registry.folded);
                }
            }
        }
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(inner) = &self.0 {
            inner.shard.add(c, n);
        }
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn record(&self, h: HistId, value: u64) {
        if let Some(inner) = &self.0 {
            inner.shard.record(h, value);
        }
    }

    /// Records one completed Newton solve: bumps the iteration counter and
    /// the iterations-per-solve histogram in one call.
    #[inline]
    pub fn newton_solve_done(&self, iters: u64) {
        if let Some(inner) = &self.0 {
            inner.shard.add(Counter::NewtonIterations, iters);
            inner.shard.record(HistId::NewtonItersPerSolve, iters);
        }
    }

    /// Opens a span timing `phase`; the span records its duration when
    /// dropped. Disabled recorders return an inert guard without reading
    /// the clock.
    #[inline]
    pub fn span(&self, phase: Phase) -> Span {
        match &self.0 {
            None => Span(None),
            Some(inner) => Span(Some((inner.shard.clone(), phase, Instant::now()))),
        }
    }

    /// Appends a structured event to the run journal.
    pub fn event(&self, event: Event) {
        if let Some(inner) = &self.0 {
            if let Ok(mut journal) = inner.registry.journal.lock() {
                journal.push(event);
            }
        }
    }

    /// All journal events recorded so far, in order.
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            None => Vec::new(),
            Some(inner) => inner
                .registry
                .journal
                .lock()
                .map(|j| j.clone())
                .unwrap_or_default(),
        }
    }

    /// Number of journal events recorded so far.
    pub fn event_count(&self) -> usize {
        match &self.0 {
            None => 0,
            Some(inner) => inner.registry.journal.lock().map(|j| j.len()).unwrap_or(0),
        }
    }

    /// A merged snapshot over the whole registry: the folded accumulator
    /// plus every live shard. Summation order cannot matter, so the result
    /// is independent of thread count and fork order.
    ///
    /// The folded accumulator is read *under* the `live` lock: a retire
    /// removes a shard from `live` and folds it as one critical section,
    /// so reading `folded` outside the lock could observe the removal but
    /// miss the fold and undercount. The `pulsar-check` recorder model
    /// (`snapshot_outside_lock` mutation) proves the interleaving exists.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if let Some(inner) = &self.0 {
            if let Ok(live) = inner.registry.live.lock() {
                inner.registry.folded.load_into(&mut snap);
                for shard in live.iter() {
                    shard.load_into(&mut snap);
                }
            }
        }
        snap
    }

    /// A snapshot of **this handle's shard only** — the per-sample view
    /// used to attribute counters to one journal event.
    pub fn local_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if let Some(inner) = &self.0 {
            inner.shard.load_into(&mut snap);
        }
        snap
    }
}

/// RAII guard returned by [`Recorder::span`]; records the elapsed time
/// into the phase's duration histogram and totals on drop.
pub struct Span(Option<(Arc<Shard>, Phase, Instant)>);

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((shard, phase, start)) = self.0.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shard.span_done(phase, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        rec.add(Counter::SparseSolves, 5);
        rec.newton_solve_done(3);
        drop(rec.span(Phase::NewtonSolve));
        rec.event(Event::new("sample", 0));
        assert!(!rec.is_enabled());
        assert!(!rec.fork().is_enabled());
        assert_eq!(rec.events().len(), 0);
        assert_eq!(rec.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn fork_and_retire_preserve_totals() {
        let rec = Recorder::enabled();
        rec.add(Counter::DenseSolves, 2);
        let forks: Vec<Recorder> = (0..4).map(|_| rec.fork()).collect();
        for (i, f) in forks.iter().enumerate() {
            f.add(Counter::SparseSolves, i as u64 + 1);
        }
        let before = rec.snapshot();
        for f in &forks {
            f.retire();
            f.retire(); // idempotent
        }
        let after = rec.snapshot();
        assert_eq!(before, after);
        assert_eq!(after.counter(Counter::SparseSolves), 1 + 2 + 3 + 4);
        assert_eq!(after.counter(Counter::DenseSolves), 2);
    }

    #[test]
    fn span_records_duration_and_count() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span(Phase::TransientStepLoop);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.span_count(Phase::TransientStepLoop), 1);
        assert_eq!(
            snap.histogram_count(HistId::PhaseNs(Phase::TransientStepLoop)),
            1
        );
    }

    #[test]
    fn clones_share_the_same_shard() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.add(Counter::StepsAccepted, 7);
        assert_eq!(rec.local_snapshot().counter(Counter::StepsAccepted), 7);
    }
}
