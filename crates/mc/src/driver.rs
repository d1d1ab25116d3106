//! Deterministic, parallel Monte Carlo fan-out.

use crate::outcome::SampleOutcome;
use pulsar_obs::CancelToken;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::AssertUnwindSafe;

/// Lookup of a completed outcome from a prior run (see [`RunHooks::prior`]).
pub type PriorFn<'a, T, E> = &'a (dyn Fn(usize) -> Option<SampleOutcome<T, E>> + Sync);

/// Checkpoint-write callback for freshly resolved samples (see
/// [`RunHooks::on_done`]).
pub type OnDoneFn<'a, T, E> = &'a (dyn Fn(usize, &SampleOutcome<T, E>) + Sync);

/// Optional control hooks for [`MonteCarlo::try_run_range_resumed`]:
/// resume from a prior run, checkpoint freshly finished samples, cancel
/// cooperatively, and contain worker panics. The default
/// (`RunHooks::default()`) enables none of them.
pub struct RunHooks<'a, T, E> {
    /// Completed outcomes from a prior (interrupted) run, keyed by sample
    /// index. A sample for which this returns `Some` is **skipped** — the
    /// stored outcome is used verbatim, so attempt accounting survives a
    /// resume and the final report stays bit-identical to an
    /// uninterrupted run.
    pub prior: Option<PriorFn<'a, T, E>>,
    /// Called from the worker thread the moment a *freshly computed*
    /// sample resolves (never for `prior` hits). This is the checkpoint
    /// write point: it fires per sample, not per step, so a mutex-guarded
    /// writer behind it stays off the solver hot path.
    pub on_done: Option<OnDoneFn<'a, T, E>>,
    /// Run-level cancellation, checked before every sample attempt. Once
    /// tripped, samples that have not started resolve to `None` in the
    /// result vector (distinct from `Failed`: they were never attempted
    /// and carry no error).
    pub cancel: Option<&'a CancelToken>,
    /// When set, a panicking attempt is caught (`catch_unwind`) and
    /// converted into an ordinary error via this function — the captured
    /// panic message in, the caller's error type out — so one poisoned
    /// sample counts against the failure budget instead of killing the
    /// run. When `None` (the default), a worker panic is re-raised on the
    /// calling thread after every other worker has been joined.
    pub contain_panics: Option<&'a (dyn Fn(String) -> E + Sync)>,
}

impl<T, E> Default for RunHooks<'_, T, E> {
    fn default() -> Self {
        RunHooks {
            prior: None,
            on_done: None,
            cancel: None,
            contain_panics: None,
        }
    }
}

/// Renders a panic payload as a message string (the common `String` and
/// `&'static str` payloads verbatim, anything else a fixed placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

/// Runs `n` independent Monte Carlo samples of a closure, in parallel,
/// with per-sample RNG streams derived deterministically from a master
/// seed.
///
/// Sample `i` always receives `StdRng::seed_from_u64(mix(seed, i))`, so
/// results are bit-identical across thread counts and runs — essential for
/// the paper's methodology, where the *same* circuit instances must be
/// simulated fault-free (to calibrate the test) and faulty (to measure
/// coverage).
///
/// # Example
///
/// ```
/// use pulsar_mc::MonteCarlo;
///
/// let mc = MonteCarlo::new(16, 99);
/// let a = mc.run(|i, _rng| i * 2);
/// let b = mc.run(|i, _rng| i * 2);
/// assert_eq!(a, b);
/// assert_eq!(a[3], 6);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    n: usize,
    seed: u64,
    threads: usize,
}

impl MonteCarlo {
    /// A driver for `n` samples under master seed `seed`, using all
    /// available CPU parallelism.
    pub fn new(n: usize, seed: u64) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        MonteCarlo { n, seed, threads }
    }

    /// Overrides the worker-thread count (1 = sequential).
    ///
    /// A request for `0` threads is clamped to 1 rather than panicking:
    /// thread counts frequently arrive from environment variables or
    /// config files, and a degenerate value should degrade to sequential
    /// execution, not abort a campaign.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of samples.
    pub fn samples(&self) -> usize {
        self.n
    }

    /// The RNG sample `i` will receive — exposed so callers can regenerate
    /// a single instance (e.g. to re-simulate one outlier with tracing).
    pub fn rng_for(&self, i: usize) -> StdRng {
        StdRng::seed_from_u64(self.stream_seed(i))
    }

    /// The derived 64-bit seed behind sample `i`'s RNG stream. Journals
    /// record this per sample so one instance can be replayed standalone
    /// (`StdRng::seed_from_u64`) without re-deriving the mixing function.
    pub fn stream_seed(&self, i: usize) -> u64 {
        mix(self.seed, i as u64)
    }

    /// Runs `f(i, rng)` for `i in 0..n` and returns results in index order.
    ///
    /// `f` runs concurrently on multiple threads; it must be `Sync` and
    /// the result type `Send`. One erroring sample aborts nothing here —
    /// `f` is infallible; for fallible per-sample work with isolation and
    /// retry, use [`MonteCarlo::try_run_range_resumed`].
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        self.fan_out(0..self.n, |i| f(i, &mut self.rng_for(i)))
    }

    /// Fault-isolated, durable variant of [`MonteCarlo::run`] over
    /// samples `lo..hi`: each resolves to a [`SampleOutcome`], in index
    /// order, or to `None` when the [`RunHooks`] cancel it before it
    /// starts. `f(i, attempt, rng)` gets `attempt` from 1 and **the same
    /// RNG stream on every attempt** ([`MonteCarlo::rng_for`]), so a retry
    /// re-simulates the identical instance and escalation must come from
    /// `attempt`; a failed attempt retries while `retryable(&e)` holds and
    /// fewer than `max_attempts` (at least 1) were spent. Sample `i` sees
    /// the same stream, ladder and hooks whatever the range, thread count
    /// or resume state, so a resumed run reproduces the uninterrupted
    /// outcomes and the adaptive engine can consume the stream in rounds.
    pub fn try_run_range_resumed<T, E, F, R>(
        &self,
        lo: usize,
        hi: usize,
        max_attempts: u32,
        retryable: R,
        hooks: RunHooks<'_, T, E>,
        f: F,
    ) -> Vec<Option<SampleOutcome<T, E>>>
    where
        T: Send,
        E: Send,
        F: Fn(usize, u32, &mut StdRng) -> Result<T, E> + Sync,
        R: Fn(&E) -> bool + Sync,
    {
        let max_attempts = max_attempts.max(1);
        self.fan_out(lo..hi.max(lo), |i| {
            self.resolve_one(i, max_attempts, &retryable, &hooks, &f)
        })
    }

    /// The per-sample resolution behind [`MonteCarlo::try_run_range_resumed`]:
    /// prior-run lookup, the attempt/retry ladder on a replayed RNG
    /// stream, cancellation, panic containment, and the checkpoint
    /// callback.
    fn resolve_one<T, E, F, R>(
        &self,
        i: usize,
        max_attempts: u32,
        retryable: &R,
        hooks: &RunHooks<'_, T, E>,
        f: &F,
    ) -> Option<SampleOutcome<T, E>>
    where
        F: Fn(usize, u32, &mut StdRng) -> Result<T, E> + Sync,
        R: Fn(&E) -> bool + Sync,
    {
        if let Some(done) = hooks.prior.and_then(|prior| prior(i)) {
            return Some(done);
        }
        let mut attempt = 1u32;
        let outcome = loop {
            if hooks.cancel.is_some_and(CancelToken::is_cancelled) {
                return None;
            }
            // Every attempt replays the identical stream; escalation
            // comes from the attempt number (see `try_run_range_resumed`).
            let mut rng = self.rng_for(i);
            let result = match hooks.contain_panics {
                None => f(i, attempt, &mut rng),
                Some(contain) => {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, attempt, &mut rng))) {
                        Ok(result) => result,
                        Err(payload) => Err(contain(panic_message(payload))),
                    }
                }
            };
            match result {
                Ok(value) if attempt == 1 => break SampleOutcome::Ok(value),
                Ok(value) => {
                    break SampleOutcome::Recovered {
                        value,
                        attempts: attempt,
                    }
                }
                Err(error) => {
                    if attempt >= max_attempts || !retryable(&error) {
                        break SampleOutcome::Failed {
                            error,
                            attempts: attempt,
                        };
                    }
                    attempt += 1;
                }
            }
        };
        if let Some(on_done) = hooks.on_done {
            on_done(i, &outcome);
        }
        Some(outcome)
    }

    /// Shared fan-out: runs `g(i)` for `i in range` across the configured
    /// worker threads and concatenates the per-chunk result vectors in
    /// index order. Infallible by construction — each worker returns its
    /// own `Vec`, so there are no placeholder slots to check afterwards.
    ///
    /// A panicking worker is re-raised on the calling thread, but only
    /// after **every** other worker has been joined — sibling shards run
    /// to completion (and flush their checkpoint records) instead of
    /// being torn down mid-sample by the unwind. The first panic payload
    /// observed in chunk order is the one re-raised.
    fn fan_out<T, G>(&self, range: std::ops::Range<usize>, g: G) -> Vec<T>
    where
        T: Send,
        G: Fn(usize) -> T + Sync,
    {
        let (base, n) = (range.start, range.len());
        let threads = self.threads.min(n);
        if threads <= 1 {
            return range.map(g).collect();
        }
        let chunk = n.div_ceil(threads);
        let mut out: Vec<T> = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let g = &g;
                    let (lo, hi) = ((t * chunk).min(n), ((t + 1) * chunk).min(n));
                    scope.spawn(move || (base + lo..base + hi).map(g).collect::<Vec<T>>())
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => {
                        if panic.is_none() {
                            panic = Some(payload);
                        }
                    }
                }
            }
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        out
    }
}

/// SplitMix64-style mixing of (seed, index) into one well-distributed
/// 64-bit stream seed, so neighbouring sample indices get unrelated RNGs.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use proptest::prelude::*;
    use rand::RngExt;

    /// Every outcome of a full-range run without hooks.
    fn try_all<T, E, F, R>(
        mc: MonteCarlo,
        attempts: u32,
        retryable: R,
        f: F,
    ) -> Vec<SampleOutcome<T, E>>
    where
        T: Send,
        E: Send,
        F: Fn(usize, u32, &mut StdRng) -> Result<T, E> + Sync,
        R: Fn(&E) -> bool + Sync,
    {
        mc.try_run_range_resumed(0, mc.samples(), attempts, retryable, RunHooks::default(), f)
            .into_iter()
            .map(Option::unwrap)
            .collect()
    }

    #[test]
    fn results_are_in_index_order() {
        let mc = MonteCarlo::new(100, 5);
        let out = mc.run(|i, _| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let draw = |_i: usize, rng: &mut StdRng| rng.random::<f64>();
        let seq = MonteCarlo::new(64, 123).with_threads(1).run(draw);
        let par = MonteCarlo::new(64, 123).with_threads(8).run(draw);
        assert_eq!(seq, par);
    }

    #[test]
    fn different_samples_get_different_streams() {
        let mc = MonteCarlo::new(32, 7);
        let out = mc.run(|_, rng| rng.random::<u64>());
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.len(), "RNG streams must not collide");
    }

    #[test]
    fn different_seeds_differ() {
        let a = MonteCarlo::new(8, 1).run(|_, rng| rng.random::<u64>());
        let b = MonteCarlo::new(8, 2).run(|_, rng| rng.random::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn rng_for_matches_run() {
        let mc = MonteCarlo::new(10, 77);
        let out = mc.run(|_, rng| rng.random::<u64>());
        let mut rng5 = mc.rng_for(5);
        assert_eq!(out[5], rng5.random::<u64>());
    }

    #[test]
    fn empty_run_is_empty() {
        let mc = MonteCarlo::new(0, 0);
        let out: Vec<u32> = mc.run(|_, _| unreachable!("no samples"));
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        let mc = MonteCarlo::new(8, 3).with_threads(0);
        let out = mc.run(|i, _| i);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    /// A deterministic fallible workload: samples whose index is in
    /// `fail_until` fail with a retryable error until the given attempt
    /// number; indexes in `hard_fail` always fail non-retryably.
    fn flaky(
        i: usize,
        attempt: u32,
        rng: &mut StdRng,
        recover_at: &[(usize, u32)],
        hard_fail: &[usize],
    ) -> Result<f64, (bool, usize)> {
        let draw = rng.random::<f64>();
        if hard_fail.contains(&i) {
            return Err((false, i));
        }
        if let Some(&(_, at)) = recover_at.iter().find(|&&(s, _)| s == i) {
            if attempt < at {
                return Err((true, i));
            }
        }
        Ok(draw)
    }

    #[test]
    fn try_run_isolates_and_recovers() {
        let recover_at = [(3usize, 2u32), (9, 3)];
        let hard_fail = [5usize];
        let mc = MonteCarlo::new(16, 11).with_threads(4);
        let out = try_all(
            mc,
            4,
            |e: &(bool, usize)| e.0,
            |i, attempt, rng| flaky(i, attempt, rng, &recover_at, &hard_fail),
        );
        assert_eq!(out.len(), 16);
        assert_eq!(out[3].attempts(), 2);
        assert!(out[3].is_recovered());
        assert_eq!(out[9].attempts(), 3);
        assert!(out[9].is_recovered());
        assert!(out[5].is_failed());
        assert_eq!(
            out[5].attempts(),
            1,
            "non-retryable errors stop immediately"
        );
        let clean = out
            .iter()
            .enumerate()
            .filter(|(i, _)| ![3, 5, 9].contains(i))
            .all(|(_, o)| matches!(o, SampleOutcome::Ok(_)));
        assert!(clean, "untouched samples resolve on the first attempt");
    }

    #[test]
    fn try_run_exhausts_bounded_attempts() {
        let mc = MonteCarlo::new(4, 1);
        let out = try_all(
            mc,
            3,
            |_: &&str| true,
            |i, _, _| {
                if i == 2 {
                    Err("never converges")
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(
            out[2],
            SampleOutcome::Failed {
                error: "never converges",
                attempts: 3
            }
        );
    }

    #[test]
    fn retries_replay_the_same_rng_stream() {
        // Attempt 2 must see the identical stream as attempt 1 so the
        // retried sample is the same circuit instance.
        let mc = MonteCarlo::new(6, 21);
        let baseline = mc.run(|_, rng| rng.random::<f64>());
        let out = try_all(
            mc,
            2,
            |_: &()| true,
            |i, attempt, rng| {
                let draw = rng.random::<f64>();
                if i == 4 && attempt == 1 {
                    Err(())
                } else {
                    Ok(draw)
                }
            },
        );
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.value(), Some(&baseline[i]));
        }
        assert!(out[4].is_recovered());
    }

    #[test]
    fn resumed_run_skips_prior_and_matches_uninterrupted() {
        let mc = MonteCarlo::new(24, 17).with_threads(4);
        let work = |_i: usize, _attempt: u32, rng: &mut StdRng| -> Result<u64, ()> {
            Ok(rng.random::<u64>())
        };
        let full = try_all(mc, 1, |_: &()| false, work);

        // "Resume" with the even samples already done: odd samples are
        // recomputed, even ones restored, and the merged vector matches.
        let computed = std::sync::Mutex::new(Vec::new());
        let prior = |i: usize| -> Option<SampleOutcome<u64, ()>> {
            if i.is_multiple_of(2) {
                Some(full[i].clone())
            } else {
                None
            }
        };
        let on_done = |i: usize, _o: &SampleOutcome<u64, ()>| {
            computed.lock().unwrap().push(i);
        };
        let hooks = RunHooks {
            prior: Some(&prior),
            on_done: Some(&on_done),
            ..RunHooks::default()
        };
        let resumed = mc.try_run_range_resumed(0, mc.samples(), 1, |_: &()| false, hooks, work);
        let resumed: Vec<_> = resumed.into_iter().map(Option::unwrap).collect();
        assert_eq!(resumed, full);
        let mut fresh = computed.into_inner().unwrap();
        fresh.sort_unstable();
        assert_eq!(fresh, (0..24).filter(|i| i % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_run_leaves_unstarted_samples_none() {
        use pulsar_obs::CancelReason;
        let token = CancelToken::new();
        token.cancel(CancelReason::User);
        let mc = MonteCarlo::new(8, 3).with_threads(2);
        let hooks = RunHooks {
            cancel: Some(&token),
            ..RunHooks::default()
        };
        let out = mc.try_run_range_resumed(
            0,
            mc.samples(),
            1,
            |_: &()| false,
            hooks,
            |i, _, _| -> Result<usize, ()> { Ok(i) },
        );
        assert_eq!(out.len(), 8);
        assert!(
            out.iter().all(Option::is_none),
            "pre-tripped token skips all"
        );
    }

    #[test]
    fn cancelled_samples_still_restore_from_prior() {
        use pulsar_obs::CancelReason;
        let token = CancelToken::new();
        token.cancel(CancelReason::Deadline);
        let mc = MonteCarlo::new(4, 9).with_threads(1);
        let prior =
            |i: usize| -> Option<SampleOutcome<usize, ()>> { Some(SampleOutcome::Ok(i * 10)) };
        let hooks = RunHooks {
            prior: Some(&prior),
            cancel: Some(&token),
            ..RunHooks::default()
        };
        let out = mc.try_run_range_resumed(
            0,
            mc.samples(),
            1,
            |_: &()| false,
            hooks,
            |_, _, _| -> Result<usize, ()> { unreachable!("all prior") },
        );
        let values: Vec<_> = out
            .into_iter()
            .map(|o| o.unwrap().into_value().unwrap())
            .collect();
        assert_eq!(values, vec![0, 10, 20, 30]);
    }

    #[test]
    fn contained_panic_becomes_failed_outcome() {
        let mc = MonteCarlo::new(6, 5).with_threads(3);
        let contain = |msg: String| msg;
        let hooks = RunHooks {
            contain_panics: Some(&contain),
            ..RunHooks::default()
        };
        let out = mc.try_run_range_resumed(
            0,
            mc.samples(),
            1,
            |_: &String| false,
            hooks,
            |i, _, rng| -> Result<u64, String> {
                if i == 2 {
                    panic!("poisoned sample {i}");
                }
                Ok(rng.random::<u64>())
            },
        );
        let baseline = mc.run(|_, rng| rng.random::<u64>());
        for (i, o) in out.iter().enumerate() {
            let o = o.as_ref().unwrap();
            if i == 2 {
                assert_eq!(
                    o.error().map(String::as_str),
                    Some("poisoned sample 2"),
                    "panic message is captured"
                );
            } else {
                assert_eq!(o.value(), Some(&baseline[i]), "siblings are unharmed");
            }
        }
    }

    #[test]
    fn contained_panic_is_retryable_like_any_error() {
        let mc = MonteCarlo::new(1, 1);
        let contain = |msg: String| msg;
        let hooks = RunHooks {
            contain_panics: Some(&contain),
            ..RunHooks::default()
        };
        let out = mc.try_run_range_resumed(
            0,
            mc.samples(),
            3,
            |_: &String| true,
            hooks,
            |_, attempt, _| -> Result<u32, String> {
                if attempt < 3 {
                    panic!("flaky");
                }
                Ok(attempt)
            },
        );
        assert_eq!(
            out[0],
            Some(SampleOutcome::Recovered {
                value: 3,
                attempts: 3
            })
        );
    }

    #[test]
    fn uncontained_panic_joins_siblings_before_unwinding() {
        let done = std::sync::atomic::AtomicUsize::new(0);
        let mc = MonteCarlo::new(8, 1).with_threads(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            mc.run(|i, _| {
                if i == 0 {
                    panic!("first chunk dies");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            })
        }));
        assert!(caught.is_err(), "the panic still propagates by default");
        assert_eq!(
            done.load(std::sync::atomic::Ordering::SeqCst),
            6,
            "sibling shards ran to completion before the re-raise"
        );
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        assert_eq!(panic_message(Box::new("static".to_owned())), "static");
        assert_eq!(panic_message(Box::new("str payload")), "str payload");
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
    }

    #[test]
    fn range_run_matches_the_full_run_slice() {
        // A range's outcomes must equal the corresponding slice of the
        // full run — the adaptive decision loop depends on this to take
        // stopping decisions on ordered prefixes while extending the
        // stream round by round.
        let mc = MonteCarlo::new(20, 31);
        let work = |i: usize, attempt: u32, rng: &mut StdRng| -> Result<u64, (bool, usize)> {
            let draw = rng.random::<u64>();
            if i % 7 == 3 {
                Err((false, i))
            } else if i.is_multiple_of(5) && attempt < 2 {
                Err((true, i))
            } else {
                Ok(draw)
            }
        };
        let retryable = |e: &(bool, usize)| e.0;
        let full = try_all(mc.with_threads(1), 3, retryable, work);
        for (lo, hi) in [(0usize, 20usize), (3, 17), (16, 20), (5, 5), (7, 3)] {
            for threads in [1usize, 2, 4] {
                let out = mc.with_threads(threads).try_run_range_resumed(
                    lo,
                    hi,
                    3,
                    retryable,
                    RunHooks::default(),
                    work,
                );
                let out: Vec<_> = out.into_iter().map(Option::unwrap).collect();
                assert_eq!(
                    out,
                    full[lo..hi.max(lo)],
                    "lo={lo} hi={hi} threads={threads}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]
        #[test]
        fn try_run_bit_identical_across_thread_counts(seed in 0u64..10_000, n in 1usize..40) {
            // Injected failures: a retryable flake recovering on attempt 2
            // for i % 5 == 0, a hard failure for i % 7 == 3.
            let work = |i: usize, attempt: u32, rng: &mut StdRng| -> Result<u64, (bool, usize)> {
                let draw = rng.random::<u64>();
                if i % 7 == 3 {
                    Err((false, i))
                } else if i.is_multiple_of(5) && attempt < 2 {
                    Err((true, i))
                } else {
                    Ok(draw)
                }
            };
            let retryable = |e: &(bool, usize)| e.0;
            let base = try_all(MonteCarlo::new(n, seed).with_threads(1), 3, retryable, work);
            for threads in [2usize, 7] {
                let par = try_all(MonteCarlo::new(n, seed).with_threads(threads), 3, retryable, work);
                prop_assert_eq!(&base, &par);
            }
        }
    }
}
