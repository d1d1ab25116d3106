//! `serve_mix`: an in-process daemon with one worker, driven by one
//! closed-loop client that waits for every answer, so load never exceeds
//! two busy threads. The client cycles three request classes in a fixed
//! ratio ([`CYCLE`]):
//!
//! - `hit`: resubmits the spec answered at set-up — a whole-result cache
//!   hit with zero solves;
//! - `resweep`: same kind, samples and seed, new threshold factors — the
//!   result cache misses, the calibration and lint caches hit;
//! - `fresh`: a new seed and resistance sweep — every cache misses but
//!   the symbolic one.
//!
//! One op is one whole cycle; each class is also timed on its own. Set-up
//! starts the daemon and answers the hit spec once (cold caches).

use std::path::Path;
use std::time::{Duration, Instant};

use pulsar_obs::json::{self, Json};
use pulsar_serve::{Client, Daemon, JobSpec, ServeConfig, StudyKind};

use crate::stats::{median, percentile};
use crate::{derive_seed, for_seconds, Bench};

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Hit,
    Resweep,
    Fresh,
}

/// The request mix of one op: hits : resweeps : fresh = 2 : 1 : 1.
const CYCLE: [Class; 4] = [Class::Hit, Class::Resweep, Class::Hit, Class::Fresh];
/// Monte Carlo instances per served study.
const SAMPLES: usize = 2;
/// Reference reps before and after each op (each about 4 % of the op).
const REF_REPS: usize = 500;
/// The resistances of the set-up spec.
const RS: [f64; 2] = [1e3, 100e3];
/// The threshold factors of the set-up spec.
const FACTORS: [f64; 2] = [0.9, 1.1];

/// Threads a served study keeps busy: the daemon runs its Monte Carlo
/// instances on every core.
pub fn study_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(SAMPLES)
}

fn spec(seed: u64, rs: Vec<f64>, factors: Vec<f64>) -> JobSpec {
    JobSpec::Study {
        kind: StudyKind::Df,
        samples: SAMPLES,
        seed,
        rs,
        factors,
    }
}

/// Submits `spec` and waits for its answer. Returns the answer text, or
/// the error kind (`busy`, `budget`, ...) the daemon refused or failed
/// it with; also the submit round trip alone, milliseconds.
fn round_trip(client: &mut Client, spec: &JobSpec) -> Result<(String, f64), String> {
    let t = Instant::now();
    let (job, _, _) = client.submit(spec).map_err(|e| e.kind)?;
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = client.wait(job).map_err(|e| e.kind)?;
    match (outcome.state.as_str(), outcome.result) {
        ("done", Some(text)) => Ok((text, submit_ms)),
        (state, _) => Err(outcome
            .error
            .map_or(state.to_owned(), |e| format!("{state}: {e}"))),
    }
}

/// Daemon counters from a `stats` payload.
struct Counters(Json);

impl Counters {
    fn fetch(client: &mut Client) -> Result<Counters, String> {
        let payload = client
            .stats()
            .map_err(|e| format!("stats: {}", e.message))?;
        json::parse(&payload).map(Counters)
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    }

    fn solves(&self) -> f64 {
        self.get("sparse_solves") + self.get("dense_solves")
    }
}

fn start(socket: &Path) -> Result<(Daemon, Client), String> {
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::new(socket)
    };
    let daemon = Daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
    let client = Client::connect_within(socket, Duration::from_secs(5))
        .map_err(|e| format!("connect: {}", e.message))?;
    Ok((daemon, client))
}

fn stop(daemon: Daemon, client: &mut Client) -> Result<(), String> {
    client
        .shutdown()
        .map_err(|e| format!("shutdown: {}", e.message))?;
    daemon.join().map_err(|e| format!("daemon join: {e}"))?;
    Ok(())
}

/// A served study seed. The protocol carries seeds as JSON numbers, which
/// hold integers exactly only below 2^53, so served seeds stay there.
fn served_seed(run_seed: u64, k: u64) -> u64 {
    derive_seed(run_seed, k) >> 11
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let base_seed = served_seed(b.seed, 0);
    let hit_spec = spec(base_seed, RS.to_vec(), FACTORS.to_vec());
    // The one-shot study of the hit spec, in process: the reference every
    // served answer of that spec must equal byte for byte.
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let one_shot_args: Vec<String> = [
        "study".to_owned(),
        "df".to_owned(),
        "--samples".to_owned(),
        SAMPLES.to_string(),
        "--seed".to_owned(),
        base_seed.to_string(),
        "--r".to_owned(),
        list(&RS),
        "--factors".to_owned(),
        list(&FACTORS),
    ]
    .to_vec();
    let one_shot =
        pulsar_cli::dispatch(&one_shot_args).map_err(|e| format!("one-shot study: {e}"))?;

    let socket = b.scratch_file("serve.sock");
    // Set-up: start the daemon and answer the hit spec once. Each
    // repetition first shuts the previous one's daemon down, untimed, so
    // that no idle daemon polls beside it; the last one serves the run.
    let mut live: Option<(Daemon, Client)> = None;
    let answers = b.setup(|b| {
        if let Some((d, mut c)) = live.take() {
            b.untimed(|| stop(d, &mut c))?;
        }
        let (daemon, mut client) = start(&socket)?;
        // The daemon polls for new connections every 25 ms; an untimed
        // `stats` waits for it to accept this one, so the idle wait stays
        // out of `setup_s`.
        b.untimed(|| client.stats())
            .map_err(|e| format!("stats: {}", e.message))?;
        let answer = round_trip(&mut client, &hit_spec);
        live = Some((daemon, client));
        answer
            .map(|(text, _)| text)
            .map_err(|e| format!("set-up job failed: {e}"))
    });
    let (daemon, mut client) = live.ok_or("no set-up")?;
    let answers = answers.into_iter().collect::<Result<Vec<_>, _>>()?;
    let miss_answer = answers[0].clone();
    b.check(answers.iter().all(|a| *a == miss_answer), || {
        "set-up answers differ across daemons".to_owned()
    });
    b.check(miss_answer == one_shot, || {
        "served answer differs from the one-shot study".to_owned()
    });

    let mut class_ms: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut submit_us = Vec::new();
    let mut stats_us = Vec::new();
    let (mut op_ms, mut unattributed_ms) = (0.0, 0.0);
    let start_counters = Counters::fetch(&mut client)?;
    let mut next = 1u64;
    let run_result = for_seconds(b.seconds, |i| {
        let traced = b.start_op(i);
        let pre_us = b.host.sample(REF_REPS);
        let op_span = b.spans.open("op", None, i as u64);
        let mut raw = [0.0f64; CYCLE.len()];
        let mut answers = Vec::with_capacity(CYCLE.len());
        let mut hit_solves = 0.0;
        let mut op_stats_us = Vec::new();
        for (slot, &class) in CYCLE.iter().enumerate() {
            next += 1;
            let (name, spec) = match class {
                Class::Hit => ("serve.hit", hit_spec.clone()),
                Class::Resweep => {
                    let f = FACTORS[1] + next as f64 * 1e-6;
                    (
                        "serve.resweep",
                        spec(base_seed, RS.to_vec(), vec![FACTORS[0], f]),
                    )
                }
                Class::Fresh => {
                    let r = RS[0] * (1.0 + next as f64 * 1e-6);
                    let seed = served_seed(b.seed, next);
                    ("serve.fresh", spec(seed, vec![r, RS[1]], FACTORS.to_vec()))
                }
            };
            // Hits are bracketed by stats probes (outside the timed
            // request) proving they ran no solve.
            let before = if class == Class::Hit {
                let t = Instant::now();
                let c = b.spans.within("serve.stats", Some(op_span), i as u64, || {
                    Counters::fetch(&mut client)
                })?;
                op_stats_us.push(t.elapsed().as_secs_f64() * 1e6);
                Some(c)
            } else {
                None
            };
            let t = Instant::now();
            let answer = b.spans.within(name, Some(op_span), i as u64, || {
                round_trip(&mut client, &spec)
            });
            raw[slot] = t.elapsed().as_secs_f64() * 1e3;
            if let Some(c0) = before {
                let c1 = b.spans.within("serve.stats", Some(op_span), i as u64, || {
                    Counters::fetch(&mut client)
                })?;
                hit_solves += c1.solves() - c0.solves();
            }
            answers.push((class, answer));
        }
        b.spans.close(op_span);
        let idx = b.record(raw.iter().sum(), pre_us, REF_REPS, traced);
        let scale = b.ops[idx].scale;
        stats_us.extend(op_stats_us.iter().map(|us| us * scale));
        if traced {
            op_ms += b.spans.duration(op_span) as f64 * scale / 1e6;
            unattributed_ms += b.spans.self_ns(op_span) as f64 * scale / 1e6;
        }
        b.check(hit_solves == 0.0, || {
            format!("op {i}: hits ran {hit_solves} solves")
        });
        for (slot, (class, answer)) in answers.into_iter().enumerate() {
            b.account(1, u64::from(answer.is_err()));
            match answer {
                Ok((text, submit_ms)) => {
                    if class == Class::Hit {
                        b.check(text == miss_answer, || {
                            format!("op {i}: hit answer differs from the earlier miss")
                        });
                        submit_us.push(submit_ms * 1e3 * scale);
                    }
                }
                Err(kind) => eprintln!("pulsebench: op {i}: request failed: {kind}"),
            }
            class_ms[class as usize].push(raw[slot] * scale);
        }
        Ok(())
    });
    let end_counters = Counters::fetch(&mut client);
    stop(daemon, &mut client)?;
    run_result?;
    let end_counters = end_counters?;

    if b.trace {
        let d = |n: &str| end_counters.get(n) - start_counters.get(n);
        let ops = b.ops.len() as f64;
        let ratio = |a: f64, c: f64| if c > 0.0 { a / c } else { 0.0 };
        let executed = d("serve_result_cache_misses");
        let [hit, resweep, fresh] = &class_ms;
        b.set("serve.hit_p50_ms", median(hit));
        b.set(
            "serve.hit_p90_ms",
            percentile(hit, 0.9).map_or(0.0, |p| p.0),
        );
        b.set("serve.resweep_p50_ms", median(resweep));
        b.set("serve.fresh_p50_ms", median(fresh));
        b.set("serve.stats_rtt_us", median(&stats_us));
        b.set("serve.submit_rtt_us", median(&submit_us));
        b.set(
            "serve.result_hit_ratio",
            ratio(
                d("serve_result_cache_hits"),
                d("serve_result_cache_hits") + executed,
            ),
        );
        b.set(
            "serve.calib_hit_ratio",
            ratio(d("serve_calib_cache_hits"), executed),
        );
        b.set(
            "serve.lint_hit_ratio",
            ratio(d("serve_lint_cache_hits"), executed),
        );
        b.set(
            "serve.symbolic_hit_ratio",
            ratio(d("serve_symbolic_cache_hits"), executed),
        );
        b.set("serve.busy_rejections", d("serve_busy_rejections"));
        let traced_ops = b.ops.iter().filter(|o| o.traced).count().max(1) as f64;
        b.set("trace.op_ms", op_ms / traced_ops);
        b.set("trace.unattributed_ms", unattributed_ms / traced_ops);
        // The daemon's per-job recorders are folded into its counters;
        // its phase timings do not cross the socket.
        b.set(
            "analog.newton_iters_per_step",
            ratio(
                d("newton_iterations"),
                d("sparse_solves") + d("dense_solves"),
            ),
        );
        b.set("analog.newton_retries_per_op", d("newton_retries") / ops);
        b.set(
            "analog.factorizations_per_op",
            (d("dense_iterations") + d("numeric_factorizations")) / ops,
        );
        b.set(
            "analog.symbolic_analyses_per_op",
            d("symbolic_analyses") / ops,
        );
        b.set(
            "analog.lte_reject_ratio",
            ratio(
                d("lte_rejections"),
                d("steps_accepted") + d("lte_rejections"),
            ),
        );
        b.set(
            "mc.samples_per_op",
            (d("samples_ok") + d("samples_recovered") + d("samples_failed")) / ops,
        );
        b.set(
            "mc.retry_ratio",
            ratio(
                d("retry_attempts"),
                d("samples_ok") + d("samples_recovered") + d("samples_failed"),
            ),
        );
    }
    Ok(())
}
