//! `fig6_df_adaptive`: the Fig. 6 DF-test coverage `C_del(R)` through
//! `DfStudy::coverage_adaptive_durable` — Wilson stopping plus crossover
//! refinement — writing a fresh checkpoint per op.
//!
//! Set-up is the study's `calibrate()`. One op is one small adaptive
//! sweep under one seed of a fixed cycle, followed by a resume from its
//! finished checkpoint, which must reproduce the report bit for bit
//! without a single solve. It exercises the analog layer through delay
//! queries (not pulse widths), `mc::adaptive`, and checkpoint writes and
//! reads.

use pulsar_analog::Recorder;
use pulsar_bench::{log_sweep, rop_put};
use pulsar_core::{AdaptivePolicy, AdaptiveReport, Checkpoint, DfStudy};
use pulsar_obs::Counter;

use crate::fig7::mc;
use crate::layers::LayerTotals;
use crate::stats::median;
use crate::{curve_bits, derive_seed, for_seconds, Bench};

/// Instances in the calibration sample.
const CAL_SAMPLES: usize = 8;
/// Distinct op seeds, reused in a cycle.
const CYCLE: usize = 16;
/// Reference reps before and after each op (each about 4 % of the op).
const REF_REPS: usize = 1000;

/// The stopping policy: decisions every 2 samples, at most 4 per point in
/// the first pass. The tails of the sweep stop at 2 (a Wilson half-width
/// of 0.33 for 0 or 2 detections of 2); the saved budget refines the
/// column nearest 50 % coverage.
fn policy() -> AdaptivePolicy {
    AdaptivePolicy {
        min_samples: 2,
        chunk: 2,
        ..AdaptivePolicy::new(0.34, 4)
    }
}

/// Everything of a report that must survive a resume, bit for bit.
fn report_bits(r: &AdaptiveReport) -> Vec<u64> {
    let mut bits = curve_bits(&r.curves);
    bits.extend([r.evals, r.fixed_budget_evals, r.refine_evals]);
    for p in &r.points {
        bits.extend([
            p.factor.to_bits(),
            p.resistance.to_bits(),
            p.coverage.to_bits(),
            u64::from(p.refined),
        ]);
    }
    bits
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let rs = log_sweep(300.0, 400e3, 3);
    let factors = [0.9, 1.0, 1.1];
    let policy = policy();
    let cal_study = DfStudy::new(rop_put(), mc(CAL_SAMPLES, b.seed, Recorder::disabled()));
    let cals = b.setup(|_| cal_study.calibrate());
    let calib = *cals[0]
        .as_ref()
        .map_err(|e| format!("df calibration: {e}"))?;
    for c in &cals {
        b.check(c.as_ref().ok() == Some(&calib), || {
            "repeated calibrations differ".to_owned()
        });
    }

    let seeds: Vec<u64> = (0..CYCLE as u64).map(|k| derive_seed(b.seed, k)).collect();
    let ckpt = b.scratch_file("df-adaptive.ckpt");
    // One sweep plus its resume: the op body.
    let sweep = |b: &mut Bench, i: usize, seed: u64, obs: Recorder, op_span: Option<usize>| {
        let mut study = DfStudy::new(rop_put(), mc(policy.max_samples, seed, obs));
        let spec = study.adaptive_checkpoint_spec(&rs, &factors, &policy, None);
        let fresh = b.spans.within(
            "core.DfStudy::coverage_adaptive_durable",
            op_span,
            i as u64,
            || {
                Checkpoint::create(&ckpt, spec).and_then(|ck| {
                    study.coverage_adaptive_durable(&calib, &rs, &factors, &policy, None, &ck)
                })
            },
        );
        // The resume runs under a recorder of its own, which counts the
        // Newton solves it runs (there should be none, so it costs nothing).
        let resume_obs = Recorder::enabled();
        study.mc.obs = resume_obs.clone();
        let t = std::time::Instant::now();
        let resumed = b.spans.within("core.resume", op_span, i as u64, || {
            Checkpoint::resume(&ckpt, spec).and_then(|ck| {
                study.coverage_adaptive_durable(&calib, &rs, &factors, &policy, None, &ck)
            })
        });
        let resume_ms = t.elapsed().as_secs_f64() * 1e3;
        let snap = resume_obs.snapshot();
        let resume_solves =
            snap.counter(Counter::SparseSolves) + snap.counter(Counter::DenseSolves);
        (fresh, resumed, resume_ms, resume_solves)
    };

    // Reference pass, before timing: each cycle seed's report.
    let mut reference = Vec::with_capacity(CYCLE);
    for &s in &seeds {
        let (fresh, _, _, _) = sweep(b, usize::MAX, s, Recorder::disabled(), None);
        reference.push(report_bits(
            &fresh.map_err(|e| format!("adaptive sweep: {e}"))?,
        ));
    }

    let mut totals = LayerTotals::default();
    let mut resume_ms = Vec::new();
    let mut resume_solves_total = 0;
    let mut ckpt_bytes = 0.0;
    for_seconds(b.seconds, |i| {
        let k = i % CYCLE;
        let traced = b.start_op(i);
        let obs = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let ((fresh, resumed, resume_raw_ms, resume_solves, op_span), idx) =
            b.op(REF_REPS, traced, |b| {
                let op_span = b.spans.open("op", None, i as u64);
                let (f, r, ms, n) = sweep(b, i, seeds[k], obs.clone(), Some(op_span));
                b.spans.close(op_span);
                (f, r, ms, n, op_span)
            });
        let fresh = fresh.map_err(|e| format!("adaptive sweep: {e}"))?;
        let resumed = resumed.map_err(|e| format!("adaptive resume: {e}"))?;
        let bits = report_bits(&fresh);
        b.check(bits == reference[k], || {
            format!(
                "op {i}: report differs from seed {:#x}'s earlier run",
                seeds[k]
            )
        });
        b.check(report_bits(&resumed) == bits, || {
            format!("op {i}: resumed report differs from the fresh one")
        });
        b.check(resume_solves == 0, || {
            format!("op {i}: resume ran {resume_solves} solves")
        });
        b.account(fresh.failures.samples as u64, fresh.failures.failed as u64);
        resume_ms.push(resume_raw_ms * b.ops[idx].scale);
        resume_solves_total += resume_solves;
        if traced {
            ckpt_bytes += std::fs::metadata(&ckpt).map_or(0, |m| m.len()) as f64;
            let fits = totals.add(
                &obs.snapshot(),
                b.ops[idx].scale,
                b.spans.duration(op_span),
                b.spans.self_ns(op_span),
                obs.event_count(),
            );
            if let Err(e) = fits {
                b.check(false, || format!("op {i}: {e}"));
            }
        }
        Ok(())
    })?;

    if b.trace {
        b.set("core.calibrate_ms", median(&b.setups) * 1e3);
        b.set("core.resume_p50_ms", median(&resume_ms));
        b.set("core.resume_transients", resume_solves_total as f64);
        b.set(
            "core.checkpoint_bytes_per_op",
            ckpt_bytes / totals.ops.max(1.0),
        );
        for (k, v) in totals.metrics() {
            b.set(k, v);
        }
        crate::fig7::probe_cells_and_lint(b, &rs);
    }
    Ok(())
}
