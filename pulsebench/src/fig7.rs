//! `fig7_pulse`: the Fig. 7 pulse-test coverage `C_pulse(R)` with fixed
//! sampling on the paper's 7-gate external-ROP path, 13 log-spaced
//! resistances from 300 Ω to 400 kΩ at threshold factors {0.9, 1.0, 1.1}.
//!
//! Set-up is the study's `calibrate()`. One op is a block of
//! [`OP_SAMPLES`] Monte Carlo instances under one seed of a fixed cycle,
//! so every op after the first cycle must reproduce an earlier op's
//! curves bit for bit. The analog step loop does almost all the work;
//! serve, logic, timing and checkpointing are bypassed.

use pulsar_analog::{Polarity, Recorder};
use pulsar_bench::{log_sweep, rop_put};
use pulsar_core::{McConfig, PulseStudy};

use crate::layers::LayerTotals;
use crate::{curve_bits, derive_seed, for_seconds, Bench};

/// Instances in the calibration sample.
const CAL_SAMPLES: usize = 8;
/// Instances per op.
const OP_SAMPLES: usize = 1;
/// Distinct op seeds, reused in a cycle.
const CYCLE: usize = 8;
/// Reference reps before and after each op (each about 4 % of the op).
const REF_REPS: usize = 480;

pub fn mc(samples: usize, seed: u64, obs: Recorder) -> McConfig {
    McConfig {
        threads: Some(1),
        obs,
        ..McConfig::paper(samples, seed)
    }
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let rs = log_sweep(300.0, 400e3, 13);
    let factors = [0.9, 1.0, 1.1];
    let cal_study = PulseStudy::new(
        rop_put(),
        mc(CAL_SAMPLES, b.seed, Recorder::disabled()),
        Polarity::PositiveGoing,
    );
    let cals = b.setup(|_| cal_study.calibrate());
    let calib = *cals[0]
        .as_ref()
        .map_err(|e| format!("pulse calibration: {e}"))?;
    for c in &cals {
        b.check(c.as_ref().ok() == Some(&calib), || {
            "repeated calibrations differ".to_owned()
        });
    }

    let study = |seed: u64, obs: Recorder| {
        PulseStudy::new(
            rop_put(),
            mc(OP_SAMPLES, seed, obs),
            Polarity::PositiveGoing,
        )
    };
    let seeds: Vec<u64> = (0..CYCLE as u64).map(|k| derive_seed(b.seed, k)).collect();
    // Reference pass, before timing: each cycle seed's curves.
    let mut reference = Vec::with_capacity(CYCLE);
    for &s in &seeds {
        let (curves, _) = study(s, Recorder::disabled())
            .coverage_with_report(&calib, &rs, &factors)
            .map_err(|e| format!("pulse coverage: {e}"))?;
        reference.push(curve_bits(&curves));
    }

    let mut totals = LayerTotals::default();
    for_seconds(b.seconds, |i| {
        let k = i % CYCLE;
        let traced = b.start_op(i);
        let obs = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let s = study(seeds[k], obs.clone());
        let ((result, op_span), idx) = b.op(REF_REPS, traced, |b| {
            let op_span = b.spans.open("op", None, i as u64);
            let result = b.spans.within(
                "core.PulseStudy::coverage_with_report",
                Some(op_span),
                i as u64,
                || s.coverage_with_report(&calib, &rs, &factors),
            );
            b.spans.close(op_span);
            (result, op_span)
        });
        let (curves, failures) = result.map_err(|e| format!("pulse coverage: {e}"))?;
        b.check(curve_bits(&curves) == reference[k], || {
            format!(
                "op {i}: curves differ from seed {:#x}'s earlier run",
                seeds[k]
            )
        });
        b.account(failures.samples as u64, failures.failed as u64);
        if traced {
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
        b.set("core.calibrate_ms", crate::stats::median(&b.setups) * 1e3);
        for (k, v) in totals.metrics() {
            b.set(k, v);
        }
        probe_cells_and_lint(b, &rs);
    }
    Ok(())
}

/// Times the two cheap public calls every study makes per run or per
/// sample, outside the ops: the lint preflight and a path instantiation,
/// each in batches long enough for the clock.
pub fn probe_cells_and_lint(b: &mut Bench, rs: &[f64]) {
    const BATCH: usize = 200;
    let put = rop_put();
    let techs = vec![put.tech; put.spec.len()];
    let mut lint = Vec::new();
    let mut inst = Vec::new();
    for _ in 0..9 {
        let t = std::time::Instant::now();
        let clean = b
            .spans
            .within("lint.PathUnderTest::lint", None, u64::MAX, || {
                (0..BATCH).all(|_| std::hint::black_box(put.lint(Some(rs))).is_clean())
            });
        lint.push(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        b.check(clean, || "paper path fails its lint preflight".to_owned());
        let t = std::time::Instant::now();
        b.spans
            .within("cells.PathUnderTest::instantiate", None, u64::MAX, || {
                for _ in 0..BATCH {
                    std::hint::black_box(put.instantiate(&techs, rs[0]));
                }
            });
        inst.push(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    let scale = b.host.scale(b.host.sample(200));
    b.set("lint.preflight_us", crate::stats::median(&lint) * scale);
    b.set("cells.instantiate_us", crate::stats::median(&inst) * scale);
}
