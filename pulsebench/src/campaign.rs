//! `campaign_c432`: `Campaign::run` over the C432-class netlist with a
//! timing library calibrated on the analog inverter.
//!
//! Set-up is `calibrate_inverter` (on a process corner drawn from the
//! seed) plus building the netlist. One op is one campaign over every
//! [`STRIDE`]-th collapsed fault site; the logic and timing layers do
//! all the work and no analog solve runs, so an analog-only change should
//! leave the op untouched. Every op must find the same pattern count and
//! `R_min` summary.

use pulsar_analog::{Polarity, Recorder};
use pulsar_cells::Tech;
use pulsar_core::{Campaign, VariationModel};
use pulsar_logic::c432_like;
use pulsar_timing::{calibrate_inverter, NetSim, TimingLibrary};
use rand::{rngs::StdRng, SeedableRng};

use crate::layers::LayerTotals;
use crate::stats::median;
use crate::{for_seconds, Bench};

/// Probe every `STRIDE`-th site.
const STRIDE: usize = 3;
/// Reference reps before and after each op (each about 4 % of the op).
const REF_REPS: usize = 150;

fn campaign(obs: Recorder) -> Campaign {
    Campaign {
        stride: STRIDE,
        threads: Some(1),
        obs,
        ..Campaign::default()
    }
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(b.seed);
    let tech = VariationModel::paper()
        .sample_techs(&Tech::generic_180nm(), 1, &mut rng)
        .pop()
        .ok_or("no process corner drawn")?;
    let mut netlist_ms = Vec::new();
    let mut calibrate_ms = Vec::new();
    let setups = b.setup(|b| {
        let t = std::time::Instant::now();
        let nl = b.spans.within("logic.c432_like", None, 0, c432_like);
        netlist_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = std::time::Instant::now();
        let inv = b.spans.within("timing.calibrate_inverter", None, 0, || {
            calibrate_inverter(&tech)
        });
        calibrate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        inv.map(|inv| (nl, TimingLibrary::calibrated(inv)))
    });
    let (nl, lib) = setups
        .into_iter()
        .next()
        .ok_or("no set-up")?
        .map_err(|e| format!("calibrate_inverter: {e}"))?;

    // Reference run, before timing.
    let reference = campaign(Recorder::disabled())
        .run(&nl, &lib)
        .map_err(|e| format!("campaign: {e}"))?;
    let fingerprint =
        |r: &pulsar_core::CampaignReport| format!("{} {:?}", r.pattern_count(), r.r_min_summary());
    let expect = fingerprint(&reference);
    b.check(reference.pattern_count() > 0, || {
        "campaign planned no site".to_owned()
    });

    let mut totals = LayerTotals::default();
    let mut probed = 0.0;
    for_seconds(b.seconds, |i| {
        let traced = b.start_op(i);
        let obs = if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let c = campaign(obs.clone());
        let ((report, op_span), idx) = b.op(REF_REPS, traced, |b| {
            let op_span = b.spans.open("op", None, i as u64);
            let report = b
                .spans
                .within("core.Campaign::run", Some(op_span), i as u64, || {
                    c.run(&nl, &lib)
                });
            b.spans.close(op_span);
            (report, op_span)
        });
        let report = report.map_err(|e| format!("campaign: {e}"))?;
        b.check(fingerprint(&report) == expect, || {
            format!("op {i}: pattern count or R_min summary changed")
        });
        b.account(report.sites.len() as u64, report.failures().count() as u64);
        if traced {
            probed += report.sites.len() as f64;
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
        let setup_scale = b.setup_host.scale(b.setup_host.sample(400));
        b.set("logic.netlist_ms", median(&netlist_ms) * setup_scale);
        b.set(
            "timing.calibrate_inverter_ms",
            median(&calibrate_ms) * setup_scale,
        );
        for (k, v) in totals.metrics() {
            match k {
                // Campaign planning is logic and timing work: the call's
                // self time outside site enumeration, per probed site.
                "mc.driver_self_ms" => {
                    b.set("logic.plan_site_ms", v * totals.ops / probed.max(1.0));
                }
                _ => b.set(k, v),
            }
        }
        probe_netsim(b, &nl, &lib);
    }
    Ok(())
}

/// Times one event-driven pulse propagation through the whole netlist
/// (all inputs low, a 200 ps pulse on the first input).
fn probe_netsim(b: &mut Bench, nl: &pulsar_logic::Netlist, lib: &TimingLibrary) {
    let sim = NetSim::new(nl, lib);
    let pis = vec![false; nl.inputs().len()];
    let pi = nl.inputs()[0];
    let mut us = Vec::new();
    for _ in 0..200 {
        let t = std::time::Instant::now();
        let out = b
            .spans
            .within("timing.NetSim::run_pulse", None, u64::MAX, || {
                sim.run_pulse(&pis, pi, Polarity::PositiveGoing, 200e-12)
            });
        us.push(t.elapsed().as_secs_f64() * 1e6);
        b.check(out.is_ok(), || "netsim pulse failed".to_owned());
    }
    let scale = b.host.scale(b.host.sample(200));
    b.set("timing.netsim_pulse_us", median(&us) * scale);
}
