//! The shared campaign planner (DESIGN.md §5.14) against the per-site
//! reference: one [`SitePlanner`] across many sites must plan every site
//! exactly as a fresh [`plan_for_site`] does, at any thread count and in
//! any run order; and the in-place [`ModelPath`] must measure exactly what
//! a freshly built one does at every resistance.

#![allow(clippy::unwrap_used)]

use pulsar_analog::{Edge, Polarity};
use pulsar_cells::Tech;
use pulsar_core::{
    plan_for_site, Campaign, CampaignReport, CoreError, ModelFault, ModelPath, PathInstance,
    PathTestPlan, SitePlanner, TestgenConfig,
};
use pulsar_logic::{c17, c432_like, collapsed_fault_sites, Netlist, SignalId};
use pulsar_timing::{
    calibrate_inverter, GateTimingModel, PathElement, PathTimingModel, TimingLibrary,
};

/// A plan list down to the f64 bits (`{:?}` of a path and vector is
/// exact; the floats go in as bit patterns).
fn fingerprint(result: &Result<Vec<PathTestPlan>, CoreError>) -> String {
    match result {
        Err(e) => format!("error: {e:?}"),
        Ok(plans) => plans
            .iter()
            .map(|p| {
                format!(
                    "{:?} {:?} {:?} {:x} {:x} {:?}\n",
                    p.path,
                    p.vector,
                    p.polarity,
                    p.w_in.to_bits(),
                    p.w_th.to_bits(),
                    p.r_min.map(f64::to_bits)
                )
            })
            .collect(),
    }
}

/// Plans every collapsed site of `nl` with one shared planner and checks
/// each full plan list against a fresh per-site plan.
fn shared_planner_matches_fresh_plans(nl: &Netlist, lib: &TimingLibrary, cfg: &TestgenConfig) {
    let planner = SitePlanner::new(nl, lib, cfg).unwrap();
    let sites: Vec<SignalId> = collapsed_fault_sites(nl)
        .into_iter()
        .map(|g| g.representative)
        .collect();
    let mut planned = 0;
    for &site in &sites {
        let shared = planner.plan(site);
        let fresh = plan_for_site(nl, site, lib, cfg);
        planned += usize::from(shared.is_ok());
        assert_eq!(
            fingerprint(&shared),
            fingerprint(&fresh),
            "site {}",
            nl.signal_name(site)
        );
    }
    assert!(planned > 0, "no site planned: the comparison is vacuous");
}

#[test]
fn planner_matches_plan_for_site_on_every_c432_site() {
    shared_planner_matches_fresh_plans(
        &c432_like(),
        &TimingLibrary::generic(),
        &TestgenConfig::default(),
    );
}

#[test]
fn planner_matches_plan_for_site_on_c17() {
    let nl = c17();
    let lib = TimingLibrary::generic();
    shared_planner_matches_fresh_plans(&nl, &lib, &TestgenConfig::default());
    // Every net, not only the collapsed representatives, in reverse
    // order: the memo is filled from the other end.
    let planner = SitePlanner::new(&nl, &lib, &TestgenConfig::default()).unwrap();
    let mut sites: Vec<SignalId> = nl.inputs().to_vec();
    sites.extend(nl.gates().iter().map(|g| g.output));
    for &site in sites.iter().rev() {
        assert_eq!(
            fingerprint(&planner.plan(site)),
            fingerprint(&plan_for_site(&nl, site, &lib, &TestgenConfig::default()))
        );
    }
}

fn report_fingerprint(r: &CampaignReport) -> String {
    format!(
        "{:?} {} {} {} {:?}",
        r.sites, r.planned, r.unsensitizable, r.failed, r.completeness
    )
}

#[test]
fn campaign_reports_are_identical_at_one_two_and_four_threads() {
    let nl = c432_like();
    let lib = TimingLibrary::generic();
    let run = |threads| {
        Campaign {
            stride: 2,
            threads: Some(threads),
            ..Campaign::default()
        }
        .run(&nl, &lib)
        .unwrap()
    };
    let one = run(1);
    assert!(one.planned > 0);
    let expect = report_fingerprint(&one);
    for threads in [2, 4] {
        assert_eq!(
            report_fingerprint(&run(threads)),
            expect,
            "{threads} threads"
        );
    }
}

#[test]
fn the_memo_lives_for_one_run_only() {
    let nl = c432_like();
    let calibrated = TimingLibrary::calibrated(calibrate_inverter(&Tech::generic_180nm()).unwrap());
    let campaign = Campaign {
        stride: 3,
        threads: Some(1),
        ..Campaign::default()
    };
    let generic = campaign.run(&nl, &TimingLibrary::generic()).unwrap();
    let after = campaign.run(&nl, &calibrated).unwrap();
    let fresh = Campaign {
        stride: 3,
        threads: Some(1),
        ..Campaign::default()
    }
    .run(&nl, &calibrated)
    .unwrap();
    assert_eq!(report_fingerprint(&after), report_fingerprint(&fresh));
    // The two libraries must plan differently, or the check shows nothing.
    assert_ne!(report_fingerprint(&generic), report_fingerprint(&fresh));
}

/// A 5-gate chain whose gates already carry edge slow-downs, so an
/// injected one has a non-zero healthy value to add to.
fn chain() -> PathTimingModel {
    let gate = |k: f64| PathElement::Gate {
        model: GateTimingModel::new(95e-12 * k, 75e-12 * k, 70e-12 * k, 260e-12 * k),
        inverting: true,
        slow_rise: 3e-12 * k,
        slow_fall: 7e-12 * k,
    };
    PathTimingModel::new(vec![gate(1.0), gate(1.1), gate(0.9), gate(1.3), gate(1.0)])
}

/// Widths and delays of `p` at `w_in`, as bits.
fn probe(p: &mut ModelPath) -> Vec<u64> {
    let mut out = Vec::new();
    for w_in in [150e-12, 300e-12, 600e-12, 1.2e-9] {
        for pol in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
            out.push(p.pulse_width_out(w_in, pol).unwrap().to_bits());
        }
    }
    for edge in [Edge::Rising, Edge::Falling] {
        out.push(p.delay(edge).unwrap().to_bits());
    }
    out
}

/// The reference a fault model is held to: a fresh copy of the healthy
/// chain with `ohms × c` injected.
fn injected(fault: ModelFault, ohms: f64) -> PathTimingModel {
    let mut m = chain();
    match fault {
        ModelFault::RcAfter { stage, c_branch } => m.inject_rc_after(stage, ohms * c_branch),
        ModelFault::RcAtInput { c_branch } => m.inject_rc_at_front(ohms * c_branch),
        ModelFault::EdgeSlow {
            stage,
            edge,
            c_load,
        } => m.inject_edge_slow(stage, edge, ohms * c_load),
    }
    m
}

#[test]
fn in_place_model_path_matches_a_fresh_one_at_every_resistance() {
    let faults = [
        ModelFault::RcAfter {
            stage: 1,
            c_branch: 13e-15,
        },
        ModelFault::RcAfter {
            stage: 4,
            c_branch: 5e-15,
        },
        ModelFault::RcAtInput { c_branch: 13e-15 },
        ModelFault::EdgeSlow {
            stage: 2,
            edge: Edge::Rising,
            c_load: 30e-15,
        },
        ModelFault::EdgeSlow {
            stage: 0,
            edge: Edge::Falling,
            c_load: 30e-15,
        },
    ];
    // A log grid from 50 Ω to 2 MΩ, visited out of order (a stride
    // coprime to its length), as a bisection would.
    let grid: Vec<f64> = (0..41)
        .map(|k| (50f64.ln() + (2e6f64.ln() - 50f64.ln()) * f64::from(k) / 40.0).exp())
        .collect();
    let order: Vec<usize> = (0..grid.len()).map(|i| (i * 17) % grid.len()).collect();
    for fault in faults {
        let mut reused = ModelPath::new(chain(), Some(fault), grid[0]);
        for &i in &order {
            let r = grid[i];
            reused.set_resistance(r).unwrap();
            let mut fresh = ModelPath::new(chain(), Some(fault), r);
            let mut reference = ModelPath::new(injected(fault, r), None, 0.0);
            assert_eq!(reused.model(), reference.model(), "{fault:?} at {r} ohm");
            let bits = probe(&mut reference);
            assert_eq!(probe(&mut reused), bits, "{fault:?} at {r} ohm");
            assert_eq!(probe(&mut fresh), bits, "{fault:?} at {r} ohm");
        }
    }
}

/// The campaign journals its `R_min` searches' model evaluations: the
/// same count at any thread count and on every run (the searches are
/// site work, never memoized), and the planner's own total.
#[test]
fn model_evaluations_repeat_exactly() {
    use pulsar_obs::{Counter, Recorder};
    let nl = c432_like();
    let lib = TimingLibrary::calibrated(calibrate_inverter(&Tech::generic_180nm()).unwrap());
    let count = |threads| {
        let obs = Recorder::enabled();
        Campaign {
            stride: 3,
            threads: Some(threads),
            obs: obs.clone(),
            ..Campaign::default()
        }
        .run(&nl, &lib)
        .unwrap();
        obs.snapshot().counter(Counter::ModelEvaluations)
    };
    let one = count(1);
    for threads in [1, 2, 4] {
        assert_eq!(count(threads), one, "{threads} threads");
    }
    let planner = SitePlanner::new(&nl, &lib, &TestgenConfig::default()).unwrap();
    for g in collapsed_fault_sites(&nl).into_iter().step_by(3) {
        let _ = planner.plan(g.representative);
    }
    assert_eq!(planner.model_evaluations(), one);
    // The fixed bisection spent 50 per search with an interior root (about
    // 21,000 here); the bracketed search about a third of that.
    assert!(one > 0 && one <= 8_500, "{one} model evaluations");
}
