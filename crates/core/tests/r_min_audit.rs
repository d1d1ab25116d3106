//! `R_min` certificate: every plan the test generator emits on
//! `c432_like`, held against a reference planner that lives only here and
//! finds `R_min` with the fixed 48-halving log-space bisection the
//! generator used before its bracketed search (DESIGN.md §5.14).
//!
//! Each plan must keep the reference's path, vector, pulse kind,
//! `(ω_in, ω_th)` and rank, and its `R_min` must
//! - detect (`w_out < ω_th`);
//! - not detect at `R_min / (1 + 2e-9)`, unless it is the bracket's low
//!   end;
//! - lie within 1e-9 relative of the reference's.
//!
//! The default tier probes every fifth collapsed site; the `--ignored`
//! tier probes every one at the default 512-path cap.

#![allow(clippy::unwrap_used)]

use pulsar_analog::Polarity;
use pulsar_cells::Tech;
use pulsar_core::{
    ModelFault, ModelPath, PathInstance, PathTestPlan, SitePlanner, TestgenConfig, TransferCurve,
};
use pulsar_logic::{
    c432_like, collapsed_fault_sites, paths_from_fanin, sensitize, Netlist, Path, SignalId,
};
use pulsar_timing::{calibrate_inverter, PathTimingModel, TimingLibrary};

/// Relative tolerance the search promises.
const TOL: f64 = 1e-9;

/// The external ROP at `site` on `path`'s model, as the planner maps it.
fn fault_for(nl: &Netlist, path: &Path, site: SignalId, c_branch: f64) -> ModelFault {
    if site == path.from {
        return ModelFault::RcAtInput { c_branch };
    }
    let stage = path
        .steps
        .iter()
        .position(|s| nl.gate(s.gate).output == site)
        .unwrap();
    ModelFault::RcAfter { stage, c_branch }
}

fn detects(faulty: &mut ModelPath, r: f64, polarity: Polarity, w_in: f64, w_th: f64) -> bool {
    faulty.set_resistance(r).unwrap();
    faulty.pulse_width_out(w_in, polarity).unwrap() < w_th
}

/// `R_min` by 48 log-space halvings, as the generator once found it.
fn bisection_r_min(
    faulty: &mut ModelPath,
    polarity: Polarity,
    w_in: f64,
    w_th: f64,
    (r_lo, r_hi): (f64, f64),
) -> Option<f64> {
    if !detects(faulty, r_hi, polarity, w_in, w_th) {
        return None;
    }
    if detects(faulty, r_lo, polarity, w_in, w_th) {
        return Some(r_lo);
    }
    let (mut lo, mut hi) = (r_lo, r_hi);
    for _ in 0..48 {
        let mid = ((lo.ln() + hi.ln()) / 2.0).exp();
        if detects(faulty, mid, polarity, w_in, w_th) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The §5 flow for one site with the bisection: every candidate path,
/// sensitized, both pulse kinds from the healthy knee, the better kind
/// kept (the first on a tie), ranked by `R_min` with undetectable last.
fn reference_plans(
    nl: &Netlist,
    site: SignalId,
    lib: &TimingLibrary,
    cfg: &TestgenConfig,
) -> Vec<PathTestPlan> {
    let mut plans = Vec::new();
    for path in paths_from_fanin(nl, site, cfg.max_paths) {
        let Ok(Some(vector)) = sensitize(nl, &path, cfg.max_backtracks) else {
            continue;
        };
        let healthy = PathTimingModel::from_netlist_path(nl, &path, lib);
        let fault = fault_for(nl, &path, site, cfg.c_branch);
        let mut faulty = ModelPath::new(healthy.clone(), Some(fault), cfg.r_bracket.0);
        let mut best: Option<(Polarity, f64, f64, Option<f64>)> = None;
        for polarity in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
            let mut probe = ModelPath::new(healthy.clone(), None, 0.0);
            let curve = TransferCurve::measure(
                &mut probe,
                polarity,
                cfg.w_hi / cfg.sweep_points as f64,
                cfg.w_hi,
                cfg.sweep_points,
            )
            .unwrap();
            let Some(w_in) = curve.region3_start(cfg.region_tol, cfg.guard) else {
                continue;
            };
            let w_healthy = healthy.pulse_out(w_in, polarity);
            if w_healthy <= 0.0 {
                continue;
            }
            let w_th = w_healthy / cfg.sensor_margin;
            let r_min = bisection_r_min(&mut faulty, polarity, w_in, w_th, cfg.r_bracket);
            let rank = |r: Option<f64>| r.unwrap_or(f64::INFINITY);
            if best.is_none_or(|b| rank(r_min) < rank(b.3)) {
                best = Some((polarity, w_in, w_th, r_min));
            }
        }
        if let Some((polarity, w_in, w_th, r_min)) = best {
            plans.push(PathTestPlan {
                path,
                vector,
                polarity,
                w_in,
                w_th,
                r_min,
            });
        }
    }
    plans.sort_by(|a, b| {
        let rank = |p: &PathTestPlan| p.r_min.unwrap_or(f64::INFINITY);
        rank(a).total_cmp(&rank(b))
    });
    plans
}

/// Checks every plan of every `stride`-th collapsed site of `c432_like`
/// under `lib`; returns how many detectable plans it certified.
fn certify(lib: &TimingLibrary, stride: usize) -> usize {
    let nl = c432_like();
    let cfg = TestgenConfig::default();
    let planner = SitePlanner::new(&nl, lib, &cfg).unwrap();
    let mut certified = 0;
    for g in collapsed_fault_sites(&nl).into_iter().step_by(stride) {
        let site = g.representative;
        let name = nl.signal_name(site).to_owned();
        let reference = reference_plans(&nl, site, lib, &cfg);
        let plans = match planner.plan(site) {
            Ok(plans) => plans,
            Err(e) => {
                assert!(reference.is_empty(), "{name}: {e}");
                continue;
            }
        };
        assert_eq!(plans.len(), reference.len(), "{name}");
        for (k, (p, q)) in plans.iter().zip(&reference).enumerate() {
            let at = format!("{name} plan {k}");
            assert_eq!(p.path, q.path, "{at}: path or order");
            assert_eq!(p.vector, q.vector, "{at}");
            assert_eq!(p.polarity, q.polarity, "{at}");
            assert_eq!(p.w_in.to_bits(), q.w_in.to_bits(), "{at}");
            assert_eq!(p.w_th.to_bits(), q.w_th.to_bits(), "{at}");
            let (r, r_ref) = match (p.r_min, q.r_min) {
                (None, None) => continue,
                (Some(r), Some(r_ref)) => (r, r_ref),
                other => panic!("{at}: detectability differs: {other:?}"),
            };
            let healthy = PathTimingModel::from_netlist_path(&nl, &p.path, lib);
            let fault = fault_for(&nl, &p.path, site, cfg.c_branch);
            let mut faulty = ModelPath::new(healthy, Some(fault), r);
            assert!(
                detects(&mut faulty, r, p.polarity, p.w_in, p.w_th),
                "{at}: R_min {r} does not detect"
            );
            let r_lo = cfg.r_bracket.0;
            assert_eq!(r == r_lo, r_ref == r_lo, "{at}: {r} vs {r_ref}");
            if r != r_lo {
                let below = r / (1.0 + 2.0 * TOL);
                assert!(
                    !detects(&mut faulty, below, p.polarity, p.w_in, p.w_th),
                    "{at}: {below} below R_min {r} still detects"
                );
            }
            assert!(
                (r - r_ref).abs() <= TOL * r_ref,
                "{at}: R_min {r} vs bisection {r_ref}"
            );
            certified += 1;
        }
    }
    certified
}

fn calibrated() -> TimingLibrary {
    TimingLibrary::calibrated(calibrate_inverter(&Tech::generic_180nm()).unwrap())
}

#[test]
fn r_min_is_certified_on_every_fifth_c432_site() {
    // About a hundred detectable plans each: fewer means the sites moved.
    assert!(certify(&TimingLibrary::generic(), 5) >= 50);
    assert!(certify(&calibrated(), 5) >= 50);
}

#[test]
#[ignore = "every collapsed site at the 512-path cap; run with --ignored"]
fn r_min_is_certified_on_every_c432_site() {
    assert!(certify(&TimingLibrary::generic(), 1) > 0);
    assert!(certify(&calibrated(), 1) > 0);
}
