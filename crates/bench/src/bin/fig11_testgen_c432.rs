//! Fig. 11: test generation on the C432-class benchmark. For external
//! ROP sites across the circuit, compute each site's best test plan —
//! `(ω_in, ω_th)` chosen by the region-3 rule — and the minimum
//! detectable resistance `R_min`. The paper's scatter (circle radius =
//! R_min over the (ω_in, ω_th) plane) shows the best paths live at low
//! `ω_in`/`ω_th`.
//!
//! Output: one CSV row per fault site's best plan, plus a summary of the
//! overall best path.

use pulsar_bench::ExpParams;
use pulsar_cells::Tech;
use pulsar_core::{CoreError, SitePlanner, TestgenConfig};
use pulsar_logic::c432_like;
use pulsar_timing::{calibrate_inverter, TimingLibrary};

fn main() {
    let p = ExpParams::from_env(40); // here: number of fault sites probed
    let nl = c432_like();
    let tech = Tech::generic_180nm();
    let lib = match calibrate_inverter(&tech) {
        Ok(inv) => TimingLibrary::calibrated(inv),
        Err(e) => {
            eprintln!("calibration failed ({e}); falling back to the generic library");
            TimingLibrary::generic()
        }
    };
    let cfg = TestgenConfig {
        max_paths: 96,
        ..TestgenConfig::default()
    };
    // One planner across every probed site: a path shared by several
    // sites is sensitized and characterized once.
    let planner = SitePlanner::new(&nl, &lib, &cfg).expect("acyclic benchmark netlist");

    println!("# Fig 11 reproduction: per-site best pulse-test plan, C432-like benchmark");
    println!(
        "# sites probed = {}, paths/site cap = {}",
        p.samples, cfg.max_paths
    );
    println!("site,path_len,polarity,w_in_s,w_th_s,r_min_ohms");

    let mut best: Option<(String, f64, f64, f64)> = None;
    let mut skipped = 0usize;
    // Spread probed sites across the gate list deterministically.
    let stride = (nl.gate_count() / p.samples.max(1)).max(1);
    for gi in (0..nl.gate_count()).step_by(stride).take(p.samples) {
        let site = nl.gates()[gi].output;
        match planner.plan(site) {
            Ok(plans) => {
                let plan = &plans[0];
                let rmin = plan.r_min.unwrap_or(f64::INFINITY);
                println!(
                    "{},{},{:?},{:.4e},{:.4e},{:.4e}",
                    nl.signal_name(site),
                    plan.path.len(),
                    plan.polarity,
                    plan.w_in,
                    plan.w_th,
                    rmin
                );
                if plan.r_min.is_some() && best.as_ref().map(|b| rmin < b.3).unwrap_or(true) {
                    best = Some((nl.signal_name(site).to_owned(), plan.w_in, plan.w_th, rmin));
                }
            }
            Err(CoreError::NoSensitizablePath { .. }) => skipped += 1,
            Err(e) => {
                eprintln!("site {}: {e}", nl.signal_name(site));
                skipped += 1;
            }
        }
    }

    println!("# skipped sites (unsensitizable): {skipped}");
    match best {
        Some((site, w_in, w_th, rmin)) => println!(
            "# best path: site {site}, w_in = {w_in:.4e} s, w_th = {w_th:.4e} s, R_min = {rmin:.4e} ohm"
        ),
        None => println!("# no detectable site in the probed set"),
    }
}
