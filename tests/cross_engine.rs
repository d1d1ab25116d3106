//! Cross-engine consistency: the logic-level pulse engine (the paper's
//! announced follow-up tool) must agree with the transistor-level
//! reference on the quantities the methodology depends on.

use pulsar_analog::{Edge, Polarity};
use pulsar_cells::{BuiltPath, PathFault, PathSpec, Tech};
use pulsar_core::{ModelFault, ModelPath, PathInstance};
use pulsar_timing::{calibrate_inverter, PathElement, PathTimingModel};

fn electrical_chain(n: usize, fault: PathFault) -> BuiltPath {
    let tech = Tech::generic_180nm();
    BuiltPath::new(&PathSpec::inverter_chain(n), &fault, &vec![tech; n])
}

fn calibrated_chain(n: usize) -> PathTimingModel {
    let inv = calibrate_inverter(&Tech::generic_180nm()).unwrap();
    PathTimingModel::new(vec![
        PathElement::Gate {
            model: inv,
            inverting: true,
            slow_rise: 0.0,
            slow_fall: 0.0
        };
        n
    ])
}

#[test]
fn calibrated_delay_tracks_the_electrical_reference() {
    let model = calibrated_chain(7);
    let mut elec = electrical_chain(7, PathFault::None);
    for edge in [Edge::Rising, Edge::Falling] {
        let d_e = elec
            .propagate_transition(edge, None)
            .unwrap()
            .delay
            .unwrap();
        let d_m = model.delay(edge);
        let err = (d_m - d_e).abs() / d_e;
        assert!(
            err < 0.20,
            "{edge:?}: model {d_m:.3e} vs electrical {d_e:.3e} ({:.0}%)",
            err * 100.0
        );
    }
}

#[test]
fn calibrated_filtering_threshold_is_in_the_electrical_ballpark() {
    let model = calibrated_chain(7);
    let w_model = model
        .min_passing_width(Polarity::PositiveGoing, 3e-9, 1e-12)
        .expect("model chain passes wide pulses");

    // Electrical minimum passing width by bisection.
    let mut elec = electrical_chain(7, PathFault::None);
    let mut lo = 20e-12;
    let mut hi = 2e-9;
    while hi - lo > 4e-12 {
        let mid = 0.5 * (lo + hi);
        let out = elec
            .propagate_pulse(mid, Polarity::PositiveGoing, None)
            .unwrap();
        if out.dampened() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let w_elec = 0.5 * (lo + hi);
    let ratio = (w_model / w_elec).max(w_elec / w_model);
    assert!(
        ratio < 1.6,
        "filtering thresholds diverge: model {w_model:.3e}, electrical {w_elec:.3e}"
    );
}

#[test]
fn both_engines_agree_on_the_dampening_trend() {
    // Sweep an external ROP; both engines must order the output widths
    // identically (monotone shrink), even if absolute values differ.
    let c_branch = 13e-15;
    let rs = [1e3, 8e3, 20e3, 50e3];

    let mut elec = electrical_chain(
        7,
        PathFault::ExternalRop {
            stage: 1,
            ohms: rs[0],
        },
    );
    let mut model = ModelPath::new(
        calibrated_chain(7),
        Some(ModelFault::RcAfter { stage: 1, c_branch }),
        rs[0],
    );

    let w_in = 420e-12;
    let mut last_e = f64::INFINITY;
    let mut last_m = f64::INFINITY;
    for r in rs {
        elec.set_fault_resistance(r).unwrap();
        let we = elec
            .propagate_pulse(w_in, Polarity::PositiveGoing, None)
            .unwrap()
            .output_width;
        model.set_resistance(r).unwrap();
        let wm = model
            .pulse_width_out(w_in, Polarity::PositiveGoing)
            .unwrap();
        assert!(we <= last_e + 5e-12, "electrical non-monotone at {r:e}");
        assert!(wm <= last_m + 5e-12, "model non-monotone at {r:e}");
        last_e = we;
        last_m = wm;
    }
    // Both must have fully dampened by the top of the sweep.
    assert_eq!(last_m, 0.0, "model should dampen by 50 kΩ");
    assert!(
        last_e < 100e-12,
        "electrical should (nearly) dampen by 50 kΩ, got {last_e:e}"
    );
}

#[test]
fn engines_agree_on_one_edge_rop_asymmetry() {
    // Internal pull-up ROP: both engines must report a large rising/
    // falling delay split for the affected sensitization.
    let r = 20e3;
    let c_load = 30e-15;
    let mut elec = electrical_chain(
        5,
        PathFault::InternalRop {
            stage: 1,
            site: pulsar_cells::RopSite::PullUp,
            ohms: r,
        },
    );
    let de_r = elec
        .propagate_transition(Edge::Rising, None)
        .unwrap()
        .delay
        .unwrap();
    let de_f = elec
        .propagate_transition(Edge::Falling, None)
        .unwrap()
        .delay
        .unwrap();

    let mut model = ModelPath::new(
        calibrated_chain(5),
        Some(ModelFault::EdgeSlow {
            stage: 1,
            edge: Edge::Rising,
            c_load,
        }),
        r,
    );
    let dm_r = model.delay(Edge::Rising).unwrap();
    let dm_f = model.delay(Edge::Falling).unwrap();

    assert!(
        de_r > de_f + 100e-12,
        "electrical asymmetry missing: {de_r:e} vs {de_f:e}"
    );
    assert!(
        dm_r > dm_f + 100e-12,
        "model asymmetry missing: {dm_r:e} vs {dm_f:e}"
    );
    // The slowed direction agrees.
    assert_eq!(de_r > de_f, dm_r > dm_f);
}

/// The `ext_engine_ablation` model arm at the size and seed its recorded
/// file uses: the calibration must find a threshold that every fault-free
/// instance clears with the sensor margin (it used to stop on an instance
/// that dampened the pulse).
#[test]
fn ablation_model_study_calibrates_at_its_recorded_scale() {
    use pulsar_core::McConfig;
    use pulsar_timing::TimingLibrary;

    let inv = calibrate_inverter(&Tech::generic_180nm()).unwrap();
    let study =
        pulsar_bench::model_rop_study(&TimingLibrary::calibrated(inv), McConfig::paper(96, 2007));
    let cal = study
        .calibrate()
        .expect("model calibration at N = 96, seed 2007");
    assert!(cal.w_th > 0.0 && cal.w_th < cal.w_in, "{cal:?}");
    for w in study.fault_free_wouts(cal.w_in).unwrap() {
        assert!(
            w >= study.sensor_margin * cal.w_th - 1e-18,
            "false positive: {w:e} vs {cal:?}"
        );
    }
}
