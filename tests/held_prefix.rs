//! The held rest prefix (DESIGN.md §5.17): transient points before any
//! source first moves are the `t = 0` operating point, recorded without a
//! Newton solve. The solved prefix it replaced drifted from that point by
//! rounding only (about 1e-19 V), so the paper's measurements must not
//! move: over the 13-point Fig. 6/7 sweep (external ROP at stage 1, the
//! nominal instance), the Fig. 7 output widths and the Fig. 6 rising and
//! falling delays stay within 1 fs of the values the solved prefix gave.

use pulsar_analog::{Edge, Polarity};
use pulsar_bench::{log_sweep, rop_put};

/// The calibrated Fig. 7 injection width ω_in⁰ (about 278 ps).
const W_IN: f64 = 278e-12;

/// Largest allowed move of a width or delay, seconds.
const TOL: f64 = 1e-15;

/// `(R, width, rising delay, falling delay)` over the sweep, printed by the
/// engine that solved every point before the input edge.
#[rustfmt::skip]
const PINNED: [(f64, f64, f64, f64); 13] = [
    (299.99999999999994, 2.810459095556749e-10, 4.929015525500627e-10, 4.991066859202047e-10),
    (546.4278374318029, 2.809509007733196e-10, 4.966115180046956e-10, 5.029401067020863e-10),
    (995.2779384013228, 2.807136712625243e-10, 5.035407146604309e-10, 5.101382611262047e-10),
    (1812.8252384140617, 2.799869553876319e-10, 5.16549991032364e-10, 5.237247623609977e-10),
    (3301.927248894625, 2.771763081981001e-10, 5.405878149198191e-10, 5.490135591900329e-10),
    (6014.216553235441, 2.6368032153788286e-10, 5.832690916794532e-10, 5.941203940795668e-10),
    (10954.451150103334, 1.1372167745584486e-10, 6.570407461648957e-10, 6.722676198272743e-10),
    (19952.723507344304, 0.0, 7.843314463992288e-10, 8.075995967783313e-10),
    (36342.41185664276, 0.0, 1.0037810302804902e-9, 1.0416809248961416e-9),
    (66195.0183929375, 0.0, 1.3836964201994184e-9, 1.4479322294643604e-9),
    (120569.335830704, 0.0, 2.048361735997403e-9, 2.159991109177888e-9),
    (219608.13812853498, 0.0, 3.224142699899071e-9, 3.420826982773522e-9),
    (400000.0000000009, 0.0, 5.322746203478518e-9, 5.672639399821662e-9),
];

#[test]
fn fig6_delays_and_fig7_widths_hold_to_a_femtosecond() {
    let rs = log_sweep(300.0, 400e3, 13);
    let put = rop_put();
    let mut inst = put.instantiate_nominal(rs[0]);
    let p = inst.built_path();
    for (&r, &(r_pinned, width, rise, fall)) in rs.iter().zip(&PINNED) {
        assert_eq!(r.to_bits(), r_pinned.to_bits(), "sweep point moved");
        p.set_fault_resistance(r).expect("resistance");
        let w = p
            .pulse_width_only(W_IN, Polarity::PositiveGoing, None)
            .expect("width");
        assert!(
            (w - width).abs() <= TOL,
            "width at {r:e} Ω: {w:e} vs {width:e}"
        );
        for (edge, pinned) in [(Edge::Rising, rise), (Edge::Falling, fall)] {
            let d = p
                .propagate_transition(edge, None)
                .expect("delay")
                .delay
                .expect("the path switches");
            assert!(
                (d - pinned).abs() <= TOL,
                "{edge:?} delay at {r:e} Ω: {d:e} vs {pinned:e}"
            );
        }
    }
}
