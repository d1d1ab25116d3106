//! Extension experiment: electrical vs logic-level engine on the Fig. 7
//! coverage study. The logic-level engine (the paper's §6 follow-up tool)
//! runs the same Monte Carlo coverage sweep orders of magnitude faster;
//! this ablation prints both engines' `C_pulse(R)` side by side along
//! with their wall-clock costs, so the fidelity/speed trade is explicit.
//!
//! Output: CSV `R, Cpulse_electrical, Cpulse_model` on stdout; the two
//! engines' wall-clock times on stderr.

use pulsar_analog::Polarity;
use pulsar_bench::{log_sweep, model_rop_study, rop_put, ExpParams};
use pulsar_cells::Tech;
use pulsar_core::PulseStudy;
use pulsar_timing::{calibrate_inverter, TimingLibrary};
use std::time::Instant;

fn main() {
    let p = ExpParams::from_env(48);
    let rs = log_sweep(300.0, 400e3, 13);

    // Electrical reference.
    let t0 = Instant::now();
    let elec = PulseStudy::new(rop_put(), p.mc(), Polarity::PositiveGoing);
    let ecal = elec.calibrate().expect("electrical calibration");
    let ecov = elec
        .coverage(&ecal, &rs, &[1.0])
        .expect("electrical coverage");
    let t_elec = t0.elapsed();

    // Logic-level engine with a calibrated library: same 7-stage chain
    // with the fan-out derate on the faulted stage.
    let t0 = Instant::now();
    let inv = calibrate_inverter(&Tech::generic_180nm()).expect("calibration");
    let model = model_rop_study(&TimingLibrary::calibrated(inv), p.mc());
    let mcal = model.calibrate().expect("model calibration");
    let mcov = model.coverage(&mcal, &rs, &[1.0]).expect("model coverage");
    let t_model = t0.elapsed();

    println!("# engine ablation: C_pulse(R) at nominal w_th, external ROP");
    println!("# samples = {}, seed = {}", p.samples, p.seed);
    println!(
        "# electrical: w_in0 = {:.3e}, w_th0 = {:.3e}",
        ecal.w_in, ecal.w_th
    );
    println!(
        "# model:      w_in0 = {:.3e}, w_th0 = {:.3e}",
        mcal.w_in, mcal.w_th
    );
    // Wall clock goes to stderr so stdout stays reproducible bit for bit.
    eprintln!("electrical wall = {t_elec:.2?}");
    eprintln!("model wall = {t_model:.2?} (incl. calibration transients)");
    println!("R_ohms,Cpulse_electrical,Cpulse_model");
    for (i, r) in rs.iter().enumerate() {
        println!(
            "{r:.4e},{:.4},{:.4}",
            ecov[0].coverage[i], mcov[0].coverage[i]
        );
    }
}
