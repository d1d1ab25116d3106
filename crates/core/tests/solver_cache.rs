//! Symbolic-factorization caching across a Monte Carlo study.
//!
//! The sparse solver's symbolic analysis (fill-reducing ordering +
//! elimination structure) depends only on circuit *topology*, which a
//! study never changes: process variation and resistance sweeps perturb
//! element values only. The study runner therefore primes the analysis
//! once on a nominal instance and every per-sample instance adopts it.
//! This test pins that contract with the run's own recorder, which books
//! the priming analysis as well as every sample's solves.

use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{DefectKind, DfStudy, McConfig, PathUnderTest};
use pulsar_obs::{Counter, Recorder};

#[test]
fn study_runs_exactly_one_symbolic_analysis_per_topology() {
    // 32 stages → 36 MNA unknowns, above the sparse crossover, so
    // the engine follows the dimension and solves it sparse.
    let put = PathUnderTest {
        spec: PathSpec::inverter_chain(32),
        defect: DefectKind::ExternalRop,
        stage: 1,
        tech: Tech::generic_180nm(),
    };
    let obs = Recorder::enabled();
    let study = DfStudy::new(
        put,
        McConfig {
            obs: obs.clone(),
            ..McConfig::paper(3, 7)
        },
    );

    let report = study
        .try_faulty_needs(&[10e3, 80e3])
        .expect("study must resolve");
    let snap = obs.snapshot();
    let count = |c: Counter| snap.counter(c);

    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(
        count(Counter::SymbolicAnalyses),
        1,
        "one topology, one analysis — every sample and sweep point must \
         adopt the primed factorization"
    );
    assert!(
        count(Counter::SparseSolves) > 0,
        "a 36-unknown circuit must route through the sparse engine"
    );
    assert_eq!(
        count(Counter::DenseFallbacks),
        0,
        "a healthy chain must never fall back to dense"
    );
    assert!(
        count(Counter::NumericFactorizations) > 0,
        "Newton must refactor numerically"
    );
}
