//! Acceptance tests for the observability subsystem threaded through the
//! study stack: a disabled recorder must be invisible (bit-identical
//! results), and an enabled recorder's journal + metrics must be rich
//! enough to reconstruct per-sample retry counts, escalation rungs,
//! failure kinds and Newton-iteration histograms after the run.

use pulsar_analog::{FaultKind, FaultPlan, Polarity};
use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{DefectKind, DfStudy, McConfig, PathUnderTest, PulseStudy, ResilienceConfig};
use pulsar_mc::MonteCarlo;
use pulsar_obs::{json, render_journal, Counter, HistId, Recorder};

fn put() -> PathUnderTest {
    PathUnderTest {
        spec: PathSpec::paper_chain(),
        defect: DefectKind::ExternalRop,
        stage: 1,
        tech: Tech::generic_180nm(),
    }
}

const RS: [f64; 2] = [1e3, 100e3];
const W_IN: f64 = 500e-12;
const SAMPLES: usize = 16;
const SEED: u64 = 2007;

/// 16 samples: sample 2 hits injected non-convergence on its first
/// attempt only (recovers on retry), sample 7 on every attempt (fails
/// after the full ladder). The budget tolerates the one hard failure.
fn study(obs: Recorder) -> PulseStudy {
    let mc = McConfig {
        threads: Some(4),
        resilience: ResilienceConfig::tolerant(3, 0.25),
        fault_plan: Some(
            FaultPlan::new()
                .fail_sample(2, FaultKind::NonConvergence, 1)
                .fail_sample(7, FaultKind::NonConvergence, FaultPlan::ALWAYS),
        ),
        obs,
        ..McConfig::paper(SAMPLES, SEED)
    };
    PulseStudy::new(put(), mc, Polarity::PositiveGoing)
}

#[test]
fn disabled_recorder_is_bit_identical_to_enabled() {
    let plain = study(Recorder::disabled())
        .try_faulty_wouts(W_IN, &RS)
        .expect("inside budget");
    let rec = Recorder::enabled();
    let live = study(rec.clone())
        .try_faulty_wouts(W_IN, &RS)
        .expect("inside budget");
    // `SampleOutcome<Vec<f64>>` equality is exact — same widths to the
    // last bit, same attempt counts, same error classification.
    assert_eq!(
        plain.outcomes, live.outcomes,
        "recording changed the physics"
    );
    assert_eq!(plain.failures, live.failures);
    // And the instrumented run did actually observe the work.
    assert!(rec.event_count() > 0, "enabled recorder journaled nothing");
}

#[test]
fn journal_reconstructs_retries_escalation_and_failure_kinds() {
    let rec = Recorder::enabled();
    let report = study(rec.clone())
        .try_faulty_wouts(W_IN, &RS)
        .expect("inside budget");

    let events: Vec<_> = rec
        .events()
        .into_iter()
        .filter(|e| e.kind == "sample")
        .collect();
    assert_eq!(events.len(), SAMPLES, "one journal event per sample");

    let driver = MonteCarlo::new(SAMPLES, SEED);
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.index, i, "events arrive in sample order");
        assert_eq!(e.label.as_deref(), Some("pulse-faulty"));
        // The journaled seed is the replayable per-stream seed.
        assert_eq!(e.seed, Some(driver.stream_seed(i)));
        // Attempt counts reconstruct the run report exactly.
        assert_eq!(e.attempts, report.outcomes[i].attempts());
        assert_eq!(e.escalation_rung, e.attempts - 1);
    }

    assert_eq!(events[2].outcome, "recovered");
    assert_eq!(events[2].attempts, 2);
    assert_eq!(events[7].outcome, "failed");
    assert_eq!(events[7].attempts, 3);
    assert_eq!(events[7].error_kind.as_deref(), Some("non-convergence"));
    // A clean sample carries its per-sample solver counters.
    assert!(
        events[0]
            .counters
            .iter()
            .any(|(name, v)| *name == "newton_iterations" && *v > 0),
        "per-sample counters missing Newton work: {:?}",
        events[0].counters
    );

    // Run-level metrics agree with the journal.
    let snap = rec.snapshot();
    assert_eq!(snap.counter(Counter::SamplesOk), 14);
    assert_eq!(snap.counter(Counter::SamplesRecovered), 1);
    assert_eq!(snap.counter(Counter::SamplesFailed), 1);
    // One extra attempt for the recovered sample, two for the failed one.
    assert_eq!(snap.counter(Counter::RetryAttempts), 3);
    // The Newton-iterations-per-solve histogram is reconstructible.
    assert!(snap.histogram_count(HistId::NewtonItersPerSolve) > 0);
    assert_eq!(
        snap.histogram_count(HistId::NewtonItersPerSolve),
        snap.counter(Counter::SparseSolves) + snap.counter(Counter::DenseSolves),
        "one histogram observation per Newton solve"
    );

    // Every rendered journal line is machine-readable JSON.
    let journal = render_journal(&rec.events());
    for line in journal.lines() {
        json::parse(line).expect("journal line must parse as JSON");
    }
}

#[test]
fn sample_events_say_how_many_columns_each_row_simulated() {
    // A clean coverage run over a 7-point sweep: every sample event
    // carries its simulated/inferred column split, the two add up to the
    // row, and the run totals match the journal.
    let obs = Recorder::enabled();
    let mc = McConfig {
        threads: Some(2),
        obs: obs.clone(),
        ..McConfig::paper(6, SEED)
    };
    let study = PulseStudy::new(put(), mc, Polarity::PositiveGoing);
    let calib = study.calibrate().expect("calibration");
    let rs = [300.0, 1e3, 3e3, 10e3, 30e3, 100e3, 300e3];
    let before = obs.snapshot();
    study
        .coverage(&calib, &rs, &[0.9, 1.0, 1.1])
        .expect("coverage");
    let snap = obs.snapshot();
    let count = |e: &pulsar_obs::Event, name: &str| {
        e.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    let events: Vec<_> = obs
        .events()
        .into_iter()
        .filter(|e| e.kind == "sample" && e.label.as_deref() == Some("pulse-faulty"))
        .collect();
    assert_eq!(events.len(), 6);
    let mut simulated = 0;
    for e in &events {
        let (sim, inf) = (count(e, "columns_simulated"), count(e, "columns_inferred"));
        assert!(sim > 0, "sample {} simulated nothing", e.index);
        assert_eq!(sim + inf, rs.len() as u64, "sample {}", e.index);
        simulated += sim;
    }
    let delta = |c: Counter| snap.counter(c) - before.counter(c);
    assert_eq!(delta(Counter::ColumnsSimulated), simulated);
    assert_eq!(
        delta(Counter::ColumnsSimulated) + delta(Counter::ColumnsInferred),
        6 * rs.len() as u64
    );
    assert!(
        delta(Counter::ColumnsInferred) > 0,
        "the search inferred no column"
    );
}

#[test]
fn sample_events_count_censored_delays_and_skipped_edges() {
    // DF coverage up to 400 kΩ: the slowest columns prove their need past
    // the largest test period and stop there. Every sample event carries
    // its censored-query and skipped-edge counts beside the column split,
    // a skipped edge always follows a censored query, and the run totals
    // match the journal.
    let obs = Recorder::enabled();
    let mc = McConfig {
        threads: Some(2),
        obs: obs.clone(),
        ..McConfig::paper(6, SEED)
    };
    let study = DfStudy::new(put(), mc);
    let calib = study.calibrate().expect("calibration");
    let rs = [300.0, 3e3, 30e3, 400e3];
    let before = obs.snapshot();
    study
        .coverage(&calib, &rs, &[0.9, 1.0, 1.1])
        .expect("coverage");
    let snap = obs.snapshot();
    let count = |e: &pulsar_obs::Event, name: &str| {
        e.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    let events: Vec<_> = obs
        .events()
        .into_iter()
        .filter(|e| e.kind == "sample" && e.label.as_deref() == Some("df-faulty"))
        .collect();
    assert_eq!(events.len(), 6);
    let (mut censored, mut skipped) = (0, 0);
    for e in &events {
        let (c, k) = (count(e, "delays_censored"), count(e, "edges_skipped"));
        assert!(
            k <= c,
            "sample {}: {k} skipped edges, {c} censored",
            e.index
        );
        assert!(count(e, "columns_simulated") > 0, "sample {}", e.index);
        censored += c;
        skipped += k;
    }
    let delta = |c: Counter| snap.counter(c) - before.counter(c);
    assert_eq!(delta(Counter::DelaysCensored), censored);
    assert_eq!(delta(Counter::EdgesSkipped), skipped);
    assert!(skipped > 0, "no 400 kΩ column skipped its falling edge");
}
