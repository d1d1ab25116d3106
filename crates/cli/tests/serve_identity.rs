//! A served study answers with the same bytes as the one-shot CLI: both
//! run the same study request through the same calibrated study and
//! curve renderer, so `pulsar serve --run <kind> ...` and `pulsar study
//! <kind> ...` with the same flags must agree byte for byte. That holds
//! for both kinds, for a cold job, which calibrates for itself, and for a
//! resweep, which reuses the daemon's cached calibration.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::time::Duration;

use pulsar_obs::json::{self, Json};
use pulsar_serve::{Client, Daemon, JobSpec, ServeConfig, StudyKind};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pulsar-serve-identity-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SAMPLES: usize = 2;
const SEED: u64 = 2007;
const RS: [f64; 2] = [1e3, 100e3];

fn spec(kind: StudyKind, factors: &[f64]) -> JobSpec {
    JobSpec::Study {
        kind,
        samples: SAMPLES,
        seed: SEED,
        rs: RS.to_vec(),
        factors: factors.to_vec(),
    }
}

/// The one-shot `pulsar study` report for the flags [`spec`] carries.
fn one_shot(kind: StudyKind, factors: &[f64]) -> String {
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let args: Vec<String> = [
        "study".to_owned(),
        kind.as_str().to_owned(),
        "--samples".to_owned(),
        SAMPLES.to_string(),
        "--seed".to_owned(),
        SEED.to_string(),
        "--r".to_owned(),
        list(&RS),
        "--factors".to_owned(),
        list(factors),
    ]
    .to_vec();
    pulsar_cli::dispatch(&args).unwrap()
}

fn served(c: &mut Client, spec: &JobSpec) -> String {
    let (job, _, _) = c.submit(spec).unwrap();
    let outcome = c.wait(job).unwrap();
    assert_eq!(outcome.state, "done", "{:?}", outcome.error);
    outcome.result.unwrap()
}

fn calib_hits(c: &mut Client) -> f64 {
    let doc = json::parse(&c.stats().unwrap()).unwrap();
    doc.get("counters")
        .and_then(|c| c.get("serve_calib_cache_hits"))
        .and_then(Json::as_num)
        .unwrap_or(0.0)
}

/// Serves a cold job and then a calibration-cache resweep of `kind`,
/// each against the one-shot CLI.
fn assert_served_matches_one_shot(kind: StudyKind) {
    let dir = tmp_dir(kind.as_str());
    let daemon = Daemon::start(ServeConfig::new(dir.join("d.sock"))).unwrap();
    let mut c = Client::connect_within(daemon.socket(), Duration::from_secs(5)).unwrap();

    let cold = [0.9, 1.1];
    assert_eq!(served(&mut c, &spec(kind, &cold)), one_shot(kind, &cold));
    assert_eq!(calib_hits(&mut c), 0.0, "a cold daemon has no calibration");

    // Same kind, samples and seed; new factors: the result cache misses
    // and the calibration comes from the daemon's cache.
    let resweep = [0.8, 1.0, 1.2];
    assert_eq!(
        served(&mut c, &spec(kind, &resweep)),
        one_shot(kind, &resweep)
    );
    assert!(
        calib_hits(&mut c) >= 1.0,
        "the resweep must reuse the calibration"
    );

    c.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_df_study_is_byte_identical_to_the_one_shot_cli() {
    assert_served_matches_one_shot(StudyKind::Df);
}

#[test]
fn served_pulse_study_is_byte_identical_to_the_one_shot_cli() {
    assert_served_matches_one_shot(StudyKind::Pulse);
}
