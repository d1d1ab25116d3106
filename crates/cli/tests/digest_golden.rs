//! Config digests are identities that outlive a build: a checkpoint
//! written by one version is resumed by the next only if its spec digest
//! is unchanged, and the serve daemon's whole-result cache is keyed by the
//! same digest the one-shot CLI writes into its manifest. This pins the
//! 64-bit digest of every study checkpoint spec kind and of the study
//! manifest at one fixed configuration, so a refactor that drifts any
//! digest string fails here instead of silently orphaning checkpoints.

#![allow(clippy::unwrap_used)]

use pulsar_analog::Polarity;
use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{
    AdaptivePolicy, DefectKind, DfCalibration, DfStudy, McConfig, PathUnderTest, Plan,
    PulseCalibration, PulseStudy,
};
use pulsar_serve::{JobSpec, StudyKind};

const RS: [f64; 3] = [1e3, 30e3, 100e3];
const FACTORS: [f64; 2] = [0.9, 1.1];

fn put() -> PathUnderTest {
    PathUnderTest {
        spec: PathSpec::paper_chain(),
        defect: DefectKind::ExternalRop,
        stage: 1,
        tech: Tech::generic_180nm(),
    }
}

fn mc() -> McConfig {
    McConfig::paper(8, 2007)
}

fn policy() -> AdaptivePolicy {
    AdaptivePolicy::new(0.15, 8)
}

const T0: DfCalibration = DfCalibration { t0: 1.25e-9 };
const PULSE: PulseCalibration = PulseCalibration {
    w_in: 450e-12,
    w_th: 300e-12,
};

#[test]
fn study_checkpoint_spec_digests_are_pinned() {
    let df = DfStudy::new(put(), mc());
    let pulse = PulseStudy::new(put(), mc(), Polarity::PositiveGoing);
    let fixed = Plan::fixed(&RS, &FACTORS);
    let adaptive = Plan::adaptive(&RS, &FACTORS, policy());
    let specs = [
        ("df coverage", df.checkpoint_spec(&T0, &fixed)),
        ("df adaptive", df.checkpoint_spec(&T0, &adaptive)),
        ("pulse coverage", pulse.checkpoint_spec(&PULSE, &fixed)),
        ("pulse adaptive", pulse.checkpoint_spec(&PULSE, &adaptive)),
    ];
    // The signature the benchmark harness calls resolves to the same spec.
    assert_eq!(
        df.adaptive_checkpoint_spec(&RS, &FACTORS, &policy(), None),
        specs[1].1
    );
    let got: Vec<(&str, u64, u64, usize)> = specs
        .iter()
        .map(|(name, s)| (*name, s.config_digest, s.seed, s.samples))
        .collect();
    assert_eq!(
        got,
        [
            ("df coverage", 0xc4c8_7b8c_b8b1_16b6, 2007, 8),
            ("df adaptive", 0x3ed0_3b37_9c87_ebab, 2007, 24),
            ("pulse coverage", 0xb1e5_3ac0_3579_ba79, 2007, 8),
            ("pulse adaptive", 0xc7e3_ede7_4016_ba2b, 2007, 24),
        ]
    );
}

/// The `config_digest` the one-shot `pulsar study` writes into its
/// `--metrics` manifest.
fn manifest_digest(kind: &str, adaptive: bool) -> u64 {
    let dir = std::env::temp_dir().join(format!("pulsar-digest-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{kind}-{adaptive}.json"));
    let mut args: Vec<String> = [
        "study",
        kind,
        "--samples",
        "2",
        "--seed",
        "2007",
        "--r",
        "1e3,100e3",
        "--factors",
        "0.9,1.1",
        "--metrics",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    args.push(path.to_str().unwrap().to_owned());
    if adaptive {
        args.push("--adaptive".to_owned());
    }
    pulsar_cli::dispatch(&args).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    let key = "\"config_digest\":\"0x";
    let at = text.find(key).unwrap() + key.len();
    u64::from_str_radix(&text[at..at + 16], 16).unwrap()
}

#[test]
fn study_manifest_and_served_job_digests_are_pinned() {
    let got = [
        ("df fixed", manifest_digest("df", false)),
        ("df adaptive", manifest_digest("df", true)),
        ("pulse fixed", manifest_digest("pulse", false)),
        ("pulse adaptive", manifest_digest("pulse", true)),
    ];
    assert_eq!(
        got,
        [
            ("df fixed", 0x298d_d502_9744_6f48),
            ("df adaptive", 0xfeec_d9b9_f0e2_843b),
            ("pulse fixed", 0x7be2_f025_e5e6_5b9f),
            ("pulse adaptive", 0x4505_29a4_7d7e_4f0e),
        ]
    );
    // A served fixed-sample job hashes to the one-shot CLI's digest.
    for (kind, cli) in [(StudyKind::Df, got[0].1), (StudyKind::Pulse, got[2].1)] {
        let spec = JobSpec::Study {
            kind,
            samples: 2,
            seed: 2007,
            rs: vec![1e3, 100e3],
            factors: FACTORS.to_vec(),
        };
        assert_eq!(spec.digest(), cli, "{kind:?}");
    }
}
