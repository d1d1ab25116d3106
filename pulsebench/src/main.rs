//! `pulsebench`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path pulsebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: it reads `BENCHMARK.json` there for the
//! metric names and units, and keeps its scratch files (sockets,
//! checkpoints, span logs) under `.pulsebench/`. It drives the library
//! crates in-process through their public APIs, checks their outputs, and
//! prints one JSON object as the last line of stdout. Every timing is
//! host-normalised (see [`host`]); `--trace 1` prints the per-layer
//! metrics instead of the end-to-end ones. Workloads, metrics, and which
//! layer metric should move which end-to-end metric are described in
//! `pulsebench/README.md`.

mod campaign;
mod fig6;
mod fig7;
mod host;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pulsar_core::CoverageCurve;
use pulsar_obs::json::{self, Json};

use host::RefKernel;
use stats::{median, percentile};
use trace::SpanLog;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Reference reps timed around each set-up repetition.
const SETUP_REF_REPS: usize = 1000;

/// `peak_rss_mb` is read when this many ops have been recorded (or at the
/// end of a shorter run), so it does not grow with how many ops a run
/// fits in its seconds.
const RSS_AT_OPS: usize = 50;

/// Scratch directory, relative to the repository root.
const SCRATCH: &str = ".pulsebench";

/// One timed op: raw wall clock and the reference sample taken right
/// after it.
pub struct OpSample {
    pub raw_ms: f64,
    /// Mean reference rep time around the op, microseconds.
    pub ref_us: f64,
    /// Multiplier taking a raw duration of this op to the reference host
    /// speed.
    pub scale: f64,
    /// Whether the program's recorder and the span log were on.
    pub traced: bool,
}

impl OpSample {
    pub fn norm_ms(&self) -> f64 {
        self.raw_ms * self.scale
    }
}

/// State shared by every workload: arguments, the reference kernel, the
/// span log, and what the run measured and checked.
pub struct Bench {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host: RefKernel,
    /// The reference kernel set-up is normalised by.
    pub setup_host: RefKernel,
    pub spans: SpanLog,
    pub scratch: PathBuf,
    pub ops: Vec<OpSample>,
    /// Normalised set-up durations, seconds.
    pub setups: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Per-layer metrics, by name.
    pub layer: BTreeMap<String, f64>,
    /// `VmHWM` after [`RSS_AT_OPS`] ops, MiB.
    pub peak_rss_mb: Option<f64>,
    /// Time spent in [`Bench::untimed`] during the current set-up.
    untimed: Duration,
}

impl Bench {
    /// Times `f` [`SETUP_REPEATS`] times, each normalised by reference
    /// samples taken just before and just after it, and returns every
    /// repetition's result.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Bench) -> T) -> Vec<T> {
        (0..SETUP_REPEATS)
            .map(|_| {
                let before = self.setup_host.sample(SETUP_REF_REPS);
                self.untimed = Duration::ZERO;
                let t = Instant::now();
                let out = f(self);
                let raw = (t.elapsed() - self.untimed).as_secs_f64();
                let after = self.setup_host.sample(SETUP_REF_REPS);
                self.setups
                    .push(raw * self.setup_host.scale(0.5 * (before + after)));
                out
            })
            .collect()
    }

    /// Runs `f` inside a set-up without counting its time in `setup_s`.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.untimed += t.elapsed();
        out
    }

    /// Times one op between two samples of `ref_reps` reference reps, and
    /// records it. Returns the op's result and the index of its sample.
    pub fn op<T>(
        &mut self,
        ref_reps: usize,
        traced: bool,
        f: impl FnOnce(&mut Bench) -> T,
    ) -> (T, usize) {
        let pre_us = self.host.sample(ref_reps);
        let t = Instant::now();
        let out = f(self);
        let raw_ms = t.elapsed().as_secs_f64() * 1e3;
        (out, self.record(raw_ms, pre_us, ref_reps, traced))
    }

    /// Records an op that took `raw_ms` and was preceded by a reference
    /// sample of `pre_us`; takes the matching sample after it. The op is
    /// normalised by the mean of the two, which brackets it in time.
    /// Returns the index of its sample.
    pub fn record(&mut self, raw_ms: f64, pre_us: f64, ref_reps: usize, traced: bool) -> usize {
        let post_us = self.host.sample(ref_reps);
        let ref_us = 0.5 * (pre_us + post_us);
        self.ops.push(OpSample {
            raw_ms,
            ref_us,
            scale: self.host.scale(ref_us),
            traced,
        });
        if self.ops.len() == RSS_AT_OPS {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
        self.ops.len() - 1
    }

    /// Records a failed output check; any mismatch fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("pulsebench: check failed: {msg}");
            self.mismatches.push(msg);
        }
    }

    /// Counts `attempted` units of work of which `failed` failed.
    pub fn account(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_owned(), value);
    }

    /// Starts op number `i` and returns whether it runs traced: in a
    /// traced run every other op does, so the untraced ones in between
    /// give the tracing overhead. The span log records traced ops only.
    pub fn start_op(&mut self, i: usize) -> bool {
        let traced = self.trace && i.is_multiple_of(2);
        self.spans.set_enabled(traced);
        traced
    }

    /// A fresh path under the scratch directory.
    pub fn scratch_file(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }

    /// The untraced ops' normalised times.
    fn untraced_norm(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| !o.traced)
            .map(OpSample::norm_ms)
            .collect()
    }

    fn end_to_end(&self) -> BTreeMap<String, f64> {
        let norm = self.untraced_norm();
        let total_s: f64 = norm.iter().sum::<f64>() / 1e3;
        let mut m = BTreeMap::new();
        m.insert("setup_s".to_owned(), median(&self.setups));
        m.insert(
            "op_p50_ms".to_owned(),
            percentile(&norm, 0.5).map_or(0.0, |p| p.0),
        );
        m.insert(
            "op_p90_ms".to_owned(),
            percentile(&norm, 0.9).map_or(0.0, |p| p.0),
        );
        m.insert("ops_per_s".to_owned(), norm.len() as f64 / total_s);
        m.insert(
            "peak_rss_mb".to_owned(),
            self.peak_rss_mb.unwrap_or_else(peak_rss_mb),
        );
        m.insert(
            "ok_ratio".to_owned(),
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
        m
    }

    /// Drift diagnostics every run records.
    fn host_diagnostics(&mut self) {
        let refs: Vec<f64> = self.ops.iter().map(|o| o.ref_us).collect();
        let raw: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| !o.traced)
            .map(|o| o.raw_ms)
            .collect();
        self.set("host.ref_us", median(&refs));
        self.set("host.ref_iqr_ratio", stats::iqr_ratio(&refs));
        self.set("host.raw_op_p50_ms", median(&raw));
        self.set(
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        self.set("attempted", self.attempted as f64);
        if self.trace {
            let traced: Vec<f64> = self
                .ops
                .iter()
                .filter(|o| o.traced)
                .map(OpSample::norm_ms)
                .collect();
            let untraced = median(&self.untraced_norm());
            if untraced > 0.0 {
                self.set("obs.trace_overhead", median(&traced) / untraced - 1.0);
            }
        }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The exact bits of a curve set, for bit-identity checks.
pub fn curve_bits(curves: &[CoverageCurve]) -> Vec<u64> {
    let mut bits = Vec::new();
    for c in curves {
        bits.push(c.factor.to_bits());
        bits.push(c.unresolved.to_bits());
        bits.extend(c.resistance.iter().map(|v| v.to_bits()));
        bits.extend(c.coverage.iter().map(|v| v.to_bits()));
    }
    bits
}

/// A per-input seed derived from the run seed (SplitMix64 finaliser), so
/// nearby run seeds give unrelated inputs.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the timed loop: calls `op(i)` for i = 0, 1, ... until `seconds`
/// have passed.
pub fn for_seconds(
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        op(i)?;
        i += 1;
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_owned())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
    })
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `key` list.
fn declared(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json has no `{key}` list"));
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_owned(), u.to_owned())),
                _ => Err(format!("BENCHMARK.json `{key}` entry without name/unit")),
            }
        })
        .collect()
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let doc =
        json::parse(&std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read BENCHMARK.json (run from the repository root): {e}")
        })?)?;
    let wanted = declared(
        &doc,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    )?;
    let all_layer = declared(&doc, "per_layer")?;

    type Workload = fn(&mut Bench) -> Result<(), String>;
    // The reference kernels of the ops and of the set-up: the campaign's
    // set-up is an analog calibration, its ops are logic and timing work.
    // The daemon runs each served study on every core (its protocol sets
    // no thread count), so serve's kernel runs on as many threads as a
    // served study keeps busy.
    let dense = RefKernel::new(host::Kind::Dense);
    let served = || RefKernel::parallel(host::Kind::Dense, serve::study_threads());
    let (run, host, setup_host): (Workload, RefKernel, RefKernel) = match args.workload.as_str() {
        "fig7_pulse" => (fig7::run, dense, RefKernel::new(host::Kind::Dense)),
        "fig6_df_adaptive" => (fig6::run, dense, RefKernel::new(host::Kind::Dense)),
        "serve_mix" => (serve::run, served(), served()),
        "campaign_c432" => (campaign::run, RefKernel::new(host::Kind::Branchy), dense),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let scratch = Path::new(SCRATCH).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create {scratch:?}: {e}"))?;
    let mut b = Bench {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host,
        setup_host,
        spans: SpanLog::new(args.trace),
        scratch: scratch.clone(),
        ops: Vec::new(),
        setups: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        layer: BTreeMap::new(),
        peak_rss_mb: None,
        untimed: Duration::ZERO,
    };
    let ran = run(&mut b);
    let _ = std::fs::remove_dir_all(&scratch);
    ran?;
    if b.ops.is_empty() {
        return Err("no op completed".to_owned());
    }
    b.host_diagnostics();
    if args.trace {
        let path = Path::new(SCRATCH).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        b.spans
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("pulsebench: spans written to {}", path.display());
    }
    for name in b.layer.keys() {
        if !all_layer.iter().any(|(n, _)| n == name) {
            return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
        }
    }

    let e2e = b.end_to_end();
    let values = if args.trace { &b.layer } else { &e2e };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let v = match values.get(name) {
            Some(&v) => v,
            // A layer the workload does not reach did no work there.
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure `{name}`")),
        };
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite: {v}"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        metrics.push_str(&format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::json_str(name),
            v,
            json::json_str(unit)
        ));
    }
    eprintln!(
        "pulsebench: {} ops; drift: host.ref_us={:.4} host.ref_iqr_ratio={:.4} \
         host.raw_op_p50_ms={:.4} normalised op_p50_ms={:.4}",
        b.ops.len(),
        b.layer["host.ref_us"],
        b.layer["host.ref_iqr_ratio"],
        b.layer["host.raw_op_p50_ms"],
        e2e["op_p50_ms"],
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        b.mismatches.is_empty(),
        b.attempted.max(1),
        b.failed
    ))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("pulsebench: error: {e}");
            std::process::exit(2);
        }
    }
}
