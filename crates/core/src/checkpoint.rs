//! Crash-consistent campaign checkpoints: per-sample completion records
//! in an append-only JSONL file, so an interrupted Monte Carlo run (or
//! site campaign) resumes by *skipping* the work it already paid for.
//!
//! ## Format
//!
//! Line 1 is the header; every further line is one completed sample:
//!
//! ```text
//! {"kind":"checkpoint","version":1,"config_digest":"<16 hex>","seed":"<16 hex>","samples":64,"payload":"vec-f64"}
//! {"kind":"sample-done","index":3,"seed":"<16 hex>","outcome":"ok","attempts":1,"value":[...]}
//! ```
//!
//! Design decisions, each load-bearing:
//!
//! * **Only resolved samples are recorded** (`ok` / `recovered`). Failed
//!   samples are deterministically re-run on resume — per-sample RNG
//!   streams depend only on `(seed, index)` — so the resumed report is
//!   bit-identical to an uninterrupted run without ever serializing an
//!   error value.
//! * **`f64` values are written as hex bit patterns** (`f64::to_bits`),
//!   never decimal: the round-trip is exact by construction, which the
//!   bit-identical-resume contract requires. Seeds and digests are hex
//!   strings for the same reason — they exceed the exact-integer range
//!   of the JSON number representation (`f64`).
//! * **A kill at any byte leaves a loadable prefix.** Records are
//!   appended as single `write` calls of one complete line; the loader
//!   decodes lines until the first undecodable one (the torn tail) and
//!   ignores the rest. A torn or missing *header* degrades to an empty
//!   checkpoint rather than an error — resuming then simply redoes all
//!   samples.
//! * **Resume compacts.** [`Checkpoint::resume`] rewrites the decodable
//!   prefix to a temporary file and atomically renames it over the
//!   original, so a previously torn tail never accumulates.
//!
//! A header that parses but disagrees with the expected
//! [`CheckpointSpec`] (different config digest, master seed, sample
//! count, or payload type) is a hard [`CoreError::Checkpoint`] — resuming
//! someone else's run would silently corrupt the statistics.

use crate::error::CoreError;
use pulsar_mc::SampleOutcome;
use pulsar_obs::json::{self, json_str, Json};
use pulsar_obs::sync::{AtomicBoolLike, AtomicFamily, StdAtomics};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// The memory orderings the checkpoint poisoning protocol ships with.
/// One value, shared by production ([`Checkpoint`]) and the
/// `pulsar-check` model, so the explorer checks exactly what runs.
#[derive(Debug, Clone, Copy)]
pub struct PoisonOrderings {
    /// Ordering of the store that poisons the flag on a write failure.
    pub poison: Ordering,
    /// Ordering of every `healthy()` load.
    pub check: Ordering,
}

/// Shipped orderings: everything `Relaxed`.
///
/// The flag is a single monotonic boolean (false → true, never back).
/// Writers set it while holding the file mutex, and the append gate in
/// [`Checkpoint::record`] re-checks it under the same mutex, so the
/// mutex provides the only ordering the protocol needs; the flag itself
/// needs atomicity alone. The final `healthy()` check runs after worker
/// joins, which also synchronize. The `pulsar-check` checkpoint model
/// explores this protocol (DESIGN.md §5.8, protocol model P3) and its
/// mutation self-test proves the explorer catches a post-poison append.
pub const POISON_ORDERINGS: PoisonOrderings = PoisonOrderings {
    poison: Ordering::Relaxed, // ordering: monotonic flag; mutex/join publish it
    check: Ordering::Relaxed,  // ordering: monotonic flag; mutex/join publish it
};

/// The checkpoint poisoning core: a sticky failure flag that downgrades
/// the durability promise instead of panicking mid-run. Generic over the
/// atomics family so `pulsar-check` can model-check the shipped protocol.
pub struct PoisonFlag<B: AtomicBoolLike> {
    failed: B,
}

impl<B: AtomicBoolLike> fmt::Debug for PoisonFlag<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoisonFlag")
            .field("failed", &self.failed)
            .finish()
    }
}

impl<B: AtomicBoolLike> Default for PoisonFlag<B> {
    fn default() -> Self {
        PoisonFlag::new()
    }
}

impl<B: AtomicBoolLike> PoisonFlag<B> {
    /// A fresh, healthy flag.
    pub fn new() -> Self {
        PoisonFlag {
            failed: B::new(false),
        }
    }

    /// Marks the protected resource failed. Sticky: there is no way back.
    pub fn poison(&self, ord: &PoisonOrderings) {
        self.failed.store(true, ord.poison);
    }

    /// True while no failure has been recorded.
    pub fn healthy(&self, ord: &PoisonOrderings) -> bool {
        !self.failed.load(ord.check)
    }
}

/// Checkpoint format version written in the header.
pub const CHECKPOINT_VERSION: u64 = 1;

/// What a checkpoint is *for*: the identity of the run it may resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// FNV-1a digest of the run configuration (see
    /// [`pulsar_obs::config_digest`]).
    pub config_digest: u64,
    /// The run's master seed (0 for seedless site campaigns).
    pub seed: u64,
    /// Total samples the run will execute.
    pub samples: usize,
}

/// A value that can ride in a checkpoint record. Implementations must
/// round-trip exactly — the resume-equivalence contract is bit-level.
pub trait CheckpointValue: Sized {
    /// Stable payload tag written in the header. A resume whose expected
    /// tag differs from the file's is rejected, so a `f64` checkpoint can
    /// never be decoded as a `Vec<f64>` one.
    const TAG: &'static str;
    /// Renders the value as a JSON fragment.
    fn encode_json(&self) -> String;
    /// Decodes a value from parsed JSON; `None` on shape mismatch.
    fn decode_json(v: &Json) -> Option<Self>;
}

/// Exact `f64` round-trip: the 64-bit pattern as a hex string.
pub fn encode_f64(v: f64) -> String {
    format!("\"{:016x}\"", v.to_bits())
}

/// Inverse of [`encode_f64`].
pub fn decode_f64(v: &Json) -> Option<f64> {
    let s = v.as_str()?;
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn decode_hex_u64(v: &Json) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

pub(crate) fn as_usize(v: &Json) -> Option<usize> {
    let n = v.as_num()?;
    // Counts in a checkpoint are small; anything outside the exact-f64
    // integer range is corruption.
    (n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(53)).then_some(n as usize)
}

impl CheckpointValue for f64 {
    const TAG: &'static str = "f64";
    fn encode_json(&self) -> String {
        encode_f64(*self)
    }
    fn decode_json(v: &Json) -> Option<Self> {
        decode_f64(v)
    }
}

impl CheckpointValue for Vec<f64> {
    const TAG: &'static str = "vec-f64";
    fn encode_json(&self) -> String {
        let mut out = String::with_capacity(2 + 19 * self.len());
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&encode_f64(*v));
        }
        out.push(']');
        out
    }
    fn decode_json(v: &Json) -> Option<Self> {
        match v {
            Json::Arr(items) => items.iter().map(decode_f64).collect(),
            _ => None,
        }
    }
}

/// An open checkpoint: the completed samples loaded at resume time plus
/// an append handle for recording new completions.
///
/// `record` is called from Monte Carlo worker threads at *sample*
/// granularity (never inside the solver step loop), so the internal mutex
/// is off the hot path by construction.
#[derive(Debug)]
pub struct Checkpoint<T> {
    path: PathBuf,
    spec: CheckpointSpec,
    prior: BTreeMap<usize, SampleOutcome<T, CoreError>>,
    file: Mutex<File>,
    write_failed: PoisonFlag<<StdAtomics as AtomicFamily>::Bool>,
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::Checkpoint {
        reason: format!("{what} {}: {e}", path.display()),
    }
}

fn header_line(spec: &CheckpointSpec, tag: &str) -> String {
    format!(
        "{{\"kind\":\"checkpoint\",\"version\":{CHECKPOINT_VERSION},\
         \"config_digest\":\"{:016x}\",\"seed\":\"{:016x}\",\
         \"samples\":{},\"payload\":{}}}\n",
        spec.config_digest,
        spec.seed,
        spec.samples,
        json_str(tag)
    )
}

fn record_line<T: CheckpointValue>(
    index: usize,
    stream_seed: u64,
    outcome: &str,
    attempts: u32,
    value: &T,
) -> String {
    let mut line = String::new();
    let _ = writeln!(
        line,
        "{{\"kind\":\"sample-done\",\"index\":{index},\"seed\":\"{stream_seed:016x}\",\
         \"outcome\":{},\"attempts\":{attempts},\"value\":{}}}",
        json_str(outcome),
        value.encode_json()
    );
    line
}

impl<T: CheckpointValue> Checkpoint<T> {
    /// Starts a fresh checkpoint at `path` (truncating any existing
    /// file) and writes the header.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on I/O failure.
    pub fn create(path: &Path, spec: CheckpointSpec) -> Result<Self, CoreError> {
        let mut file = File::create(path).map_err(|e| io_err("cannot create", path, &e))?;
        file.write_all(header_line(&spec, T::TAG).as_bytes())
            .map_err(|e| io_err("cannot write header to", path, &e))?;
        Ok(Checkpoint {
            path: path.to_owned(),
            spec,
            prior: BTreeMap::new(),
            file: Mutex::new(file),
            write_failed: PoisonFlag::new(),
        })
    }

    /// Resumes from an existing checkpoint at `path`: loads the decodable
    /// prefix, validates it against `spec`, compacts it (temporary file +
    /// atomic rename, so an old torn tail is dropped for good; skipped
    /// when the file is already compact), and reopens for appending.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] when the file cannot be read or
    /// rewritten, or when its header identifies a *different* run
    /// (digest, seed, sample count, or payload mismatch). A torn or
    /// absent header is not an error — it loads as zero completed
    /// samples.
    pub fn resume(path: &Path, spec: CheckpointSpec) -> Result<Self, CoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| io_err("cannot read", path, &e))?;
        let loaded = load_prefix::<T>(&text, &spec)?;

        // Compact: good header + surviving records, atomically swapped in
        // unless the file already holds exactly those bytes.
        let mut out = header_line(&spec, T::TAG);
        for (&index, (stream_seed, o)) in &loaded {
            let (outcome, attempts, value) = match o {
                SampleOutcome::Ok(v) => ("ok", 1, v),
                SampleOutcome::Recovered { value, attempts } => ("recovered", *attempts, value),
                SampleOutcome::Failed { .. } => unreachable!("failed samples are never loaded"),
            };
            out.push_str(&record_line(index, *stream_seed, outcome, attempts, value));
        }
        if out != text {
            let tmp = path.with_extension("ckpt.tmp");
            std::fs::write(&tmp, &out).map_err(|e| io_err("cannot write", &tmp, &e))?;
            std::fs::rename(&tmp, path).map_err(|e| io_err("cannot rename over", path, &e))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err("cannot reopen", path, &e))?;
        Ok(Checkpoint {
            path: path.to_owned(),
            spec,
            prior: loaded.into_iter().map(|(i, (_, o))| (i, o)).collect(),
            file: Mutex::new(file),
            write_failed: PoisonFlag::new(),
        })
    }

    /// Opens `path` for this run: [`Checkpoint::resume`] when the file
    /// exists, [`Checkpoint::create`] otherwise — the CLI's `--checkpoint`
    /// semantics.
    ///
    /// # Errors
    ///
    /// As for [`Checkpoint::create`] / [`Checkpoint::resume`].
    pub fn open(path: &Path, spec: CheckpointSpec) -> Result<Self, CoreError> {
        if path.exists() {
            Self::resume(path, spec)
        } else {
            Self::create(path, spec)
        }
    }

    /// The completed samples restored at resume time (empty for a fresh
    /// checkpoint), keyed by sample index. Only `Ok` / `Recovered`
    /// outcomes appear.
    pub fn prior(&self) -> &BTreeMap<usize, SampleOutcome<T, CoreError>> {
        &self.prior
    }

    /// Number of samples restored at resume time.
    pub fn resumed_count(&self) -> usize {
        self.prior.len()
    }

    /// The file backing this checkpoint.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Checks that this checkpoint was opened for the run `want`
    /// identifies — the guard a study runs before it restores a record,
    /// so a checkpoint of another experiment (or of the same sweep with
    /// another row layout) is refused instead of folded.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] when the specs differ.
    pub fn expect_spec(&self, want: &CheckpointSpec) -> Result<(), CoreError> {
        if self.spec == *want {
            Ok(())
        } else {
            Err(CoreError::Checkpoint {
                reason: format!(
                    "{} was opened for another run (spec {:?}, this run expects {:?})",
                    self.path.display(),
                    self.spec,
                    want
                ),
            })
        }
    }

    /// Appends one completion record. Failed outcomes are ignored — they
    /// re-run on resume. Called from worker threads; a write error poisons
    /// the checkpoint ([`Checkpoint::healthy`]) instead of panicking
    /// mid-run.
    pub fn record(&self, index: usize, stream_seed: u64, outcome: &SampleOutcome<T, CoreError>) {
        let (kind, attempts, value) = match outcome {
            SampleOutcome::Ok(v) => ("ok", 1, v),
            SampleOutcome::Recovered { value, attempts } => ("recovered", *attempts, value),
            SampleOutcome::Failed { .. } => return,
        };
        let line = record_line(index, stream_seed, kind, attempts, value);
        let mut file = match self.file.lock() {
            Ok(f) => f,
            Err(_) => {
                self.write_failed.poison(&POISON_ORDERINGS);
                return;
            }
        };
        // Once poisoned, no further append may land: a failed write can
        // leave a half-line on disk, and anything appended after it would
        // concatenate into an undecodable line, turning "valid but
        // incomplete prefix" into a prefix truncated at the failure. The
        // gate is re-checked *under* the file mutex so a poison landed by
        // another worker is always observed before this append.
        if !self.write_failed.healthy(&POISON_ORDERINGS) {
            return;
        }
        // One write call per complete line: a kill between records never
        // tears, and a kill mid-record tears only the trailing line.
        if file.write_all(line.as_bytes()).is_err() || file.flush().is_err() {
            self.write_failed.poison(&POISON_ORDERINGS);
        }
    }

    /// False when any record append failed — the file on disk is then a
    /// valid but *incomplete* checkpoint, and the run should surface the
    /// condition instead of promising durability it no longer has.
    pub fn healthy(&self) -> bool {
        self.write_failed.healthy(&POISON_ORDERINGS)
    }

    /// Typed form of [`Checkpoint::healthy`]: the [`CoreError::Checkpoint`]
    /// a durable run must surface when the checkpoint was poisoned
    /// mid-run. Called by the study/campaign finalizers.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] when a record append failed.
    pub fn ensure_healthy(&self) -> Result<(), CoreError> {
        if self.healthy() {
            Ok(())
        } else {
            Err(CoreError::Checkpoint {
                reason: format!("checkpoint write failed mid-run: {}", self.path.display()),
            })
        }
    }
}

/// Decodes the loadable prefix of a checkpoint file: header (validated
/// against `spec` when intact) followed by completion records — each with
/// its recorded stream seed — up to the first undecodable line.
#[allow(clippy::type_complexity)]
fn load_prefix<T: CheckpointValue>(
    text: &str,
    spec: &CheckpointSpec,
) -> Result<BTreeMap<usize, (u64, SampleOutcome<T, CoreError>)>, CoreError> {
    let mut lines = text.lines();
    let Some(first) = lines.next() else {
        return Ok(BTreeMap::new()); // empty file: killed before the header
    };
    let Ok(header) = json::parse(first) else {
        return Ok(BTreeMap::new()); // torn header: nothing trustworthy yet
    };
    if header.get("kind").and_then(Json::as_str) != Some("checkpoint") {
        return Err(CoreError::Checkpoint {
            reason: "first line is not a checkpoint header".to_owned(),
        });
    }
    let mismatch = |what: &str, found: String, expected: String| CoreError::Checkpoint {
        reason: format!("{what} mismatch: checkpoint has {found}, this run expects {expected}"),
    };
    let version = header.get("version").and_then(Json::as_num);
    if version != Some(CHECKPOINT_VERSION as f64) {
        return Err(mismatch(
            "version",
            format!("{version:?}"),
            CHECKPOINT_VERSION.to_string(),
        ));
    }
    let digest = header.get("config_digest").and_then(decode_hex_u64);
    if digest != Some(spec.config_digest) {
        return Err(mismatch(
            "config digest",
            digest.map_or("none".to_owned(), |d| format!("{d:016x}")),
            format!("{:016x}", spec.config_digest),
        ));
    }
    let seed = header.get("seed").and_then(decode_hex_u64);
    if seed != Some(spec.seed) {
        return Err(mismatch(
            "seed",
            seed.map_or("none".to_owned(), |s| format!("{s:016x}")),
            format!("{:016x}", spec.seed),
        ));
    }
    let samples = header.get("samples").and_then(as_usize);
    if samples != Some(spec.samples) {
        return Err(mismatch(
            "sample count",
            format!("{samples:?}"),
            spec.samples.to_string(),
        ));
    }
    let payload = header.get("payload").and_then(Json::as_str);
    if payload != Some(T::TAG) {
        return Err(mismatch(
            "payload type",
            format!("{payload:?}"),
            T::TAG.to_owned(),
        ));
    }

    let mut prior = BTreeMap::new();
    for line in lines {
        let Some((index, seed, outcome)) = decode_record::<T>(line, spec.samples) else {
            break; // torn tail: everything before it is the usable prefix
        };
        // First record wins on a duplicate index (can only arise from a
        // hand-edited file; the writer emits each index at most once).
        prior.entry(index).or_insert((seed, outcome));
    }
    Ok(prior)
}

fn decode_record<T: CheckpointValue>(
    line: &str,
    samples: usize,
) -> Option<(usize, u64, SampleOutcome<T, CoreError>)> {
    let doc = json::parse(line).ok()?;
    if doc.get("kind").and_then(Json::as_str) != Some("sample-done") {
        return None;
    }
    let index = doc.get("index").and_then(as_usize)?;
    if index >= samples {
        return None;
    }
    let seed = doc.get("seed").and_then(decode_hex_u64)?;
    let attempts = doc.get("attempts").and_then(as_usize)? as u32;
    let value = T::decode_json(doc.get("value")?)?;
    let outcome = match doc.get("outcome").and_then(Json::as_str)? {
        "ok" => SampleOutcome::Ok(value),
        "recovered" if attempts >= 2 => SampleOutcome::Recovered { value, attempts },
        _ => return None,
    };
    Some((index, seed, outcome))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn spec() -> CheckpointSpec {
        CheckpointSpec {
            config_digest: 0xDEAD_BEEF_0BAD_F00D,
            seed: 42,
            samples: 8,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pulsar-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for v in [0.0, -0.0, 1.5e-300, f64::MIN_POSITIVE, 1.0 / 3.0, -7.25] {
            let enc = v.encode_json();
            let back = f64::decode_json(&json::parse(&enc).unwrap()).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v:e}");
        }
        let row = vec![1.0 / 3.0, 2.0 / 7.0, f64::MAX];
        let back = Vec::<f64>::decode_json(&json::parse(&row.encode_json()).unwrap()).unwrap();
        assert_eq!(row, back);
    }

    #[test]
    fn create_record_resume_round_trip() {
        let path = tmp("round-trip");
        let ck = Checkpoint::<f64>::create(&path, spec()).unwrap();
        ck.record(0, 111, &SampleOutcome::Ok(0.5));
        ck.record(
            3,
            333,
            &SampleOutcome::Recovered {
                value: 1.0 / 3.0,
                attempts: 2,
            },
        );
        ck.record(
            5,
            555,
            &SampleOutcome::Failed {
                error: CoreError::Unsupported { what: "x" },
                attempts: 3,
            },
        );
        assert!(ck.healthy());
        drop(ck);

        let resumed = Checkpoint::<f64>::resume(&path, spec()).unwrap();
        assert_eq!(resumed.resumed_count(), 2, "failed samples are not kept");
        assert_eq!(resumed.prior()[&0], SampleOutcome::Ok(0.5));
        assert_eq!(
            resumed.prior()[&3],
            SampleOutcome::Recovered {
                value: 1.0 / 3.0,
                attempts: 2
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored_and_compacted_away() {
        let path = tmp("torn-tail");
        let ck = Checkpoint::<f64>::create(&path, spec()).unwrap();
        ck.record(0, 1, &SampleOutcome::Ok(2.5));
        ck.record(1, 2, &SampleOutcome::Ok(3.5));
        drop(ck);
        // Simulate a kill mid-record: append half a line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"sample-done\",\"index\":2,\"se");
        std::fs::write(&path, &text).unwrap();

        let resumed = Checkpoint::<f64>::resume(&path, spec()).unwrap();
        assert_eq!(resumed.resumed_count(), 2);
        drop(resumed);
        // Compaction dropped the torn bytes.
        let clean = std::fs::read_to_string(&path).unwrap();
        assert!(clean.ends_with('\n'));
        assert_eq!(clean.lines().count(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_byte_prefix_is_loadable() {
        let path = tmp("prefix");
        let ck = Checkpoint::<Vec<f64>>::create(
            &path,
            CheckpointSpec {
                samples: 4,
                ..spec()
            },
        )
        .unwrap();
        for i in 0..4usize {
            ck.record(i, i as u64, &SampleOutcome::Ok(vec![i as f64, 0.5]));
        }
        drop(ck);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let resumed = Checkpoint::<Vec<f64>>::resume(
                &path,
                CheckpointSpec {
                    samples: 4,
                    ..spec()
                },
            )
            .unwrap();
            // Loaded records are always a prefix-consistent subset with
            // exact values.
            for (&i, o) in resumed.prior() {
                assert_eq!(o.value().unwrap(), &vec![i as f64, 0.5]);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_spec_is_rejected() {
        let path = tmp("mismatch");
        let ck = Checkpoint::<f64>::create(&path, spec()).unwrap();
        ck.record(0, 1, &SampleOutcome::Ok(1.0));
        drop(ck);
        let wrong_digest = CheckpointSpec {
            config_digest: 1,
            ..spec()
        };
        let e = Checkpoint::<f64>::resume(&path, wrong_digest).unwrap_err();
        assert!(e.to_string().contains("config digest"), "{e}");
        let wrong_seed = CheckpointSpec { seed: 7, ..spec() };
        assert!(Checkpoint::<f64>::resume(&path, wrong_seed).is_err());
        let wrong_n = CheckpointSpec {
            samples: 9,
            ..spec()
        };
        assert!(Checkpoint::<f64>::resume(&path, wrong_n).is_err());
        // Wrong payload type.
        assert!(Checkpoint::<Vec<f64>>::resume(&path, spec()).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Regression: a write failure mid-append poisons the checkpoint —
    /// `healthy()` flips, `ensure_healthy()` is the typed
    /// [`CoreError::Checkpoint`], and the on-disk prefix written before
    /// the failure still resumes. (The `pulsar-check` checkpoint model
    /// explores the concurrent version of this protocol.)
    #[test]
    fn write_failure_poisons_and_prefix_still_resumes() {
        let path = tmp("poison");
        let ck = Checkpoint::<f64>::create(&path, spec()).unwrap();
        ck.record(0, 1, &SampleOutcome::Ok(0.5));
        drop(ck);

        // Reopen the same file through a read-only handle: the next
        // append's write fails, modeling a mid-run I/O error.
        let ro = OpenOptions::new().read(true).open(&path).unwrap();
        let ck = Checkpoint::<f64> {
            path: path.clone(),
            spec: spec(),
            prior: BTreeMap::new(),
            file: Mutex::new(ro),
            write_failed: PoisonFlag::new(),
        };
        assert!(ck.healthy());
        ck.record(1, 2, &SampleOutcome::Ok(1.5));
        assert!(!ck.healthy(), "failed append did not poison");
        let e = ck.ensure_healthy().unwrap_err();
        assert!(matches!(e, CoreError::Checkpoint { .. }), "{e:?}");
        assert!(
            e.to_string().contains("checkpoint write failed mid-run"),
            "{e}"
        );
        drop(ck);

        // The prefix appended before the failure is still a valid
        // checkpoint: the run resumes from it.
        let resumed = Checkpoint::<f64>::resume(&path, spec()).unwrap();
        assert_eq!(resumed.resumed_count(), 1);
        assert_eq!(resumed.prior()[&0], SampleOutcome::Ok(0.5));
        std::fs::remove_file(&path).ok();
    }

    /// Regression: once poisoned, the append gate blocks even writes
    /// that *would* succeed — nothing may land behind a possibly-torn
    /// tail.
    #[test]
    fn poison_gate_blocks_healthy_appends() {
        let path = tmp("poison-gate");
        let ck = Checkpoint::<f64>::create(&path, spec()).unwrap();
        ck.record(0, 1, &SampleOutcome::Ok(0.5));
        let before = std::fs::read_to_string(&path).unwrap();
        ck.write_failed.poison(&POISON_ORDERINGS);
        ck.record(1, 2, &SampleOutcome::Ok(1.5)); // file handle is fine
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(before, after, "append landed after poison");
        std::fs::remove_file(&path).ok();
    }

    /// A SIGINT (or any kill) inside `resume`'s compaction window must
    /// leave a loadable checkpoint in *every* intermediate state: the
    /// compaction writes a temporary file first and atomically renames
    /// it over the original, so either the old file or the new file is
    /// intact — never a torn mix.
    #[test]
    fn kill_during_compaction_leaves_old_or_new_intact() {
        let path = tmp("compaction-kill");
        let tmp_path = path.with_extension("ckpt.tmp");
        let ck = Checkpoint::<f64>::create(&path, spec()).unwrap();
        ck.record(0, 1, &SampleOutcome::Ok(0.5));
        ck.record(1, 2, &SampleOutcome::Ok(1.5));
        drop(ck);
        let original = std::fs::read(&path).unwrap();
        let compacted = {
            // One clean resume to learn what the compacted file holds.
            drop(Checkpoint::<f64>::resume(&path, spec()).unwrap());
            std::fs::read(&path).unwrap()
        };

        // State A: killed before the rename — the original is intact
        // and a stale (even torn) tmp file is lying around.
        for torn_tmp in [&b"{\"kind\":\"checkp"[..], &compacted[..]] {
            std::fs::write(&path, &original).unwrap();
            std::fs::write(&tmp_path, torn_tmp).unwrap();
            let resumed = Checkpoint::<f64>::resume(&path, spec()).unwrap();
            assert_eq!(resumed.resumed_count(), 2, "stale tmp corrupted resume");
            assert_eq!(resumed.prior()[&0], SampleOutcome::Ok(0.5));
            assert_eq!(resumed.prior()[&1], SampleOutcome::Ok(1.5));
        }

        // State B: killed after the rename — the new file is the
        // checkpoint; no tmp remains.
        std::fs::write(&path, &compacted).unwrap();
        std::fs::remove_file(&tmp_path).ok();
        let resumed = Checkpoint::<f64>::resume(&path, spec()).unwrap();
        assert_eq!(resumed.resumed_count(), 2);

        // In both states, a half-written *record* tail (the only kind a
        // single-line append can tear) still loads as a prefix.
        let mut torn = original.clone();
        torn.truncate(original.len() - 7);
        std::fs::write(&path, &torn).unwrap();
        let resumed = Checkpoint::<f64>::resume(&path, spec()).unwrap();
        assert_eq!(
            resumed.resumed_count(),
            1,
            "torn tail should drop last record"
        );
        assert_eq!(resumed.prior()[&0], SampleOutcome::Ok(0.5));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp_path).ok();
    }

    #[test]
    fn open_creates_then_resumes() {
        let path = tmp("open");
        std::fs::remove_file(&path).ok();
        let ck = Checkpoint::<f64>::open(&path, spec()).unwrap();
        assert_eq!(ck.resumed_count(), 0);
        ck.record(2, 22, &SampleOutcome::Ok(4.0));
        drop(ck);
        let again = Checkpoint::<f64>::open(&path, spec()).unwrap();
        assert_eq!(again.resumed_count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
