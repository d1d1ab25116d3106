#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never ad-hoc unwraps; #[cfg(test)] modules opt back in.
#![warn(clippy::unwrap_used)]

//! # pulsar-cli
//!
//! Command-line front end for the pulsar toolchain. One binary,
//! seven subcommands:
//!
//! ```text
//! pulsar sim <deck.sp> [--nodes a,b] [--vcd out.vcd] [--csv out.csv] [--no-lint]
//! pulsar lint <deck.sp>... [--json] [--deny-warnings]
//! pulsar testgen <netlist.bench> [--site NAME] [--max-paths N]
//! pulsar campaign <netlist.bench> [--stride N]
//! pulsar faultsim <netlist.bench> [--tau SECONDS]
//! pulsar study <df|pulse> [--samples N] [--adaptive] [--precision EPS]
//! pulsar serve <socket> [daemon flags | one client operation]
//! ```
//!
//! `sim` drives the SPICE-flavoured deck parser and transient engine and
//! exports waveforms; `lint` runs the static verification pass from
//! `pulsar-lint` without solving anything; the netlist commands parse
//! ISCAS-85 text and run the pulse-test generation / campaign /
//! fault-simulation flows; `study` runs the paper's Monte Carlo coverage
//! experiments on the built-in 7-gate path, with `--adaptive` switching
//! the fixed per-point budget to the early-stopping engine; `serve`
//! runs the same studies and campaigns as a long-lived daemon behind a
//! JSONL-over-Unix-socket protocol with cross-job caches (see
//! `pulsar-serve`). The command
//! implementations are a library (this crate) so they are testable
//! without spawning processes; `main.rs` is a thin shim.

use std::fmt::Write as _;
use std::fs;
use std::time::{Duration, Instant, SystemTime};

use pulsar_analog::{
    parse_deck, to_csv, to_vcd, NodeId, Recorder, SolverWorkspace, TraceCapture, TranConfig,
};
use pulsar_core::{
    all_branch_faults, campaign_digest_repr, fault_simulate, plan_for_site, AdaptivePolicy,
    AdaptiveReport, CalibratedStudy, Campaign, Checkpoint, CoverageCurve, McConfig, Plan,
    PulsePattern, ResilienceConfig, SiteOutcome, StudyKind, StudyRequest, TestgenConfig,
};
use pulsar_logic::parse_iscas85;
use pulsar_obs::{
    config_digest, render_journal, CancelReason, CancelToken, Counter as ObsCounter, Event,
    RunManifest,
};
use pulsar_serve::{
    Client as ServeClient, Daemon as ServeDaemon, JobOutcome, JobSpec, ServeConfig,
};
use pulsar_timing::TimingLibrary;

/// CLI-level error: a message ready for stderr plus an error kind, the
/// source chain that produced it, and a process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested process exit code.
    pub code: i32,
    /// Stable error-kind label: `"usage"`, `"runtime"`, or
    /// `"interrupted"`.
    pub kind: &'static str,
    /// Underlying causes, outermost first (empty when the message says
    /// it all).
    pub chain: Vec<String>,
    /// Partial stdout to print *before* the error — an interrupted
    /// campaign's honest partial report. `None` for ordinary failures.
    pub partial: Option<String>,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
            kind: "usage",
            chain: Vec::new(),
            partial: None,
        }
    }

    fn run(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 1,
            kind: "runtime",
            chain: Vec::new(),
            partial: None,
        }
    }

    /// An operator interrupt (SIGINT): exit 130 = 128 + SIGINT, the shell
    /// convention. The partial report still reaches stdout; `message`
    /// tells the operator how to resume.
    fn interrupted(msg: impl Into<String>, partial: String) -> CliError {
        CliError {
            message: msg.into(),
            code: 130,
            kind: "interrupted",
            chain: Vec::new(),
            partial: Some(partial),
        }
    }

    /// A runtime error wrapping `e`: the message is `context: e` and the
    /// chain collects `e`'s `source()` ancestry.
    fn run_err(context: &str, e: &dyn std::error::Error) -> CliError {
        let mut chain = Vec::new();
        let mut cause = e.source();
        while let Some(c) = cause {
            chain.push(c.to_string());
            cause = c.source();
        }
        CliError {
            message: format!("{context}: {e}"),
            code: 1,
            kind: "runtime",
            chain,
            partial: None,
        }
    }

    /// The structured stderr rendering used by the `pulsar` binary for
    /// every diagnostic — lint, sim, and campaign failures all route
    /// through here:
    ///
    /// ```text
    /// pulsar: error[runtime]: transient: no convergence at t=1e-9
    ///   caused by: ...
    /// exit code 1 (0 = success, 1 = runtime failure, 2 = usage error)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "pulsar: error[{}]: {}", self.kind, self.message);
        if !out.ends_with('\n') {
            out.push('\n');
        }
        for cause in &self.chain {
            let _ = writeln!(out, "  caused by: {cause}");
        }
        let _ = write!(
            out,
            "exit code {} (0 = success, 1 = runtime failure, 2 = usage error, 130 = interrupted)",
            self.code
        );
        out
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Top-level usage text.
pub const USAGE: &str = "\
pulsar — pulse-propagation testing toolchain

USAGE:
  pulsar sim <deck.sp> [--nodes a,b] [--vcd FILE] [--csv FILE] [--no-lint] [--stats]
             [--trace-out FILE] [--metrics FILE]
  pulsar lint <deck.sp>... [--json] [--deny-warnings]
  pulsar testgen <netlist.bench> [--site NAME] [--max-paths N]
  pulsar campaign <netlist.bench> [--stride N] [--trace-out FILE] [--metrics FILE]
                  [--checkpoint FILE] [--resume FILE] [--deadline SECONDS]
                  [--contain-panics]
  pulsar faultsim <netlist.bench> [--tau SECONDS]
  pulsar study <df|pulse> [--samples N] [--seed S] [--r LIST] [--factors LIST]
               [--adaptive] [--precision EPS] [--max-samples N]
               [--trace-out FILE] [--metrics FILE]
  pulsar serve <socket> [--workers N] [--queue-depth N] [--spool DIR]
               [--tenant-budget N] [--metrics FILE]
  pulsar serve <socket> --submit <df|pulse|campaign> [--samples N] [--seed S]
               [--r LIST] [--factors LIST] [--netlist FILE] [--stride N]
               [--tenant NAME] [--deadline SECONDS] [--failure-budget F]
  pulsar serve <socket> --run <df|pulse|campaign> [same flags as --submit]
  pulsar serve <socket> <--wait JOB | --status JOB | --cancel JOB |
               --stream JOB | --stats | --shutdown>

  --trace-out FILE   write the structured JSONL event journal of the run
  --metrics FILE     write the run manifest (config digest, wall clock,
                     metric snapshot) as JSON
  --adaptive         early-stopping Monte Carlo: stop each grid point once
                     its coverage CI half-width meets --precision, then
                     refine crossover points with the saved budget
  --precision EPS    requested CI half-width for --adaptive (default 0.15)
  --max-samples N    per-point first-pass budget for --adaptive
                     (default: --samples)
  --checkpoint FILE  append per-site completion records to FILE; an
                     existing compatible checkpoint is resumed
  --resume FILE      like --checkpoint, but FILE must already exist
  --deadline SECONDS stop the campaign after a wall-clock budget and
                     report the honest partial result (exit 0)
  --contain-panics   turn a panicking worker into a failed site instead
                     of aborting the whole campaign

serve flags (daemon mode — no client operation given):
  --workers N        sharded worker pool size (default 2)
  --queue-depth N    bounded job queue depth; a full queue rejects new
                     submissions with a typed `busy` error (default 8)
  --spool DIR        checkpoint spool; drained and resumed jobs restart
                     bit-identically from here after a daemon restart
  --tenant-budget N  per-tenant failed-job budget; an over-budget tenant
                     gets typed `tenant-budget` rejections
serve flags (client operations):
  --submit KIND      enqueue a df/pulse study or campaign job, print its
                     id and config digest, return immediately
  --run KIND         submit, wait for the result, print it (exit 1 if
                     the job fails)
  --tenant NAME      attribute the job to a tenant for budget accounting
  --deadline SECONDS per-job wall-clock deadline
  --failure-budget F a study job's tolerated sample-failure fraction
                     (0..=1); a campaign records failed sites instead
  --wait/--status/--cancel/--stream JOB
                     block on / report / cancel / follow the journal of
                     a job by id; --stats and --shutdown take no value

Each flag may be given once; a repeated flag is a usage error.

Exit codes: 0 = success, 1 = runtime failure, 2 = usage error,
130 = interrupted (SIGINT; checkpointed work is resumable with --resume,
an interrupted study prints the curves of the samples done, and an
interrupted serve daemon resumes drained jobs from its --spool).
Typed serve rejections (busy, tenant-budget, shutdown) exit 1.
";

/// Dispatches a full argument vector (without the program name). Returns
/// the text to print on stdout. Long-running commands observe a fresh
/// (never-tripped) cancellation token; use [`dispatch_with_cancel`] to
/// wire a real interrupt source.
///
/// # Errors
///
/// [`CliError`] with a usage (exit 2) or runtime (exit 1) failure.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    dispatch_with_cancel(args, &CancelToken::new())
}

/// [`dispatch`] with an explicit run-cancellation token, tripped by the
/// binary's SIGINT handler (see [`interrupt::install`]). An interrupted
/// run flushes its `--trace-out` / `--metrics` outputs and any
/// checkpoint, then fails with exit code 130 while still carrying the
/// partial report in [`CliError::partial`].
///
/// # Errors
///
/// As for [`dispatch`], plus the interrupted (exit 130) failure.
pub fn dispatch_with_cancel(args: &[String], token: &CancelToken) -> Result<String, CliError> {
    if let Some(flag) = repeated_flag(args) {
        return Err(CliError::usage(format!(
            "{flag} is given more than once (each flag is read once)"
        )));
    }
    match args.first().map(String::as_str) {
        Some("sim") => cmd_sim(&args[1..], token),
        Some("lint") => cmd_lint(&args[1..]),
        Some("testgen") => cmd_testgen(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..], token),
        Some("faultsim") => cmd_faultsim(&args[1..]),
        Some("study") => cmd_study(&args[1..], token),
        Some("serve") => cmd_serve(&args[1..], token),
        Some("--help" | "-h" | "help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(CliError::usage(format!(
            "unknown subcommand `{other}`\n\n{USAGE}"
        ))),
    }
}

/// SIGINT wiring for the `pulsar` binary.
///
/// The raw handler does the only async-signal-safe thing — one relaxed
/// atomic store — and a bridge thread turns the flag into a
/// [`CancelToken`] trip, which the solver step loops observe
/// cooperatively. A second Ctrl-C therefore still reaches the default
/// disposition path only after the run has flushed its checkpoint.
pub mod interrupt {
    use pulsar_obs::{CancelReason, CancelToken};
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        // ordering: Relaxed is enough — the flag is a monotonic bool
        // polled by the bridge thread; no other data is published
        // through it (the CancelToken trip does its own Release).
        INTERRUPTED.store(true, Ordering::Relaxed);
    }

    /// Installs the SIGINT handler and returns the token it trips
    /// (with [`CancelReason::User`]). Call once, from `main`, before
    /// dispatching; the bridge thread is detached and dies with the
    /// process.
    pub fn install() -> CancelToken {
        let token = CancelToken::new();
        // SAFETY: `signal(2)` with a handler that only performs an
        // atomic store is async-signal-safe; no Rust state is touched
        // inside the handler.
        unsafe {
            signal(SIGINT, on_sigint);
        }
        let bridge = token.clone();
        // spawn: intentionally detached — the bridge polls a
        // process-global flag and dies with the process; there is no
        // earlier point at which joining it would be meaningful.
        std::thread::spawn(move || loop {
            // ordering: Relaxed — see `on_sigint`; monotonic flag only.
            if INTERRUPTED.load(Ordering::Relaxed) {
                bridge.cancel(CancelReason::User);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
        token
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// What a flag value must be, and how it parses. A value outside the
/// domain is a usage error, never a silent default or a panic further
/// on.
struct Domain<T> {
    what: &'static str,
    parse: fn(&str) -> Option<T>,
}

const COUNT: Domain<usize> = Domain {
    what: "a count",
    parse: |v| v.parse().ok(),
};

/// A count that must be at least one: a sample count, a stride or a pool
/// size.
const POSITIVE: Domain<usize> = Domain {
    what: "a count >= 1",
    parse: |v| v.parse().ok().filter(|&c| c >= 1),
};

const INTEGER: Domain<u64> = Domain {
    what: "a non-negative integer",
    parse: |v| v.parse().ok(),
};

const NUMBER: Domain<f64> = Domain {
    what: "a number",
    parse: |v| v.parse().ok(),
};

const NUMBERS: Domain<Vec<f64>> = Domain {
    what: "a comma-separated list of numbers",
    parse: |v| v.split(',').map(|x| x.trim().parse().ok()).collect(),
};

/// A wall-clock budget. The bound keeps it a [`Duration`] and, in
/// milliseconds, an integer the wire protocol carries exactly (< 2^53).
const SECONDS: Domain<f64> = Domain {
    what: "a number of seconds in [0, 9e12]",
    parse: |v| v.parse().ok().filter(|s| (0.0..=9e12).contains(s)),
};

/// A time constant: finite and > 0.
const TAU: Domain<f64> = Domain {
    what: "a finite number of seconds > 0",
    parse: |v| v.parse().ok().filter(|t: &f64| t.is_finite() && *t > 0.0),
};

const FRACTION: Domain<f64> = Domain {
    what: "a fraction in [0, 1]",
    parse: |v| v.parse().ok().filter(|f| (0.0..=1.0).contains(f)),
};

/// Flag `name` of command `cmd` in `domain`: `None` when the flag is
/// absent, a usage error naming the command, the flag and the domain when
/// it has no value or one outside the domain.
fn flag<T>(
    args: &[String],
    cmd: &str,
    name: &str,
    domain: Domain<T>,
) -> Result<Option<T>, CliError> {
    if !has_flag(args, name) {
        return Ok(None);
    }
    let v = flag_value(args, name)
        .ok_or_else(|| CliError::usage(format!("{cmd}: {name} needs a value")))?;
    let bad = || CliError::usage(format!("{cmd}: {name} `{v}` is not {}", domain.what));
    (domain.parse)(v).map(Some).ok_or_else(bad)
}

/// The study flags `pulsar study` and `pulsar serve --submit/--run`
/// share, over the study defaults.
fn study_request(args: &[String], cmd: &str, kind: StudyKind) -> Result<StudyRequest, CliError> {
    let mut req = StudyRequest::new(kind);
    req.samples = flag(args, cmd, "--samples", POSITIVE)?.unwrap_or(req.samples);
    req.seed = flag(args, cmd, "--seed", INTEGER)?.unwrap_or(req.seed);
    req.rs = flag(args, cmd, "--r", NUMBERS)?.unwrap_or(req.rs);
    req.factors = flag(args, cmd, "--factors", NUMBERS)?.unwrap_or(req.factors);
    Ok(req)
}

/// Flags that do not consume a value; everything else starting with
/// `--` is assumed to take the following token as its value.
const BOOL_FLAGS: &[&str] = &[
    "--json",
    "--deny-warnings",
    "--no-lint",
    "--stats",
    "--contain-panics",
    "--adaptive",
    "--shutdown",
];

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The tokens of `args` that are not flag values, each with whether it
/// is a flag.
fn tokens(args: &[String]) -> impl Iterator<Item = (bool, &str)> {
    let mut skip = false;
    args.iter().filter_map(move |a| {
        if std::mem::take(&mut skip) {
            return None;
        }
        let flag = a.starts_with("--");
        skip = flag && !BOOL_FLAGS.contains(&a.as_str());
        Some((flag, a.as_str()))
    })
}

fn positionals(args: &[String]) -> Vec<&str> {
    // Tokens that are neither flags nor flag values.
    tokens(args)
        .filter_map(|(flag, a)| (!flag).then_some(a))
        .collect()
}

/// The first flag given twice. [`flag_value`] reads only the first of a
/// repeated flag, so a repeat is refused instead of silently dropped.
fn repeated_flag(args: &[String]) -> Option<&str> {
    let flags: Vec<&str> = tokens(args)
        .filter_map(|(flag, a)| flag.then_some(a))
        .collect();
    flags
        .iter()
        .enumerate()
        .find(|&(i, f)| flags[..i].contains(f))
        .map(|(_, f)| *f)
}

fn positional(args: &[String]) -> Option<&str> {
    positionals(args).first().copied()
}

fn read(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::run(format!("cannot read `{path}`: {e}")))
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Completes a manifest with the run's clock fields and final journal /
/// metric state, writes it, and appends a "wrote" line to `out`.
fn write_manifest(
    mut manifest: RunManifest,
    rec: &Recorder,
    started_unix_ms: u64,
    t0: Instant,
    path: &str,
    out: &mut String,
) -> Result<(), CliError> {
    manifest.started_unix_ms = started_unix_ms;
    manifest.wall_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    manifest.events = rec.event_count();
    manifest.metrics = rec.snapshot();
    let mut doc = manifest.render_json();
    doc.push('\n');
    fs::write(path, doc).map_err(|e| CliError::run(format!("write {path}: {e}")))?;
    let _ = writeln!(out, "wrote {path}");
    Ok(())
}

/// Writes the recorder's journal as JSONL and appends a "wrote" line.
fn write_journal(rec: &Recorder, path: &str, out: &mut String) -> Result<(), CliError> {
    let events = rec.events();
    fs::write(path, render_journal(&events))
        .map_err(|e| CliError::run(format!("write {path}: {e}")))?;
    let _ = writeln!(out, "wrote {path} ({} events)", events.len());
    Ok(())
}

/// `pulsar sim`: lint a deck, run its `.tran`, export waveforms.
///
/// The static lint pass runs before any transient: error-severity
/// findings abort the run (bypass with `--no-lint`); warnings are
/// printed but do not block.
fn cmd_sim(args: &[String], token: &CancelToken) -> Result<String, CliError> {
    let path = positional(args).ok_or_else(|| CliError::usage("sim: missing deck path"))?;
    let text = read(path)?;
    let mut warnings = String::new();
    let deck = if has_flag(args, "--no-lint") {
        parse_deck(&text).map_err(|e| CliError::run_err("parse", &e))?
    } else {
        match pulsar_lint::load_deck(&text, &pulsar_lint::LintOptions::default()) {
            Ok((deck, report)) => {
                if !report.is_clean() {
                    warnings = report.render_human();
                }
                deck
            }
            Err(report) => {
                return Err(CliError::run(format!(
                    "{}(use `pulsar lint {path}` for details, --no-lint to bypass)",
                    report.render_human()
                )))
            }
        }
    };
    let tran: TranConfig = deck
        .tran
        .clone()
        .ok_or_else(|| CliError::run("deck has no .tran directive"))?;

    // Per-run observability: enabled only when some output needs it, so a
    // plain `pulsar sim` keeps the recorder on its branch-only fast path.
    let metrics_out = flag_value(args, "--metrics");
    let trace_out = flag_value(args, "--trace-out");
    let want_obs = has_flag(args, "--stats") || metrics_out.is_some() || trace_out.is_some();
    let rec = if want_obs {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let started_unix_ms = unix_ms();
    let t0 = Instant::now();
    let mut ws = SolverWorkspace::new();
    ws.set_recorder(rec.clone());
    ws.set_cancel_token(token.clone());
    let result = match deck
        .circuit
        .transient_with(&tran, &mut ws, &TraceCapture::All)
    {
        Ok(r) => r,
        Err(e @ pulsar_analog::Error::Cancelled { .. }) => {
            // Ctrl-C mid-solve: flush the requested observability outputs
            // before reporting the interrupt, so nothing is lost.
            let mut partial = String::new();
            if let Some(f) = trace_out {
                write_journal(&rec, f, &mut partial)?;
            }
            if let Some(f) = metrics_out {
                let manifest = RunManifest::new("sim", config_digest(&text));
                write_manifest(manifest, &rec, started_unix_ms, t0, f, &mut partial)?;
            }
            return Err(CliError::interrupted(format!("transient: {e}"), partial));
        }
        Err(e) => return Err(CliError::run_err("transient", &e)),
    };
    let snap = rec.snapshot();
    if rec.is_enabled() {
        let mut ev = Event::new("transient", 0);
        ev.label = Some(path.to_owned());
        ev.counters = snap.nonzero_counters();
        rec.event(ev);
    }

    // Node selection: --nodes a,b or every named node.
    let nodes: Vec<NodeId> = match flag_value(args, "--nodes") {
        Some(list) => list
            .split(',')
            .map(|n| {
                deck.node(n.trim())
                    .ok_or_else(|| CliError::run(format!("unknown node `{n}`")))
            })
            .collect::<Result<_, _>>()?,
        None => deck.circuit.nodes(),
    };
    if nodes.is_empty() {
        return Err(CliError::run("no nodes to dump"));
    }

    let mut out = warnings;
    let _ = writeln!(
        out,
        "simulated {} time points over {:.3e} s ({} nodes)",
        result.len(),
        tran.stop,
        nodes.len()
    );
    if has_flag(args, "--stats") {
        // Counters scoped to this run's recorder — concurrent runs in the
        // same process no longer bleed into each other. Which engine ran
        // depends on the MNA dimension alone: sparse from 24 unknowns on,
        // dense below (and as the fallback of a failed sparse solve).
        let _ = writeln!(
            out,
            "solver stats: {} sparse solves ({} symbolic analyses, {} numeric factorizations), \
             {} dense solves ({} iterations), {} dense fallbacks",
            snap.counter(ObsCounter::SparseSolves),
            snap.counter(ObsCounter::SymbolicAnalyses),
            snap.counter(ObsCounter::NumericFactorizations),
            snap.counter(ObsCounter::DenseSolves),
            snap.counter(ObsCounter::DenseIterations),
            snap.counter(ObsCounter::DenseFallbacks)
        );
        let _ = writeln!(
            out,
            "transient stats: {} steps accepted ({} held at rest), {} Newton retries, \
             {} Newton iterations",
            snap.counter(ObsCounter::StepsAccepted),
            snap.counter(ObsCounter::StepsHeld),
            snap.counter(ObsCounter::NewtonRetries),
            snap.counter(ObsCounter::NewtonIterations)
        );
    }
    if let Some(f) = flag_value(args, "--vcd") {
        fs::write(f, to_vcd(&deck.circuit, &result, &nodes))
            .map_err(|e| CliError::run(format!("write {f}: {e}")))?;
        let _ = writeln!(out, "wrote {f}");
    }
    if let Some(f) = flag_value(args, "--csv") {
        fs::write(f, to_csv(&deck.circuit, &result, &nodes))
            .map_err(|e| CliError::run(format!("write {f}: {e}")))?;
        let _ = writeln!(out, "wrote {f}");
    }
    // Without export flags, print final node voltages.
    if flag_value(args, "--vcd").is_none() && flag_value(args, "--csv").is_none() {
        for &n in &nodes {
            let _ = writeln!(
                out,
                "{} = {:.4} V",
                deck.circuit.node_name(n),
                result.trace(n).last_value()
            );
        }
    }
    if let Some(f) = trace_out {
        write_journal(&rec, f, &mut out)?;
    }
    if let Some(f) = metrics_out {
        let manifest = RunManifest::new("sim", config_digest(&text));
        write_manifest(manifest, &rec, started_unix_ms, t0, f, &mut out)?;
    }
    Ok(out)
}

/// `pulsar lint`: static verification of one or more decks, no solve.
///
/// Human-readable by default, one JSON document per deck with `--json`.
/// Exits non-zero when any deck has error-severity findings, or any
/// findings at all under `--deny-warnings`.
fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    let paths = positionals(args);
    if paths.is_empty() {
        return Err(CliError::usage("lint: missing deck path"));
    }
    let json = has_flag(args, "--json");
    let deny = has_flag(args, "--deny-warnings");
    let mut out = String::new();
    let mut blocking = false;
    for path in &paths {
        let report = pulsar_lint::lint_deck(&read(path)?);
        blocking |= report.has_blocking(deny);
        if json {
            let _ = writeln!(out, "{}", report.render_json());
        } else {
            if paths.len() > 1 {
                let _ = writeln!(out, "== {path}");
            }
            out.push_str(&report.render_human());
        }
    }
    if blocking {
        return Err(CliError::run(out));
    }
    Ok(out)
}

/// `pulsar testgen`: plans for one site (or the first gate output).
fn cmd_testgen(args: &[String]) -> Result<String, CliError> {
    let path = positional(args).ok_or_else(|| CliError::usage("testgen: missing netlist path"))?;
    let nl = parse_iscas85(&read(path)?).map_err(|e| CliError::run_err("parse", &e))?;
    let mut cfg = TestgenConfig::default();
    cfg.max_paths = flag(args, "testgen", "--max-paths", COUNT)?.unwrap_or(cfg.max_paths);
    let site = match flag_value(args, "--site") {
        Some(name) => nl
            .find_signal(name)
            .ok_or_else(|| CliError::run(format!("no signal named `{name}`")))?,
        None => nl
            .gates()
            .first()
            .map(|g| g.output)
            .ok_or_else(|| CliError::run("netlist has no gates"))?,
    };

    let lib = TimingLibrary::generic();
    let plans =
        plan_for_site(&nl, site, &lib, &cfg).map_err(|e| CliError::run_err("testgen", &e))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "site {}: {} sensitized path(s)",
        nl.signal_name(site),
        plans.len()
    );
    for (k, p) in plans.iter().take(10).enumerate() {
        let _ = writeln!(
            out,
            "  #{k}: {} gates from {}, {:?}, w_in {:.0} ps, w_th {:.0} ps, R_min {}",
            p.path.len(),
            nl.signal_name(p.path.from),
            p.polarity,
            p.w_in * 1e12,
            p.w_th * 1e12,
            p.r_min
                .map(|r| format!("{:.1} kohm", r / 1e3))
                .unwrap_or_else(|| "not in bracket".into()),
        );
    }
    Ok(out)
}

/// `pulsar campaign`: whole-netlist summary. Runs through the durable
/// path (cooperative cancellation, optional checkpoint/resume, wall-clock
/// deadline, panic containment) — without any of those flags the result
/// is outcome-identical to the plain in-process run.
fn cmd_campaign(args: &[String], token: &CancelToken) -> Result<String, CliError> {
    let path = positional(args).ok_or_else(|| CliError::usage("campaign: missing netlist path"))?;
    let text = read(path)?;
    let nl = parse_iscas85(&text).map_err(|e| CliError::run_err("parse", &e))?;
    let stride = flag(args, "campaign", "--stride", POSITIVE)?.unwrap_or(1);
    let metrics_out = flag_value(args, "--metrics");
    let trace_out = flag_value(args, "--trace-out");
    let deadline = flag(args, "campaign", "--deadline", SECONDS)?.map(Duration::from_secs_f64);
    let checkpoint_path = match (
        flag_value(args, "--checkpoint"),
        flag_value(args, "--resume"),
    ) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "campaign: --checkpoint and --resume are mutually exclusive (both name the \
                 checkpoint file; --resume just requires it to exist)",
            ))
        }
        (Some(c), None) => Some(c),
        (None, Some(r)) => {
            if !std::path::Path::new(r).exists() {
                return Err(CliError::run(format!(
                    "campaign: --resume checkpoint `{r}` does not exist \
                     (use --checkpoint to start a fresh durable run)"
                )));
            }
            Some(r)
        }
        (None, None) => None,
    };
    let rec = if metrics_out.is_some() || trace_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let started_unix_ms = unix_ms();
    let t0 = Instant::now();
    let campaign = Campaign {
        stride,
        obs: rec.clone(),
        resilience: ResilienceConfig {
            deadline,
            contain_panics: has_flag(args, "--contain-panics"),
            ..ResilienceConfig::default()
        },
        ..Campaign::default()
    };
    let lib = TimingLibrary::generic();
    let report = checkpoint_path
        .map(|p| Checkpoint::open(std::path::Path::new(p), campaign.checkpoint_spec(&nl)))
        .transpose()
        .and_then(|ck| campaign.run_durable(&nl, &lib, token, ck.as_ref()))
        .map_err(|e| CliError::run_err("campaign", &e))?;

    let mut out = report.render_report(&nl, checkpoint_path);
    if rec.is_enabled() {
        let snap = rec.snapshot();
        let _ = writeln!(
            out,
            "observability: {} site events journaled ({} planned, {} unsensitizable, {} failed)",
            rec.event_count(),
            snap.counter(ObsCounter::SitesPlanned),
            snap.counter(ObsCounter::SitesUnsensitizable),
            snap.counter(ObsCounter::SitesFailed)
        );
    }
    if let Some(f) = trace_out {
        write_journal(&rec, f, &mut out)?;
    }
    if let Some(f) = metrics_out {
        let mut manifest = RunManifest::new(
            "campaign",
            config_digest(&campaign_digest_repr(stride, &text)),
        );
        manifest.threads = campaign.threads;
        write_manifest(manifest, &rec, started_unix_ms, t0, f, &mut out)?;
    }
    // Ctrl-C: every output above (partial report, journal, manifest, and
    // the checkpoint itself) is already flushed — exit 130 with a resume
    // hint. Deadline truncation is a *successful* partial run (exit 0):
    // the operator asked for a budget and got everything it bought.
    if token.cancelled() == Some(CancelReason::User) {
        let msg = match checkpoint_path {
            Some(p) => {
                format!("campaign interrupted: checkpoint at {p} — continue with --resume {p}")
            }
            None => "campaign interrupted (no checkpoint; partial report above is all there is)"
                .to_owned(),
        };
        return Err(CliError::interrupted(msg, out));
    }
    Ok(out)
}

/// `pulsar faultsim`: campaign patterns vs every branch fault.
fn cmd_faultsim(args: &[String]) -> Result<String, CliError> {
    let path = positional(args).ok_or_else(|| CliError::usage("faultsim: missing netlist path"))?;
    let nl = parse_iscas85(&read(path)?).map_err(|e| CliError::run_err("parse", &e))?;
    let tau = flag(args, "faultsim", "--tau", TAU)?.unwrap_or(2e-9);

    let lib = TimingLibrary::generic();
    let report = Campaign::default()
        .run(&nl, &lib)
        .map_err(|e| CliError::run_err("campaign", &e))?;
    let patterns: Vec<PulsePattern> = report
        .sites
        .iter()
        .filter_map(|(_, o)| match o {
            SiteOutcome::Planned(p) => Some(PulsePattern::from_plan(&nl, p)),
            _ => None,
        })
        .collect();
    let faults = all_branch_faults(&nl);
    let fsim = fault_simulate(&nl, &lib, &patterns, &faults, tau)
        .map_err(|e| CliError::run_err("fault simulation", &e))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} patterns x {} branch faults (tau = {tau:.2e} s): coverage {:.3}",
        patterns.len(),
        faults.len(),
        fsim.coverage()
    );
    let undetected = fsim.undetected();
    let _ = writeln!(out, "undetected branches: {}", undetected.len());
    for f in undetected.iter().take(8) {
        let _ = writeln!(
            out,
            "  pin {} of gate driving {}",
            f.pin,
            nl.signal_name(nl.gate(f.gate).output)
        );
    }
    Ok(out)
}

fn render_adaptive(out: &mut String, report: &AdaptiveReport) {
    let _ = writeln!(
        out,
        "adaptive: spent {} of {} fixed-budget evals ({:.2}x fewer), {} on refinement",
        report.evals,
        report.fixed_budget_evals,
        report.fixed_budget_evals as f64 / report.evals.max(1) as f64,
        report.refine_evals
    );
    for p in &report.points {
        let _ = writeln!(
            out,
            "  f={:.2} r={:.1e}: coverage {:.3}, achieved hw {:.3} (requested {:.3}), n={}{}{}",
            p.factor,
            p.resistance,
            p.coverage,
            p.accuracy.achieved_halfwidth,
            p.accuracy.requested_halfwidth,
            p.accuracy.samples_spent,
            if p.accuracy.stopped_early {
                ", stopped early"
            } else {
                ""
            },
            if p.refined { ", refined" } else { "" }
        );
    }
}

/// `pulsar study`: the paper's Monte Carlo coverage experiment on the
/// built-in 7-gate path — `C_del(T, R)` (`df`) or `C_pulse(ω_th, R)`
/// (`pulse`). `--adaptive` switches the fixed per-point budget to the
/// early-stopping engine; the summary and the `--metrics` manifest then
/// carry the measured per-point `{requested, achieved}` precision.
fn cmd_study(args: &[String], token: &CancelToken) -> Result<String, CliError> {
    let kind = positional(args).ok_or_else(|| CliError::usage("study: missing kind (df|pulse)"))?;
    let kind = StudyKind::parse(kind).ok_or_else(|| {
        CliError::usage(format!(
            "study: unknown kind `{kind}` (expected df or pulse)"
        ))
    })?;
    let req = study_request(args, "study", kind)?;
    let adaptive = has_flag(args, "--adaptive");
    let precision = flag(args, "study", "--precision", NUMBER)?.unwrap_or(0.15);
    let max_samples = flag(args, "study", "--max-samples", COUNT)?.unwrap_or(req.samples);
    let plan = if adaptive {
        Plan::adaptive(
            &req.rs,
            &req.factors,
            AdaptivePolicy::new(precision, max_samples),
        )
    } else {
        Plan::fixed(&req.rs, &req.factors)
    };
    plan.validate()
        .map_err(|e| CliError::usage(format!("study: {e}")))?;

    let metrics_out = flag_value(args, "--metrics");
    let trace_out = flag_value(args, "--trace-out");
    let rec = if metrics_out.is_some() || trace_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let started_unix_ms = unix_ms();
    let t0 = Instant::now();

    let mc = McConfig {
        obs: rec.clone(),
        ..McConfig::paper(req.samples, req.seed)
    };
    let calib = req.kind.calibrate(mc.clone());
    let calib = calib.map_err(|e| CliError::run_err("study calibration", &e))?;
    let study = CalibratedStudy::new(mc, calib);
    let report = study.run(&plan, token, None);
    let interrupted = token.cancelled() == Some(CancelReason::User);
    let mut out = study.header(&plan) + "\n";
    let report = match report {
        Ok(report) => report,
        // An adaptive report cannot account for a truncated run, so an
        // interrupted adaptive study has no curves (and no manifest) to
        // show; its journal still holds the samples done.
        Err(_) if interrupted => {
            if let Some(f) = trace_out {
                write_journal(&rec, f, &mut out)?;
            }
            return Err(CliError::interrupted(
                "adaptive study interrupted (an adaptive run reports only when whole)",
                out,
            ));
        }
        Err(e) => {
            let context = if adaptive { "adaptive study" } else { "study" };
            return Err(CliError::run_err(context, &e));
        }
    };
    out.push_str(&CoverageCurve::render_set(report.curves()));
    if let Some(r) = report.adaptive() {
        render_adaptive(&mut out, r);
    }
    let done = report.curves().first().map(|c| c.completeness);
    if let Some(c) = done.filter(|c| !c.is_complete()) {
        let why = c.truncated.unwrap_or("incomplete");
        let _ = writeln!(
            out,
            "TRUNCATED ({why}): {} of {} samples done",
            c.done, c.requested
        );
    }
    if let Some(f) = trace_out {
        write_journal(&rec, f, &mut out)?;
    }
    if let Some(f) = metrics_out {
        let digest = config_digest(&plan.study_digest_repr(kind.as_str(), req.samples, req.seed));
        let mut manifest = RunManifest::new("study", digest);
        manifest.seed = Some(req.seed);
        manifest.samples = Some(req.samples);
        manifest.tech = Some("generic_180nm".to_owned());
        manifest.adaptive = report.adaptive().map(AdaptiveReport::to_manifest);
        write_manifest(manifest, &rec, started_unix_ms, t0, f, &mut out)?;
    }
    // Ctrl-C: the curves over the samples done, the journal and the
    // manifest are already written — exit 130 as `campaign` does.
    if interrupted {
        return Err(CliError::interrupted(
            "study interrupted (the curves above cover the samples done before it)",
            out,
        ));
    }
    Ok(out)
}

/// The serve client operations that are mutually exclusive on one
/// invocation. `--stats` and `--shutdown` are boolean; the rest consume
/// a value (a job id or a spec kind).
const SERVE_OPS: &[&str] = &[
    "--submit",
    "--run",
    "--wait",
    "--status",
    "--cancel",
    "--stream",
    "--stats",
    "--shutdown",
];

/// `pulsar serve`: the async campaign daemon and its protocol client.
///
/// Without a client operation the command *is* the daemon: it binds the
/// Unix socket, serves submitted jobs on a sharded worker pool with
/// cross-job caches, and on SIGINT or a client `--shutdown` drains
/// in-flight jobs through the checkpoint path before exiting. With a
/// client operation it connects to an already-running daemon instead.
fn cmd_serve(args: &[String], token: &CancelToken) -> Result<String, CliError> {
    let socket = positional(args).ok_or_else(|| CliError::usage("serve: missing socket path"))?;
    let sock = std::path::PathBuf::from(socket);
    let ops: Vec<&str> = SERVE_OPS
        .iter()
        .copied()
        .filter(|f| has_flag(args, f))
        .collect();
    if ops.len() > 1 {
        return Err(CliError::usage(format!(
            "serve: at most one client operation per invocation (got {})",
            ops.join(" ")
        )));
    }
    match ops.first().copied() {
        None => serve_daemon(args, sock, token),
        Some(op) => serve_client(op, args, &sock),
    }
}

/// Daemon mode: start, bridge SIGINT into the daemon token, join.
fn serve_daemon(
    args: &[String],
    sock: std::path::PathBuf,
    token: &CancelToken,
) -> Result<String, CliError> {
    let mut cfg = ServeConfig::new(sock);
    cfg.workers = flag(args, "serve", "--workers", POSITIVE)?.unwrap_or(cfg.workers);
    cfg.queue_depth = flag(args, "serve", "--queue-depth", COUNT)?.unwrap_or(cfg.queue_depth);
    cfg.spool = flag_value(args, "--spool").map(std::path::PathBuf::from);
    cfg.metrics_out = flag_value(args, "--metrics").map(std::path::PathBuf::from);
    cfg.tenant_budget = flag(args, "serve", "--tenant-budget", INTEGER)?;
    let depth = cfg.queue_depth;
    let daemon = ServeDaemon::start(cfg)
        .map_err(|e| CliError::run(format!("serve: cannot start daemon: {e}")))?;
    // Readiness goes to stderr so stdout stays a clean summary stream.
    eprintln!(
        "pulsar serve: listening on {} ({} workers, queue depth {depth})",
        daemon.socket().display(),
        daemon.workers()
    );

    let sig = token.clone();
    let dtoken = daemon.token().clone();
    // spawn: detached SIGINT bridge — it exits when either token trips,
    // and the process exits right after `join` returns regardless.
    std::thread::spawn(move || loop {
        if sig.is_cancelled() {
            dtoken.cancel(CancelReason::User);
            return;
        }
        if dtoken.is_cancelled() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    let summary = daemon
        .join()
        .map_err(|e| CliError::run(format!("serve: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve summary: {} jobs admitted, {} completed, {} failed, {} drained to checkpoints, \
         {} whole-result cache hits",
        summary.jobs_admitted,
        summary.jobs_completed,
        summary.jobs_failed,
        summary.jobs_drained,
        summary.result_cache_hits
    );
    if token.is_cancelled() {
        return Err(CliError::interrupted(
            "serve interrupted: in-flight jobs drained to their checkpoints; restart with the \
             same --spool to resume them",
            out,
        ));
    }
    Ok(out)
}

/// Client mode: one operation against a running daemon. The flags are
/// read before connecting, so a bad value is a usage error whether or
/// not a daemon listens.
fn serve_client(op: &str, args: &[String], sock: &std::path::Path) -> Result<String, CliError> {
    let connect = || {
        ServeClient::connect(sock).map_err(|e| {
            CliError::run(format!(
                "serve: cannot connect to `{}`: {e}",
                sock.display()
            ))
        })
    };
    let fail = |e: pulsar_serve::ClientError| CliError::run(format!("serve: {e}"));
    match op {
        "--submit" | "--run" => {
            let kind = flag_value(args, op)
                .ok_or_else(|| CliError::usage(format!("serve: {op} needs a kind")))?;
            let spec = serve_spec(args, kind)?;
            let tenant = flag_value(args, "--tenant");
            let deadline_ms = flag(args, "serve", "--deadline", SECONDS)?.map(|s| (s * 1e3) as u64);
            let budget = flag(args, "serve", "--failure-budget", FRACTION)?;
            let mut client = connect()?;
            let (job, digest, cached) = client
                .submit_with(&spec, tenant, deadline_ms, budget)
                .map_err(fail)?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "job {job} digest {digest:#018x}{}",
                if cached {
                    " (whole-result cache hit)"
                } else {
                    " queued"
                }
            );
            if op == "--submit" {
                return Ok(out);
            }
            let o = client.wait(job).map_err(fail)?;
            if o.state == "failed" {
                return Err(CliError::run(format!(
                    "serve: job {job} failed: {}",
                    o.error.unwrap_or_default()
                )));
            }
            out.push_str(&serve_render_outcome(&o));
            Ok(out)
        }
        "--wait" | "--status" | "--cancel" => {
            let job = serve_job_id(args, op)?;
            let mut client = connect()?;
            let o = match op {
                "--wait" => client.wait(job),
                "--status" => client.status(job),
                _ => client.cancel(job),
            }
            .map_err(fail)?;
            Ok(serve_render_outcome(&o))
        }
        "--stream" => {
            let job = serve_job_id(args, "--stream")?;
            let mut out = String::new();
            let state = connect()?
                .stream(job, |event| {
                    out.push_str(event);
                    out.push('\n');
                })
                .map_err(fail)?;
            let _ = writeln!(out, "stream ended: job {job} {state}");
            Ok(out)
        }
        "--stats" => {
            let mut payload = connect()?.stats().map_err(fail)?;
            payload.push('\n');
            Ok(payload)
        }
        "--shutdown" => {
            connect()?.shutdown().map_err(fail)?;
            Ok("daemon shutting down\n".to_owned())
        }
        other => Err(CliError::usage(format!(
            "serve: unknown client operation `{other}`"
        ))),
    }
}

/// Parses a submit/run spec from the CLI flags, with the same defaults
/// as `pulsar study` / `pulsar campaign`.
fn serve_spec(args: &[String], kind: &str) -> Result<JobSpec, CliError> {
    if let Some(k) = StudyKind::parse(kind) {
        return study_request(args, "serve", k).map(JobSpec::from);
    }
    if kind == "campaign" {
        let path = flag_value(args, "--netlist")
            .ok_or_else(|| CliError::usage("serve: campaign jobs need --netlist FILE"))?;
        let netlist = read(path)?;
        let stride = flag(args, "serve", "--stride", POSITIVE)?.unwrap_or(1);
        return Ok(JobSpec::Campaign { netlist, stride });
    }
    Err(CliError::usage(format!(
        "serve: unknown job kind `{kind}` (expected df, pulse, or campaign)"
    )))
}

fn serve_job_id(args: &[String], flag_name: &str) -> Result<u64, CliError> {
    flag(args, "serve", flag_name, INTEGER)?
        .ok_or_else(|| CliError::usage(format!("serve: {flag_name} needs a job id")))
}

fn serve_render_outcome(o: &JobOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "job {}: {}", o.job, o.state);
    if let Some(r) = &o.result {
        out.push_str(r);
        if !r.ends_with('\n') {
            out.push('\n');
        }
    }
    if let Some(e) = &o.error {
        let _ = writeln!(out, "error: {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn tmp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("pulsar-cli-tests");
        fs::create_dir_all(&dir).expect("temp dir");
        let p = dir.join(name);
        fs::write(&p, content).expect("write temp file");
        p.to_string_lossy().into_owned()
    }

    const DECK: &str = "rc deck\nV1 in 0 PULSE(0 1.8 1n 0.1n 0.1n 0.5n)\nR1 in out 1k\nC1 out 0 0.1p\n.tran 10p 4n\n.end\n";

    #[test]
    fn help_is_shown_by_default() {
        let out = dispatch(&[]).unwrap();
        assert!(out.contains("USAGE"));
        let out = dispatch(&["help".into()]).unwrap();
        assert!(out.contains("pulsar sim"));
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        let e = dispatch(&["frobnicate".into()]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn sim_prints_final_voltages() {
        let deck = tmp("a.sp", DECK);
        let out = dispatch(&["sim".into(), deck]).unwrap();
        assert!(out.contains("time points"), "{out}");
        assert!(out.contains("out ="), "{out}");
    }

    #[test]
    fn sim_stats_reports_solver_work() {
        let deck = tmp("stats.sp", DECK);
        let out = dispatch(&["sim".into(), deck.clone(), "--stats".into()]).unwrap();
        // The field list, with every count masked.
        let mask = |line: &str| {
            let mut out = String::new();
            for c in line.chars() {
                if !c.is_ascii_digit() {
                    out.push(c);
                } else if !out.ends_with('N') {
                    out.push('N');
                }
            }
            out
        };
        let masked: Vec<String> = out
            .lines()
            .filter(|l| l.contains(" stats: "))
            .map(mask)
            .collect();
        assert_eq!(
            masked,
            [
                "solver stats: N sparse solves (N symbolic analyses, N numeric factorizations), \
                 N dense solves (N iterations), N dense fallbacks",
                "transient stats: N steps accepted (N held at rest), N Newton retries, \
                 N Newton iterations",
            ],
            "{out}"
        );
        // The 1 ns pulse delay at a 10 ps step: the 100 points up to the
        // edge (the last of them, summed from 10 ps steps, lands just
        // below 1 ns) are held at the operating point without a solve.
        assert!(out.contains("(100 held at rest)"), "{out}");
        assert!(out.contains("301 dense solves"), "{out}");
        // The RC deck is tiny, so the `Auto` crossover keeps it dense.
        assert!(out.contains("solver stats: 0 sparse solves"), "{out}");

        let out = dispatch(&["sim".into(), deck]).unwrap();
        assert!(!out.contains("solver stats:"), "{out}");
    }

    #[test]
    fn sim_exports_vcd_and_csv() {
        let deck = tmp("b.sp", DECK);
        let vcd = tmp("b.vcd", "");
        let csv = tmp("b.csv", "");
        let out = dispatch(&[
            "sim".into(),
            deck,
            "--nodes".into(),
            "in,out".into(),
            "--vcd".into(),
            vcd.clone(),
            "--csv".into(),
            csv.clone(),
        ])
        .unwrap();
        assert!(out.contains("wrote"));
        assert!(fs::read_to_string(&vcd).unwrap().contains("$timescale"));
        assert!(fs::read_to_string(&csv).unwrap().starts_with("t,in,out"));
    }

    /// An NMOS strength of 1e307 overflows the device current to a NaN
    /// Newton update. The deck lints clean; the solve must reject the
    /// update and recover by step halving instead of printing NaN rows.
    #[test]
    fn sim_never_accepts_a_non_finite_newton_update() {
        let text = include_str!("../../../examples/decks/cmos_inverter.sp")
            .replace(".model nx nmos\n", ".model nx nmos kp=1e307\n");
        assert!(text.contains("kp=1e307"));
        let deck = tmp("overflow.sp", &text);
        let csv = tmp("overflow.csv", "");
        dispatch(&["sim".into(), deck, "--csv".into(), csv.clone()]).unwrap();
        let rows = fs::read_to_string(&csv).unwrap();
        let mut points = 0;
        for row in rows.lines().skip(1) {
            points += 1;
            for v in row.split(',') {
                assert!(v.parse::<f64>().unwrap().is_finite(), "{row}");
            }
        }
        assert!(points > 600, "{points} points");
    }

    #[test]
    fn sim_rejects_missing_tran_and_unknown_nodes() {
        let deck = tmp("c.sp", "t\nV1 a 0 1.0\nR1 a 0 1k\n.end\n");
        let e = dispatch(&["sim".into(), deck]).unwrap_err();
        assert!(e.message.contains(".tran"));

        let deck = tmp("d.sp", DECK);
        let e = dispatch(&["sim".into(), deck, "--nodes".into(), "ghost".into()]).unwrap_err();
        assert!(e.message.contains("ghost"));
    }

    const BROKEN_DECK: &str = "broken\nV1 a a DC 1.0\nR1 a 0 1k\n.tran 10p 4n\n.end\n";

    #[test]
    fn lint_passes_a_clean_deck() {
        let deck = tmp("lint_ok.sp", DECK);
        let out = dispatch(&["lint".into(), deck]).unwrap();
        assert!(out.contains("no diagnostics"), "{out}");
    }

    #[test]
    fn lint_rejects_a_broken_deck_with_codes() {
        let deck = tmp("lint_bad.sp", BROKEN_DECK);
        let e = dispatch(&["lint".into(), deck]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("PL0101"), "{}", e.message);
        assert!(e.message.contains("fix:"), "{}", e.message);
    }

    #[test]
    fn lint_emits_json() {
        let deck = tmp("lint_json.sp", BROKEN_DECK);
        let e = dispatch(&["lint".into(), deck, "--json".into()]).unwrap_err();
        assert!(e.message.contains("\"code\""), "{}", e.message);
        assert!(e.message.contains("\"summary\""), "{}", e.message);
    }

    #[test]
    fn lint_deny_warnings_blocks_warning_only_decks() {
        // Floating capacitor island: warning-severity only.
        let warn_deck = "warn\nV1 in 0 DC 1.0\nR1 in out 1k\nC1 x y 1p\n.tran 10p 4n\n.end\n";
        let deck = tmp("lint_warn.sp", warn_deck);
        assert!(dispatch(&["lint".into(), deck.clone()]).is_ok());
        let e = dispatch(&["lint".into(), deck, "--deny-warnings".into()]).unwrap_err();
        assert_eq!(e.code, 1);
    }

    #[test]
    fn lint_handles_multiple_decks_with_headers() {
        let a = tmp("multi_a.sp", DECK);
        let b = tmp("multi_b.sp", BROKEN_DECK);
        let e = dispatch(&["lint".into(), a.clone(), b.clone()]).unwrap_err();
        assert!(e.message.contains(&format!("== {a}")), "{}", e.message);
        assert!(e.message.contains(&format!("== {b}")), "{}", e.message);
    }

    #[test]
    fn sim_is_gated_by_lint_unless_opted_out() {
        let deck = tmp("sim_gate.sp", BROKEN_DECK);
        let e = dispatch(&["sim".into(), deck.clone()]).unwrap_err();
        assert!(e.message.contains("PL0101"), "{}", e.message);
        assert!(e.message.contains("--no-lint"), "{}", e.message);
        // Bypass reaches the solver, which then fails on the singular
        // system — the lint verdict and the solver agree.
        let e = dispatch(&["sim".into(), deck, "--no-lint".into()]).unwrap_err();
        assert!(e.message.contains("singular"), "{}", e.message);
    }

    const C17: &str = "\
INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

    #[test]
    fn testgen_plans_a_named_site() {
        let bench = tmp("c17.bench", C17);
        let out = dispatch(&["testgen".into(), bench, "--site".into(), "11".into()]).unwrap();
        assert!(out.contains("site 11:"), "{out}");
        assert!(out.contains("R_min"), "{out}");
    }

    #[test]
    fn campaign_summarizes_c17() {
        let bench = tmp("c17b.bench", C17);
        let out = dispatch(&["campaign".into(), bench]).unwrap();
        assert!(out.contains("sites probed"), "{out}");
        assert!(out.contains("pattern count"), "{out}");
        assert!(out.contains("site coverage"), "{out}");
    }

    #[test]
    fn faultsim_reports_coverage() {
        let bench = tmp("c17c.bench", C17);
        let out = dispatch(&["faultsim".into(), bench]).unwrap();
        assert!(out.contains("branch faults"), "{out}");
        assert!(out.contains("coverage"), "{out}");
    }

    #[test]
    fn missing_files_fail_cleanly() {
        let e = dispatch(&["sim".into(), "/definitely/not/here.sp".into()]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("cannot read"));
    }

    #[test]
    fn errors_render_kind_and_exit_code_table() {
        let e = dispatch(&["frobnicate".into()]).unwrap_err();
        let r = e.render();
        assert!(r.starts_with("pulsar: error[usage]:"), "{r}");
        assert!(r.contains("exit code 2"), "{r}");
        assert!(
            r.contains("0 = success, 1 = runtime failure, 2 = usage error"),
            "{r}"
        );

        let deck = tmp("render.sp", "t\nV1 a 0 1.0\nR1 a 0 1k\n.end\n");
        let e = dispatch(&["sim".into(), deck]).unwrap_err();
        assert!(e.render().contains("error[runtime]"), "{}", e.render());
    }

    #[test]
    fn sim_writes_journal_and_manifest() {
        let deck = tmp("obs.sp", DECK);
        let trace = tmp("obs.jsonl", "");
        let metrics = tmp("obs_manifest.json", "");
        let out = dispatch(&[
            "sim".into(),
            deck,
            "--trace-out".into(),
            trace.clone(),
            "--metrics".into(),
            metrics.clone(),
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let journal = fs::read_to_string(&trace).unwrap();
        assert!(journal.contains("\"kind\":\"transient\""), "{journal}");
        assert!(journal.contains("\"counters\""), "{journal}");
        let manifest = fs::read_to_string(&metrics).unwrap();
        assert!(manifest.contains("\"kind\":\"sim\""), "{manifest}");
        assert!(manifest.contains("\"schema_version\""), "{manifest}");
        assert!(manifest.contains("\"config_digest\""), "{manifest}");
        assert!(manifest.contains("\"metrics\""), "{manifest}");
        // The manifest must parse with the crate's own JSON parser.
        pulsar_obs::json::parse(manifest.trim()).expect("manifest parses");
    }

    fn fresh_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pulsar-cli-tests");
        fs::create_dir_all(&dir).expect("temp dir");
        let p = dir.join(format!("{}-{}", std::process::id(), name));
        let _ = fs::remove_file(&p);
        p
    }

    #[test]
    fn campaign_checkpoint_resumes_and_reports_restored_sites() {
        let bench = tmp("c17ck.bench", C17);
        let ck = fresh_path("c17.ckpt");
        let ck_s = ck.to_string_lossy().into_owned();
        let args = vec![
            "campaign".to_owned(),
            bench,
            "--checkpoint".to_owned(),
            ck_s,
        ];
        let first = dispatch(&args).unwrap();
        assert!(!first.contains("restored"), "{first}");
        assert!(ck.exists(), "checkpoint file must be written");
        let second = dispatch(&args).unwrap();
        assert!(second.contains("sites restored from"), "{second}");
        // Identical campaign results either way.
        assert_eq!(first.lines().next(), second.lines().next());
        let _ = fs::remove_file(&ck);
    }

    #[test]
    fn interrupted_campaign_exits_130_with_partial_report() {
        let bench = tmp("c17int.bench", C17);
        let ck = fresh_path("c17int.ckpt");
        let ck_s = ck.to_string_lossy().into_owned();
        let token = CancelToken::new();
        token.cancel(CancelReason::User);
        let e = dispatch_with_cancel(
            &[
                "campaign".to_owned(),
                bench,
                "--checkpoint".to_owned(),
                ck_s.clone(),
            ],
            &token,
        )
        .unwrap_err();
        assert_eq!(e.code, 130);
        assert_eq!(e.kind, "interrupted");
        assert!(
            e.message.contains(&format!("--resume {ck_s}")),
            "{}",
            e.message
        );
        let partial = e.partial.as_deref().expect("partial report survives");
        assert!(partial.contains("TRUNCATED (interrupted)"), "{partial}");
        assert!(e.render().contains("130 = interrupted"), "{}", e.render());
        let _ = fs::remove_file(&ck);
    }

    #[test]
    fn interrupted_study_exits_130_with_partial_report() {
        let token = CancelToken::new();
        token.cancel(CancelReason::User);
        let e = dispatch_with_cancel(&study_args("df", &[]), &token).unwrap_err();
        assert_eq!(e.code, 130);
        assert_eq!(e.kind, "interrupted");
        let partial = e.partial.as_deref().expect("partial report survives");
        assert!(partial.contains("T0 ="), "{partial}");
        assert!(partial.contains("factor 0.90: coverage"), "{partial}");
        assert!(
            partial.contains("TRUNCATED (interrupted): 0 of 4 samples done"),
            "{partial}"
        );
        assert!(e.render().contains("130 = interrupted"), "{}", e.render());

        // An adaptive run has no partial curves, but still exits 130.
        let e = dispatch_with_cancel(&study_args("pulse", &["--adaptive"]), &token).unwrap_err();
        assert_eq!(e.code, 130);
        let partial = e.partial.as_deref().expect("the header survives");
        assert!(partial.contains("w_th ="), "{partial}");
        assert!(!partial.contains("factor "), "{partial}");
    }

    #[test]
    fn repeated_flags_are_usage_errors() {
        for (args, flag) in [
            (study_args("df", &["--samples", "0"]), "--samples"),
            (
                study_args("pulse", &["--adaptive", "--adaptive"]),
                "--adaptive",
            ),
            (
                [
                    "sim", "deck.sp", "--csv", "a.csv", "--stats", "--csv", "b.csv",
                ]
                .map(String::from)
                .to_vec(),
                "--csv",
            ),
        ] {
            let e = dispatch(&args).unwrap_err();
            assert_eq!(e.code, 2, "{args:?}: {}", e.message);
            assert!(e.message.contains(flag), "{}", e.message);
            assert!(e.message.contains("more than once"), "{}", e.message);
        }
        // A flag *value* that repeats a flag name is not a repeat.
        assert_eq!(repeated_flag(&study_args("df", &["--seed", "4"])), None);
        let args = ["serve", "s.sock", "--run", "df", "--tenant", "--run"].map(String::from);
        assert_eq!(repeated_flag(&args), None);
    }

    #[test]
    fn bad_flag_values_are_usage_errors() {
        let bench = tmp("c17flags.bench", C17);
        let sock = fresh_path("no-daemon.sock").to_string_lossy().into_owned();
        let (b, s) = (bench.as_str(), sock.as_str());
        for case in [
            &["campaign", b, "--deadline", "-1"][..],
            &["campaign", b, "--deadline", "NaN"],
            &["campaign", b, "--deadline", "1e30"],
            &["campaign", b, "--stride", "abc"],
            &["campaign", b, "--stride", "0"],
            &["serve", s, "--workers", "0"],
            &["testgen", b, "--max-paths", "zz"],
            &["faultsim", b, "--tau", "nope"],
            &["faultsim", b, "--tau", "-1"],
            &["serve", s, "--run", "df", "--deadline", "-5"],
            &["serve", s, "--run", "df", "--deadline", "1e19"],
            &["serve", s, "--run", "df", "--failure-budget", "-3"],
            &["serve", s, "--submit", "pulse", "--samples", "many"],
            &["serve", s, "--wait", "seven"],
        ] {
            let args: Vec<String> = case.iter().map(|a| (*a).to_owned()).collect();
            let e = dispatch(&args).unwrap_err();
            assert_eq!((e.code, e.kind), (2, "usage"), "{case:?}: {}", e.message);
            let flag = case[case.len() - 2];
            assert!(e.message.contains(flag), "{case:?}: {}", e.message);
        }
    }

    #[test]
    fn resume_requires_an_existing_checkpoint() {
        let bench = tmp("c17res.bench", C17);
        let e = dispatch(&[
            "campaign".to_owned(),
            bench.clone(),
            "--resume".to_owned(),
            "/definitely/not/here.ckpt".to_owned(),
        ])
        .unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("does not exist"), "{}", e.message);

        let e = dispatch(&[
            "campaign".to_owned(),
            bench,
            "--resume".to_owned(),
            "a".to_owned(),
            "--checkpoint".to_owned(),
            "b".to_owned(),
        ])
        .unwrap_err();
        assert_eq!(e.code, 2, "{}", e.message);
    }

    #[test]
    fn deadline_zero_truncates_but_exits_zero() {
        let bench = tmp("c17dl.bench", C17);
        let out = dispatch(&[
            "campaign".to_owned(),
            bench,
            "--deadline".to_owned(),
            "0".to_owned(),
        ])
        .unwrap();
        assert!(out.contains("TRUNCATED (deadline)"), "{out}");
        assert!(out.contains("0 sites probed"), "{out}");

        let bench = tmp("c17dlbad.bench", C17);
        let e = dispatch(&[
            "campaign".to_owned(),
            bench,
            "--deadline".to_owned(),
            "soon".to_owned(),
        ])
        .unwrap_err();
        assert_eq!(e.code, 2, "{}", e.message);
    }

    #[test]
    fn campaign_writes_site_journal_and_manifest() {
        let bench = tmp("c17obs.bench", C17);
        let trace = tmp("c17obs.jsonl", "");
        let metrics = tmp("c17obs_manifest.json", "");
        let out = dispatch(&[
            "campaign".into(),
            bench,
            "--trace-out".into(),
            trace.clone(),
            "--metrics".into(),
            metrics.clone(),
        ])
        .unwrap();
        assert!(out.contains("observability:"), "{out}");
        let journal = fs::read_to_string(&trace).unwrap();
        assert!(journal.contains("\"kind\":\"site\""), "{journal}");
        // One event per probed site, consistent with the summary line.
        let probed: usize = out
            .lines()
            .find(|l| l.contains("sites probed"))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .expect("summary names the probed count");
        assert_eq!(journal.lines().count(), probed);
        let manifest = fs::read_to_string(&metrics).unwrap();
        assert!(manifest.contains("\"kind\":\"campaign\""), "{manifest}");
    }

    #[test]
    fn study_rejects_bad_kind_and_bad_lists() {
        let e = dispatch(&["study".into()]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("df|pulse"), "{}", e.message);

        let e = dispatch(&["study".into(), "both".into()]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("both"), "{}", e.message);

        let e =
            dispatch(&["study".into(), "df".into(), "--r".into(), "1e3,tall".into()]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("tall"), "{}", e.message);
    }

    /// `pulsar study` with `extra` flags on a small df or pulse grid.
    fn study_args(kind: &str, extra: &[&str]) -> Vec<String> {
        let base = ["study", kind, "--samples", "4", "--r", "1e3,100e3"];
        base.iter().chain(extra).map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn study_rejects_zero_samples_as_usage() {
        let args = ["study", "df", "--samples", "0"].map(String::from);
        let e = dispatch(&args).unwrap_err();
        assert_eq!(e.code, 2, "{}", e.message);
        assert!(e.message.contains("--samples"), "{}", e.message);
    }

    #[test]
    fn study_rejects_adaptive_policies_no_run_can_honour_as_usage() {
        for (kind, flags, needle) in [
            ("df", ["--max-samples", "0"], "max_samples"),
            ("pulse", ["--max-samples", "0"], "max_samples"),
            ("df", ["--precision", "NaN"], "precision NaN"),
            ("pulse", ["--precision", "-0.1"], "precision -0.1"),
        ] {
            let args = study_args(kind, &[&["--adaptive"][..], &flags].concat());
            let e = dispatch(&args).unwrap_err();
            assert_eq!(e.code, 2, "{kind} {flags:?}: {}", e.message);
            assert!(e.message.contains(needle), "{}", e.message);
        }
    }

    #[test]
    fn study_fixed_prints_one_curve_per_factor() {
        let out = dispatch(&[
            "study".into(),
            "df".into(),
            "--samples".into(),
            "4".into(),
            "--r".into(),
            "1e3,100e3".into(),
            "--factors".into(),
            "0.9,1.1".into(),
        ])
        .unwrap();
        assert!(out.contains("T0 ="), "{out}");
        assert_eq!(
            out.lines().filter(|l| l.starts_with("factor ")).count(),
            2,
            "{out}"
        );
        assert!(!out.contains("adaptive:"), "{out}");
    }

    #[test]
    fn study_adaptive_reports_accuracy_and_writes_manifest() {
        let metrics = tmp("study_manifest.json", "");
        let out = dispatch(&[
            "study".into(),
            "df".into(),
            "--samples".into(),
            "6".into(),
            "--r".into(),
            "1e3,100e3".into(),
            "--adaptive".into(),
            "--precision".into(),
            "0.4".into(),
            "--metrics".into(),
            metrics.clone(),
        ])
        .unwrap();
        assert!(out.contains("adaptive: spent"), "{out}");
        assert!(out.contains("achieved hw"), "{out}");
        let manifest = fs::read_to_string(&metrics).unwrap();
        assert!(manifest.contains("\"kind\":\"study\""), "{manifest}");
        assert!(manifest.contains("\"adaptive\""), "{manifest}");
        assert!(manifest.contains("\"achieved_halfwidth\""), "{manifest}");
        pulsar_obs::json::parse(manifest.trim()).expect("manifest parses");
    }

    #[test]
    fn study_pulse_runs_adaptively() {
        let out = dispatch(&[
            "study".into(),
            "pulse".into(),
            "--samples".into(),
            "4".into(),
            "--r".into(),
            "1e3,100e3".into(),
            "--factors".into(),
            "1.0".into(),
            "--adaptive".into(),
        ])
        .unwrap();
        assert!(out.contains("w_th ="), "{out}");
        assert!(out.contains("adaptive: spent"), "{out}");
    }
}
