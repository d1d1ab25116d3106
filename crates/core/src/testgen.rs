//! Test generation for the pulse method (paper §5, Fig. 11).
//!
//! For a given fault site (an external ROP on a signal's on-path fan-out
//! branch), the generator:
//!
//! 1. enumerates candidate PI→PO paths through the site,
//! 2. sensitizes each (side inputs non-controlling, pulse carrier free),
//! 3. characterizes each path's pulse-width transfer with the fast
//!    logic-level engine and picks `(ω_in, ω_th)` by the region-3 rule,
//! 4. computes the path's **minimum detectable resistance** `R_min`, to
//!    a relative width of 1e-9, by a bracketed false-position search on
//!    ln R (DESIGN.md §5.14), trying both pulse kinds (*h* and *l*),
//! 5. ranks the plans: "the best path … should be searched between paths
//!    featuring low values of ω_in and ω_th" — lowest `R_min` first.

use crate::engine::{ModelFault, ModelPath, PathInstance};
use crate::error::CoreError;
use pulsar_analog::Polarity;
use pulsar_cells::{BuiltPath, CellKind, PathFault, PathSpec, Tech};
use pulsar_logic::{
    sensitize, visit_paths_from_fanin, GateKind, InputVector, Netlist, Path, SignalId,
};
use pulsar_timing::{PathTimingModel, TimingLibrary};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Knobs for [`plan_for_site`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestgenConfig {
    /// Cap on candidate paths per site.
    pub max_paths: usize,
    /// Backtrack budget per sensitization attempt.
    pub max_backtracks: usize,
    /// Slope tolerance for the region-3 knee.
    pub region_tol: f64,
    /// Relative guard above the knee when picking `ω_in`.
    pub guard: f64,
    /// Sensor-variation margin dividing the healthy output width into
    /// `ω_th` (1.1 = 10 % worst-case sensor).
    pub sensor_margin: f64,
    /// Upper end of the transfer sweep, seconds.
    pub w_hi: f64,
    /// Transfer sweep resolution.
    pub sweep_points: usize,
    /// Effective fan-out branch capacitance the defect charges, farads.
    pub c_branch: f64,
    /// `R_min` search bracket `(r_lo, r_hi)`, ohms: finite, positive and
    /// increasing, or [`SitePlanner::new`] refuses the config. `R_min` is
    /// `r_lo` when `r_lo` already detects, `None` when `r_hi` does not,
    /// and otherwise the detected end of a bracket narrowed to
    /// `hi ≤ lo·(1 + 1e-9)`.
    pub r_bracket: (f64, f64),
}

impl Default for TestgenConfig {
    fn default() -> Self {
        TestgenConfig {
            max_paths: 512,
            max_backtracks: 20_000,
            region_tol: 0.08,
            guard: 0.05,
            sensor_margin: 1.1,
            w_hi: 3e-9,
            sweep_points: 60,
            // ~0.75 wire-cap share plus one gate input of the generic tech.
            c_branch: 13e-15,
            r_bracket: (50.0, 2e6),
        }
    }
}

/// A ready-to-apply pulse test for one path through the fault site.
#[derive(Debug, Clone)]
pub struct PathTestPlan {
    /// The sensitized structural path.
    pub path: Path,
    /// Primary-input vector holding the side inputs non-controlling.
    pub vector: InputVector,
    /// Chosen pulse kind at the path input (*l* = positive-going).
    pub polarity: Polarity,
    /// Injected pulse width `ω_in`, seconds.
    pub w_in: f64,
    /// Sensing threshold `ω_th`, seconds.
    pub w_th: f64,
    /// Minimum detectable defect resistance, ohms (`None`: not detectable
    /// inside the configured bracket).
    pub r_min: Option<f64>,
}

/// Generates ranked test plans for an external ROP on `site`'s on-path
/// fan-out branch. Plans come back sorted by `R_min` ascending
/// (undetectable paths last), so `plans[0]` is the paper's "best path".
///
/// The one-site form of [`SitePlanner`]; a caller planning several sites
/// of one netlist should build one planner and call
/// [`SitePlanner::plan`] per site.
///
/// # Errors
///
/// [`CoreError::NoSensitizablePath`] when no candidate path can be
/// sensitized; [`CoreError::InvalidPlan`] for an unusable
/// [`TestgenConfig::r_bracket`].
pub fn plan_for_site(
    nl: &Netlist,
    site: SignalId,
    lib: &TimingLibrary,
    cfg: &TestgenConfig,
) -> Result<Vec<PathTestPlan>, CoreError> {
    SitePlanner::new(nl, lib, cfg)?.plan(site)
}

/// The pulse kinds tried per path, in tie-break order: on equal `R_min`
/// the earlier kind wins.
const POLARITIES: [Polarity; 2] = [Polarity::PositiveGoing, Polarity::NegativeGoing];

/// Test generation for many sites of one netlist that does each path's
/// site-independent work once (DESIGN.md §5.14).
///
/// Sensitization, the healthy [`PathTimingModel`] and each pulse kind's
/// `(ω_in, ω_th)` from the healthy transfer knee are pure functions of
/// (netlist, path, library, config), and a path through several probed
/// sites is a candidate of each. The planner memoizes them per distinct
/// path; [`SitePlanner::plan`] runs only the site-specific part (the
/// fault mapping and the `R_min` search). Its plans are bit-identical
/// to [`plan_for_site`]'s, whatever the order or thread sites are planned
/// in.
///
/// The memo grows with every distinct path planned and is never
/// invalidated, so a planner should live for one run over one netlist.
#[derive(Debug)]
pub struct SitePlanner<'a> {
    nl: &'a Netlist,
    lib: &'a TimingLibrary,
    cfg: TestgenConfig,
    /// Per distinct candidate path: its shared work, or `None` when it
    /// yields no plan for any site (unsensitizable or over budget).
    memo: Mutex<PathMap<Option<Arc<SharedPath>>>>,
    /// Model evaluations spent by the `R_min` searches so far.
    evaluations: AtomicU64,
}

/// The site-independent planning work for one path.
#[derive(Debug)]
struct SharedPath {
    vector: InputVector,
    healthy: PathTimingModel,
    /// Per pulse kind ([`POLARITIES`] order): `(ω_in, ω_th)`, or `None`
    /// when the healthy transfer has no region 3 or dampens `ω_in`.
    knees: [Option<(f64, f64)>; 2],
}

impl<'a> SitePlanner<'a> {
    /// A planner for sites of `nl` with gate models from `lib`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPlan`] when [`TestgenConfig::r_bracket`] is
    /// not finite, positive and increasing.
    pub fn new(
        nl: &'a Netlist,
        lib: &'a TimingLibrary,
        cfg: &TestgenConfig,
    ) -> Result<Self, CoreError> {
        let (r_lo, r_hi) = cfg.r_bracket;
        if !(r_lo.is_finite() && r_hi.is_finite() && 0.0 < r_lo && r_lo < r_hi) {
            return Err(CoreError::InvalidPlan {
                reason: format!(
                    "testgen r_bracket ({r_lo:e}, {r_hi:e}) must be finite, positive and increasing"
                ),
            });
        }
        Ok(SitePlanner {
            nl,
            lib,
            cfg: *cfg,
            memo: Mutex::new(PathMap::default()),
            evaluations: AtomicU64::new(0),
        })
    }

    /// Trial resistances the `R_min` searches of this planner have
    /// evaluated the model at so far, over every site and thread. The
    /// searches are site work, never memoized, so a run's total does not
    /// depend on thread count or site order.
    pub fn model_evaluations(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed) // ordering: a tally; it guards no data
    }

    /// [`plan_for_site`] for `site`: ranked plans, best first.
    ///
    /// # Errors
    ///
    /// As for [`plan_for_site`].
    pub fn plan(&self, site: SignalId) -> Result<Vec<PathTestPlan>, CoreError> {
        let (nl, cfg) = (self.nl, &self.cfg);
        let mut plans = Vec::new();

        // `new` checked the netlist, so the walk needs no loop check.
        visit_paths_from_fanin(nl, site, cfg.max_paths, |path| {
            let Some(shared) = self.shared(path)? else {
                return Ok(());
            };
            let fault = fault_for(path, nl, site, cfg.c_branch);
            let mut faulty = ModelPath::new(shared.healthy.clone(), Some(fault), cfg.r_bracket.0);

            // Try both pulse kinds; keep the better (lower R_min).
            let mut best: Option<(Polarity, f64, f64, Option<f64>)> = None;
            for (polarity, knee) in POLARITIES.into_iter().zip(shared.knees) {
                let Some((w_in, w_th)) = knee else {
                    continue;
                };
                let mut search = RMinSearch::new(&faulty, polarity, w_in, w_th);
                let r_min = search.run(&mut faulty, cfg.r_bracket)?;
                // ordering: a tally; it guards no data
                self.evaluations.fetch_add(search.spent, Ordering::Relaxed);
                if best.is_none_or(|b| rank(r_min) < rank(b.3)) {
                    best = Some((polarity, w_in, w_th, r_min));
                }
            }
            if let Some((polarity, w_in, w_th, r_min)) = best {
                plans.push(PathTestPlan {
                    path: path.clone(),
                    vector: shared.vector.clone(),
                    polarity,
                    w_in,
                    w_th,
                    r_min,
                });
            }
            Ok::<(), CoreError>(())
        })?;

        if plans.is_empty() {
            return Err(CoreError::NoSensitizablePath {
                site: nl.signal_name(site).to_owned(),
            });
        }
        plans.sort_by(|a, b| plan_rank(a).total_cmp(&plan_rank(b)));
        Ok(plans)
    }

    /// The memoized shared work for `path`, computed on first use. Two
    /// threads may both compute a missing entry; the work is pure, so
    /// either copy is the same. An error is returned, not memoized.
    fn shared(&self, path: &Path) -> Result<Option<Arc<SharedPath>>, CoreError> {
        if let Some(hit) = self.memo().get(path) {
            return Ok(hit.clone());
        }
        let entry = self.characterize(path)?.map(Arc::new);
        self.memo().insert(path.clone(), entry.clone());
        Ok(entry)
    }

    fn memo(&self) -> MutexGuard<'_, PathMap<Option<Arc<SharedPath>>>> {
        // A panic elsewhere cannot leave a half-written entry: inserts
        // are single calls on fully built values.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sensitizes `path` and characterizes its healthy transfer for both
    /// pulse kinds; `None` when it cannot be sensitized.
    fn characterize(&self, path: &Path) -> Result<Option<SharedPath>, CoreError> {
        let cfg = &self.cfg;
        // A blown backtrack budget just skips the path.
        let vector = match sensitize(self.nl, path, cfg.max_backtracks) {
            Ok(Some(v)) => v,
            Ok(None) | Err(_) => return Ok(None),
        };
        let healthy = PathTimingModel::from_netlist_path(self.nl, path, self.lib);
        let mut probe = ModelPath::new(healthy.clone(), None, 0.0);
        let mut knees = [None; 2];
        for (knee, polarity) in knees.iter_mut().zip(POLARITIES) {
            *knee = transfer_knee(&mut probe, polarity, cfg)?;
        }
        Ok(Some(SharedPath {
            vector,
            healthy,
            knees,
        }))
    }
}

/// `HashMap` keyed by [`Path`] under [`PathHasher`].
type PathMap<V> = HashMap<Path, V, BuildHasherDefault<PathHasher>>;

/// Multiply-rotate hasher for the planner's memo (the FxHash step). A
/// path key is a short run of small integers, hashed once per candidate
/// path: std's SipHash made the lookups a visible share of a campaign
/// (DESIGN.md §5.14), and the keys are not attacker-chosen.
#[derive(Debug, Default, Clone, Copy)]
struct PathHasher(u64);

impl Hasher for PathHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sort key: detectable plans by `R_min`, undetectable ones last.
fn plan_rank(p: &PathTestPlan) -> f64 {
    rank(p.r_min)
}

fn rank(r_min: Option<f64>) -> f64 {
    r_min.unwrap_or(f64::INFINITY)
}

/// Maps the external ROP at `site` onto the path's timing model.
fn fault_for(path: &Path, nl: &Netlist, site: SignalId, c_branch: f64) -> ModelFault {
    if site == path.from {
        return ModelFault::RcAtInput { c_branch };
    }
    let stage = path
        .steps
        .iter()
        .position(|s| nl.gate(s.gate).output == site)
        .expect("site lies on the path by construction");
    ModelFault::RcAfter { stage, c_branch }
}

/// `(ω_in, ω_th)` for one pulse kind on a fault-free path: `ω_in` from the
/// healthy curve's region-3 knee, `ω_th` the healthy output width over the
/// sensor margin.
fn transfer_knee(
    healthy: &mut ModelPath,
    polarity: Polarity,
    cfg: &TestgenConfig,
) -> Result<Option<(f64, f64)>, CoreError> {
    let curve = crate::transfer::TransferCurve::measure(
        healthy,
        polarity,
        cfg.w_hi / cfg.sweep_points as f64,
        cfg.w_hi,
        cfg.sweep_points,
    )?;
    let Some(w_in) = curve.region3_start(cfg.region_tol, cfg.guard) else {
        return Ok(None);
    };
    let w_healthy = healthy.model().pulse_out(w_in, polarity);
    if w_healthy <= 0.0 {
        return Ok(None);
    }
    Ok(Some((w_in, w_healthy / cfg.sensor_margin)))
}

/// The `R_min` search stops once its bracket satisfies
/// `hi ≤ lo·(1 + R_REL_TOL)`. Campaign checkpoints name it.
pub(crate) const R_REL_TOL: f64 = 1e-9;

/// The shortest step the `R_min` search takes from a bracket end, in
/// ln R: half the stopping width, so a step that lands past the root
/// next to an end closes the bracket.
const MIN_STEP: f64 = 0.5 * R_REL_TOL;

/// Cap on model evaluations per search, both bracket ends included. The
/// safeguard below halves the ln-R bracket at least every third step, so
/// the default bracket (ln width 10.6) reaches the tolerance within about
/// 100 evaluations even if no false-position step ever helps; a search
/// that hits the cap still returns a detected resistance.
const MAX_EVALUATIONS: u64 = 160;

/// One `R_min` search on a faulty path for one pulse kind and
/// `(ω_in, ω_th)`. No resistance changes the pulse entering the fault
/// element, so it is folded once and each trial folds only the elements
/// from the fault on.
struct RMinSearch {
    w_th: f64,
    /// Index of the fault element.
    at: usize,
    /// The pulse entering element `at` (`None`: dampened before it).
    front: Option<(f64, Polarity)>,
    /// Model evaluations spent so far.
    spent: u64,
}

/// One end of the search bracket: `x = ln r` and the excess
/// `w_out − ω_th` there, which the Illinois rule may have halved. A
/// difference of finite floats is negative exactly when `w_out < ω_th`,
/// so the sign of the excess as measured is the verdict.
#[derive(Clone, Copy)]
struct End {
    r: f64,
    x: f64,
    excess: f64,
}

impl End {
    fn detects(&self) -> bool {
        self.excess < 0.0
    }
}

impl RMinSearch {
    fn new(faulty: &ModelPath, polarity: Polarity, w_in: f64, w_th: f64) -> Self {
        let at = faulty
            .fault_element()
            .expect("a planned path carries its fault");
        RMinSearch {
            w_th,
            at,
            front: faulty.model().fold_pulse(0..at, w_in, polarity),
            spent: 0,
        }
    }

    /// The bracket end at `r = exp(x)`. Its output width is bit-identical
    /// to `faulty.pulse_width_out(w_in, polarity)`.
    fn end_at(&mut self, faulty: &mut ModelPath, r: f64, x: f64) -> Result<End, CoreError> {
        self.spent += 1;
        faulty.set_resistance(r)?;
        let model = faulty.model();
        let w = self
            .front
            .and_then(|(w, pol)| model.fold_pulse(self.at..model.elements().len(), w, pol))
            .map_or(0.0, |(w, _)| w);
        Ok(End {
            r,
            x,
            excess: w - self.w_th,
        })
    }

    /// `R_min` inside `(r_lo, r_hi)`, which [`SitePlanner::new`] checked
    /// to be finite, positive and increasing. Detection (`w_out < ω_th`)
    /// is monotone in R. `None` when even `r_hi` goes undetected, `r_lo`
    /// when it already detects; otherwise the detected end of a bracket
    /// narrowed on ln R by Illinois (false-position) steps, each replaced
    /// by the midpoint when it falls outside the bracket or when the last
    /// two steps failed to halve it.
    fn run(
        &mut self,
        faulty: &mut ModelPath,
        (r_lo, r_hi): (f64, f64),
    ) -> Result<Option<f64>, CoreError> {
        let mut hi = self.end_at(faulty, r_hi, r_hi.ln())?;
        if !hi.detects() {
            return Ok(None);
        }
        let mut lo = self.end_at(faulty, r_lo, r_lo.ln())?;
        if lo.detects() {
            return Ok(Some(r_lo));
        }
        // Which end the last false-position step replaced (true: `hi`).
        let mut last_hi = None;
        let mut width = hi.x - lo.x;
        let mut slow_steps = 0;
        while hi.r > lo.r * (1.0 + R_REL_TOL) && self.spent < MAX_EVALUATIONS {
            let secant = (lo.x * hi.excess - hi.x * lo.excess) / (hi.excess - lo.excess);
            let false_position = slow_steps < 2 && lo.x < secant && secant < hi.x;
            let x = if false_position {
                // A step closer than `MIN_STEP` to an end moves no end
                // usefully: it would creep up on a root it already found
                // from one side. Put it `MIN_STEP` away, where it closes
                // the bracket if the estimate is right.
                secant.max(lo.x + MIN_STEP).min(hi.x - MIN_STEP)
            } else {
                0.5 * (lo.x + hi.x)
            };
            let r = x.exp();
            if !(lo.r < r && r < hi.r) {
                break; // the bracket is down to rounding
            }
            let probe = self.end_at(faulty, r, x)?;
            // Illinois: an end kept through two false-position steps in a
            // row has its excess halved, so the next secant moves off it.
            // A midpoint step neither starts nor breaks such a run.
            if probe.detects() {
                hi = probe;
                if last_hi == Some(true) {
                    lo.excess *= 0.5;
                }
            } else {
                lo = probe;
                if last_hi == Some(false) {
                    hi.excess *= 0.5;
                }
            }
            if false_position {
                last_hi = Some(probe.detects());
            }
            if hi.x - lo.x <= 0.5 * width {
                width = hi.x - lo.x;
                slow_steps = 0;
            } else {
                slow_steps += 1;
            }
        }
        Ok(Some(hi.r))
    }
}

/// Maps a structural netlist path onto a transistor-level [`PathSpec`],
/// when every gate on it exists in the cell library (NAND2/3, NOR2/3,
/// NOT). Fan-out loading is approximated with dummy inverter loads.
///
/// Returns `None` when the path contains a kind the library cannot build
/// directly (AND/OR/BUF/XOR-family).
pub fn electrical_spec(nl: &Netlist, path: &Path) -> Option<PathSpec> {
    let fanouts = nl.fanouts();
    let mut stages = Vec::with_capacity(path.len());
    let mut fanout_loads = Vec::with_capacity(path.len());
    for step in &path.steps {
        let gate = nl.gate(step.gate);
        let kind = match (gate.kind, gate.inputs.len()) {
            (GateKind::Not, 1) => CellKind::Inv,
            (GateKind::Nand, 2) => CellKind::Nand2,
            (GateKind::Nand, 3) => CellKind::Nand3,
            (GateKind::Nor, 2) => CellKind::Nor2,
            (GateKind::Nor, 3) => CellKind::Nor3,
            _ => return None,
        };
        stages.push(kind);
        fanout_loads.push(fanouts[gate.output.index()].len().saturating_sub(1));
    }
    Some(PathSpec {
        stages,
        fanout_loads,
    })
}

/// Validates a plan at the transistor level: rebuilds the plan's path as
/// a CMOS netlist, injects the external ROP at the site, and checks that
/// a defect of `r_min` dampens the pulse below `w_th` while the
/// fault-free path passes it — the electrical closure of the §5 flow.
///
/// Returns `Ok(None)` when the path contains cells outside the library.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn validate_plan_electrically(
    nl: &Netlist,
    site: SignalId,
    plan: &PathTestPlan,
    tech: &Tech,
) -> Result<Option<bool>, CoreError> {
    let Some(spec) = electrical_spec(nl, &plan.path) else {
        return Ok(None);
    };
    let Some(r_min) = plan.r_min else {
        return Ok(Some(false));
    };

    // Fault-free: the pulse must clear the threshold.
    let techs = vec![*tech; spec.len()];
    let mut clean = BuiltPath::new(&spec, &PathFault::None, &techs);
    let healthy = clean
        .propagate_pulse(plan.w_in, plan.polarity, None)?
        .output_width;
    if healthy < plan.w_th {
        return Ok(Some(false));
    }

    // Faulty at a comfortably-past-r_min defect: must be dampened below
    // threshold. (The logic-level r_min is a model quantity; electrical
    // validation allows a 3x guard for model/electrical scale skew.)
    let Some(stage) = plan
        .path
        .steps
        .iter()
        .position(|s| nl.gate(s.gate).output == site)
        .filter(|i| i + 1 < spec.len())
    else {
        // Site on the PI branch or the last stage: the electrical builder
        // needs a downstream on-path stage; not electrically validatable
        // with this structure.
        return Ok(None);
    };
    let fault = PathFault::ExternalRop {
        stage,
        ohms: r_min * 3.0,
    };
    let mut faulty = BuiltPath::new(&spec, &fault, &techs);
    let damped = faulty
        .propagate_pulse(plan.w_in, plan.polarity, None)?
        .output_width;
    Ok(Some(damped < plan.w_th))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use pulsar_logic::{c432_like, GateKind};

    fn small_chain_netlist() -> (Netlist, SignalId) {
        // a → NOT → NAND(side b) → NOT → NOT → y
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g0 = nl.add_gate(GateKind::Not, &[a], "g0").unwrap();
        let g1 = nl.add_gate(GateKind::Nand, &[g0, b], "g1").unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[g1], "g2").unwrap();
        let y = nl.add_gate(GateKind::Not, &[g2], "y").unwrap();
        nl.mark_output(y);
        (nl, g1)
    }

    #[test]
    fn plans_are_generated_and_ranked() {
        let (nl, site) = small_chain_netlist();
        let lib = TimingLibrary::generic();
        let plans = plan_for_site(&nl, site, &lib, &TestgenConfig::default()).unwrap();
        assert!(!plans.is_empty());
        // Ranked ascending by R_min.
        for w in plans.windows(2) {
            assert!(plan_rank(&w[0]) <= plan_rank(&w[1]));
        }
        let best = &plans[0];
        assert!(best.w_in > 0.0 && best.w_th > 0.0 && best.w_th < best.w_in);
        let r = best
            .r_min
            .expect("a mid-path ROP on a short chain is detectable");
        assert!(r > 50.0 && r < 2e6, "R_min {r} out of bracket");
    }

    #[test]
    fn detection_holds_at_r_min_and_fails_below() {
        let (nl, site) = small_chain_netlist();
        let lib = TimingLibrary::generic();
        let cfg = TestgenConfig::default();
        let plans = plan_for_site(&nl, site, &lib, &cfg).unwrap();
        let best = &plans[0];
        let r_min = best.r_min.unwrap();

        let healthy = PathTimingModel::from_netlist_path(&nl, &best.path, &lib);
        let fault = fault_for(&best.path, &nl, site, cfg.c_branch);
        let mut p = ModelPath::new(healthy, Some(fault), r_min);
        p.set_resistance(r_min * 1.02).unwrap();
        assert!(p.pulse_width_out(best.w_in, best.polarity).unwrap() < best.w_th);
        p.set_resistance(r_min * 0.7).unwrap();
        assert!(p.pulse_width_out(best.w_in, best.polarity).unwrap() >= best.w_th);
    }

    /// Plans with `r_bracket` set to `bracket` must be refused, as a
    /// typed error naming the bracket, before the planner exists to
    /// evaluate anything.
    fn assert_bracket_refused(bracket: (f64, f64)) {
        let (nl, site) = small_chain_netlist();
        let lib = TimingLibrary::generic();
        let cfg = TestgenConfig {
            r_bracket: bracket,
            ..TestgenConfig::default()
        };
        match SitePlanner::new(&nl, &lib, &cfg) {
            Err(CoreError::InvalidPlan { reason }) => {
                assert!(reason.contains("r_bracket"), "{bracket:?}: {reason}");
            }
            other => panic!("{bracket:?} was accepted: {other:?}"),
        }
        assert!(
            matches!(
                plan_for_site(&nl, site, &lib, &cfg),
                Err(CoreError::InvalidPlan { .. })
            ),
            "{bracket:?}"
        );
    }

    #[test]
    fn non_finite_brackets_are_refused() {
        assert_bracket_refused((f64::NAN, 2e6));
        assert_bracket_refused((50.0, f64::NAN));
        assert_bracket_refused((50.0, f64::INFINITY));
        assert_bracket_refused((f64::NEG_INFINITY, 2e6));
    }

    #[test]
    fn non_positive_brackets_are_refused() {
        assert_bracket_refused((0.0, 2e6));
        assert_bracket_refused((-50.0, 2e6));
        assert_bracket_refused((-2e6, -50.0));
    }

    #[test]
    fn inverted_and_empty_brackets_are_refused() {
        // An inverted bracket used to plan every path as undetectable.
        assert_bracket_refused((2e6, 50.0));
        assert_bracket_refused((50.0, 50.0));
    }

    #[test]
    fn search_meets_its_tolerance_within_the_cap() {
        let (nl, site) = small_chain_netlist();
        let lib = TimingLibrary::generic();
        let cfg = TestgenConfig::default();
        let planner = SitePlanner::new(&nl, &lib, &cfg).unwrap();
        let plans = planner.plan(site).unwrap();
        let best = &plans[0];
        let healthy = PathTimingModel::from_netlist_path(&nl, &best.path, &lib);
        let fault = fault_for(&best.path, &nl, site, cfg.c_branch);
        let mut faulty = ModelPath::new(healthy, Some(fault), cfg.r_bracket.0);
        let mut search = RMinSearch::new(&faulty, best.polarity, best.w_in, best.w_th);
        let r = search.run(&mut faulty, cfg.r_bracket).unwrap().unwrap();
        assert_eq!(Some(r), best.r_min);
        assert!(
            search.spent < MAX_EVALUATIONS,
            "{} evaluations",
            search.spent
        );
        // The undetected end lies within the tolerance below it.
        faulty.set_resistance(r / (1.0 + 2.0 * R_REL_TOL)).unwrap();
        assert!(faulty.pulse_width_out(best.w_in, best.polarity).unwrap() >= best.w_th);
        faulty.set_resistance(r).unwrap();
        assert!(faulty.pulse_width_out(best.w_in, best.polarity).unwrap() < best.w_th);
        assert!(planner.model_evaluations() >= search.spent);
    }

    #[test]
    fn works_on_the_c432_like_benchmark() {
        let nl = c432_like();
        let lib = TimingLibrary::generic();
        let cfg = TestgenConfig {
            max_paths: 64,
            ..TestgenConfig::default()
        };
        // Use a mid-circuit gate output as fault site.
        let site = nl.gates()[40].output;
        match plan_for_site(&nl, site, &lib, &cfg) {
            Ok(plans) => {
                assert!(!plans.is_empty());
                // Plans with R_min must dominate the ranking head.
                if plans[0].r_min.is_none() {
                    assert!(plans.iter().all(|p| p.r_min.is_none()));
                }
            }
            Err(CoreError::NoSensitizablePath { .. }) => {
                // Acceptable for an unlucky site; the Fig. 11 experiment
                // iterates over many sites.
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn c17_plans_validate_electrically() {
        use pulsar_logic::c17;
        let nl = c17();
        let lib = TimingLibrary::generic();
        let cfg = TestgenConfig::default();
        let tech = Tech::generic_180nm();

        let mut validated = 0;
        for g in nl.gates() {
            let site = g.output;
            let Ok(plans) = plan_for_site(&nl, site, &lib, &cfg) else {
                continue;
            };
            let plan = &plans[0];
            // (None = PO-adjacent site: structurally unvalidatable.)
            if let Some(ok) = validate_plan_electrically(&nl, site, plan, &tech).unwrap() {
                assert!(
                    ok,
                    "plan for site {} failed electrical closure: {plan:?}",
                    nl.signal_name(site)
                );
                validated += 1;
            }
        }
        assert!(
            validated >= 2,
            "c17 must yield electrically-validated plans, got {validated}"
        );
    }

    #[test]
    fn electrical_spec_maps_library_kinds_only() {
        use pulsar_logic::GateKind;
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g0 = nl.add_gate(GateKind::Nand, &[a, b], "g0").unwrap();
        let g1 = nl.add_gate(GateKind::Xor, &[g0, b], "g1").unwrap();
        nl.mark_output(g1);
        let paths = pulsar_logic::enumerate_paths(&nl, None, 10).unwrap();
        let through_xor = paths.iter().find(|p| p.len() == 2).unwrap();
        assert!(
            electrical_spec(&nl, through_xor).is_none(),
            "XOR is not in the library"
        );
        let nand_only = paths.iter().find(|p| p.len() == 1 && p.from == a);
        if let Some(p) = nand_only {
            // A path ending mid-circuit is not PI→PO; paths are always
            // PI→PO here, so p ends at the XOR — skip.
            let _ = p;
        }
    }

    #[test]
    fn site_on_primary_input_uses_front_rc() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let g0 = nl.add_gate(GateKind::Not, &[a], "g0").unwrap();
        let y = nl.add_gate(GateKind::Not, &[g0], "y").unwrap();
        nl.mark_output(y);
        let lib = TimingLibrary::generic();
        let plans = plan_for_site(&nl, a, &lib, &TestgenConfig::default()).unwrap();
        assert!(
            plans[0].r_min.is_some(),
            "input-branch ROP must be detectable"
        );
    }
}
