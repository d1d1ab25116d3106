//! Test generation for the pulse method (paper §5, Fig. 11).
//!
//! For a given fault site (an external ROP on a signal's on-path fan-out
//! branch), the generator:
//!
//! 1. enumerates candidate PI→PO paths through the site,
//! 2. sensitizes each (side inputs non-controlling, pulse carrier free),
//! 3. characterizes each path's pulse-width transfer with the fast
//!    logic-level engine and picks `(ω_in, ω_th)` by the region-3 rule,
//! 4. computes the path's **minimum detectable resistance** `R_min` by
//!    bisection, trying both pulse kinds (*h* and *l*),
//! 5. ranks the plans: "the best path … should be searched between paths
//!    featuring low values of ω_in and ω_th" — lowest `R_min` first.

use crate::engine::{ModelFault, ModelPath, PathInstance};
use crate::error::CoreError;
use pulsar_analog::Polarity;
use pulsar_cells::{BuiltPath, CellKind, PathFault, PathSpec, Tech};
use pulsar_logic::{paths_from_fanin, sensitize, GateKind, InputVector, Netlist, Path, SignalId};
use pulsar_timing::{PathTimingModel, TimingLibrary};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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
    /// `R_min` bisection bracket, ohms.
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
/// sensitized; netlist errors propagate.
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
/// fault mapping and the `R_min` bisection). Its plans are bit-identical
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
    /// Structural netlist errors (a combinational loop).
    pub fn new(
        nl: &'a Netlist,
        lib: &'a TimingLibrary,
        cfg: &TestgenConfig,
    ) -> Result<Self, CoreError> {
        nl.topological_order()?;
        Ok(SitePlanner {
            nl,
            lib,
            cfg: *cfg,
            memo: Mutex::new(PathMap::default()),
        })
    }

    /// [`plan_for_site`] for `site`: ranked plans, best first.
    ///
    /// # Errors
    ///
    /// As for [`plan_for_site`].
    pub fn plan(&self, site: SignalId) -> Result<Vec<PathTestPlan>, CoreError> {
        let (nl, cfg) = (self.nl, &self.cfg);
        let candidates = paths_from_fanin(nl, site, cfg.max_paths)?;
        let mut plans = Vec::new();

        for path in candidates {
            let Some(shared) = self.shared(&path)? else {
                continue;
            };
            let fault = fault_for(&path, nl, site, cfg.c_branch);
            let mut faulty = ModelPath::new(shared.healthy.clone(), Some(fault), cfg.r_bracket.0);

            // Try both pulse kinds; keep the better (lower R_min).
            let mut best: Option<(Polarity, f64, f64, Option<f64>)> = None;
            for (polarity, knee) in POLARITIES.into_iter().zip(shared.knees) {
                let Some((w_in, w_th)) = knee else {
                    continue;
                };
                let r_min = r_min(&mut faulty, polarity, w_in, w_th, cfg.r_bracket)?;
                if best.is_none_or(|b| rank(r_min) < rank(b.3)) {
                    best = Some((polarity, w_in, w_th, r_min));
                }
            }
            if let Some((polarity, w_in, w_th, r_min)) = best {
                plans.push(PathTestPlan {
                    path,
                    vector: shared.vector.clone(),
                    polarity,
                    w_in,
                    w_th,
                    r_min,
                });
            }
        }

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

/// `R_min` by bisection inside `(r_lo, r_hi)`: detection (w_out < w_th)
/// is monotone in R. `None` when even `r_hi` goes undetected.
fn r_min(
    faulty: &mut ModelPath,
    polarity: Polarity,
    w_in: f64,
    w_th: f64,
    (r_lo, r_hi): (f64, f64),
) -> Result<Option<f64>, CoreError> {
    let mut detects = |r: f64| -> Result<bool, CoreError> {
        faulty.set_resistance(r)?;
        Ok(faulty.pulse_width_out(w_in, polarity)? < w_th)
    };
    Ok(if !detects(r_hi)? {
        None
    } else if detects(r_lo)? {
        Some(r_lo)
    } else {
        let (mut lo, mut hi) = (r_lo, r_hi);
        // Bisect in log space: resistance spans decades.
        for _ in 0..48 {
            let mid = (lo.ln() + hi.ln()).exp2div2();
            if detects(mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    })
}

/// Geometric mean helper for log-space bisection.
trait ExpDiv {
    fn exp2div2(self) -> f64;
}

impl ExpDiv for f64 {
    fn exp2div2(self) -> f64 {
        (self / 2.0).exp()
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
