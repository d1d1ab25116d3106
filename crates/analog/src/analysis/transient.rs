//! Transient analysis.
//!
//! The engine takes fixed base steps, snaps to waveform breakpoints so
//! pulse edges are never stepped over, starts each discontinuity with a
//! backward-Euler step (damping trapezoidal ringing), and integrates with
//! the trapezoidal rule elsewhere. Each step's Newton solve starts from a
//! linear extrapolation of the last two accepted points (`predict`).

use crate::circuit::{Circuit, NodeId};
use crate::elements::Element;
use crate::error::Error;
use crate::solver::mna::{collect_cap_branches, CapState, Method, System};
use crate::solver::workspace::{SolverWorkspace, SysScratch, TranScratch};
use crate::waveform::{DelayDetector, Edge, Trace};
use pulsar_obs::{Counter, Phase};

/// Configuration of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TranConfig {
    /// Base time step, seconds. Steps shrink below it only to land on a
    /// waveform breakpoint or to retry a failed Newton solve.
    pub step: f64,
    /// Stop time, seconds (simulation spans `[0, stop]`).
    pub stop: f64,
    /// Integration method inside smooth intervals.
    pub integrator: Integrator,
    /// Maximum Newton iterations per time point.
    pub max_newton: usize,
    /// Budget of accepted time points (the `t = 0` point included). A run
    /// that would exceed it fails with [`Error::StepBudgetExhausted`]
    /// instead of stepping indefinitely; the default is far above any
    /// well-posed deck at these time scales.
    pub max_points: usize,
    /// When the run may end before `stop`; the default, [`Until::Stop`],
    /// always runs to `stop`.
    pub until: Until,
}

/// A rule that ends a transient run before [`TranConfig::stop`] once the
/// measurement it serves can no longer change.
///
/// The rule is checked after each accepted step. Stepping is causal and
/// the step sequence does not depend on `stop`, so a run cut by a rule
/// holds exactly the first points of the full-window run, bit for bit.
/// Only the preserved baseline engine ([`Circuit::transient_baseline`])
/// ignores the rule and always runs to `stop`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Until {
    /// Run to `stop`.
    #[default]
    Stop,
    /// Stop once every source holds its final value and every node
    /// voltage is within `tol` volts of the DC operating point at those
    /// final values. When every source ends where it started (a pulse
    /// that returns to rest), that point is the run's own `t = 0` point;
    /// otherwise it costs one extra DC solve. A run with a periodic
    /// source, or whose extra DC solve fails, goes to `stop`.
    Settled {
        /// Largest node deviation from the final operating point, volts.
        tol: f64,
    },
    /// Stop once [`crate::propagation_delay`]`(input, in_edge, output,
    /// out_edge, threshold, after)` of the points so far is known: the
    /// output has made its `out_edge` crossing at or after the input's
    /// first `in_edge` crossing at or after `after`. Crossings are
    /// interpolated exactly as [`Trace::crossings`] does.
    ///
    /// Also stop once the delay is proven to exceed `within`: the output
    /// has not crossed, and [`crate::delay_floor`] of the points so far —
    /// measured from the output's last sample strictly off the threshold,
    /// before which no later crossing can be interpolated — is above
    /// `within`. The run then holds no delay, and its floor is the proof.
    /// `within = ∞` never stops this way.
    Crossed {
        /// Node whose crossing starts the delay.
        input: NodeId,
        /// Direction of the input crossing.
        in_edge: Edge,
        /// Node whose crossing ends the delay.
        output: NodeId,
        /// Direction of the output crossing.
        out_edge: Edge,
        /// Crossing threshold, volts.
        threshold: f64,
        /// Input crossings before this time are ignored, seconds.
        after: f64,
        /// Delays beyond this are not worth measuring, seconds (the
        /// verdict bound of a caller that compares the delay against
        /// thresholds); `f64::INFINITY` measures every delay.
        within: f64,
    },
}

/// Companion-model integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Trapezoidal rule (second order); the default.
    #[default]
    Trapezoidal,
    /// Backward Euler (first order, maximally damped). Useful as an
    /// accuracy/robustness ablation.
    BackwardEuler,
}

impl TranConfig {
    /// A transient run with `step` resolution up to `stop`, using the
    /// default trapezoidal integrator at fixed step.
    pub fn new(step: f64, stop: f64) -> Self {
        TranConfig {
            step,
            stop,
            integrator: Integrator::Trapezoidal,
            max_newton: 60,
            max_points: 5_000_000,
            until: Until::Stop,
        }
    }

    /// Same, but selecting the integrator.
    pub fn with_integrator(step: f64, stop: f64, integrator: Integrator) -> Self {
        TranConfig {
            integrator,
            ..TranConfig::new(step, stop)
        }
    }

    fn validate(&self) -> Result<(), Error> {
        if !(self.step.is_finite() && self.step > 0.0) {
            return Err(Error::InvalidTranConfig {
                reason: "step must be positive and finite",
            });
        }
        if !(self.stop.is_finite() && self.stop > 0.0) {
            return Err(Error::InvalidTranConfig {
                reason: "stop must be positive and finite",
            });
        }
        if self.step > self.stop {
            return Err(Error::InvalidTranConfig {
                reason: "step must not exceed stop",
            });
        }
        if self.max_newton == 0 {
            return Err(Error::InvalidTranConfig {
                reason: "max_newton must be at least 1",
            });
        }
        if self.max_points < 2 {
            return Err(Error::InvalidTranConfig {
                reason: "max_points must allow at least two time points",
            });
        }
        match self.until {
            Until::Settled { tol } if !(tol.is_finite() && tol >= 0.0) => {
                Err(Error::InvalidTranConfig {
                    reason: "settle tolerance must be non-negative and finite",
                })
            }
            Until::Crossed { within, .. } if within.is_nan() => Err(Error::InvalidTranConfig {
                reason: "verdict bound must not be NaN",
            }),
            _ => Ok(()),
        }
    }
}

/// Which node waveforms a transient run materializes.
///
/// Every accepted time point appends one sample per captured node, so a
/// Monte Carlo study that only measures a couple of outputs pays for every
/// node's waveform under [`TraceCapture::All`]. Capture selection never
/// touches the solver: the same points are accepted with the same
/// arithmetic, only the recording differs, so measurements on captured
/// nodes are bit-identical across policies.
///
/// A "measurements-only" policy is spelled `Nodes(...)` listing exactly
/// the nodes the caller will measure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TraceCapture {
    /// Record every node (the behavior of [`Circuit::transient`]).
    #[default]
    All,
    /// Record only the listed nodes, in the order given (duplicates are
    /// recorded once). [`TranResult::trace`] panics for any other node.
    Nodes(Vec<NodeId>),
}

/// Bookkeeping counters from one transient run.
///
/// Useful both as an allocation-free observability hook for benchmarks
/// (points accepted ≈ solver work) and to assert step-control behavior in
/// tests (e.g. that a run needed no Newton retries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranStats {
    /// Accepted time points, including the `t = 0` sample.
    pub accepted_points: usize,
    /// Newton failures that triggered a step-halving retry.
    pub newton_retries: usize,
    /// The [`TranConfig::until`] rule ended the run before `stop`.
    pub stopped_early: bool,
}

/// Result of a transient run: sampled node voltages over time.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// One sample series per captured column.
    voltages: Vec<Vec<f64>>,
    /// Column → node map for `TraceCapture::Nodes`; `None` means all
    /// nodes were captured and column `i` is node `i`.
    captured: Option<Vec<NodeId>>,
    stats: TranStats,
}

impl TranResult {
    /// Simulated time points (strictly increasing, starting at 0).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Borrowing view of one node's waveform, ready for measurements.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the simulated circuit, or if
    /// the run was made with a [`TraceCapture::Nodes`] policy that did not
    /// include `node`.
    pub fn trace(&self, node: NodeId) -> Trace<'_> {
        let col = match &self.captured {
            None => node.index(),
            Some(cols) => match cols.iter().position(|&c| c == node) {
                Some(col) => col,
                None => panic!(
                    "node {} was not captured by this transient run; \
                     add it to TraceCapture::Nodes or use TraceCapture::All",
                    node.index()
                ),
            },
        };
        Trace::new(&self.times, &self.voltages[col])
    }

    /// Number of accepted time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the run produced no samples (never the case on success).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Step-control and solver counters for this run.
    pub fn stats(&self) -> TranStats {
        self.stats
    }
}

/// Collects waveform breakpoints of all sources into `out` (cleared
/// first), sorted and deduplicated.
fn collect_breakpoints(ckt: &Circuit, stop: f64, out: &mut Vec<f64>) {
    out.clear();
    for e in ckt.elements() {
        match e {
            Element::Vsource { wave, .. } | Element::Isource { wave, .. } => {
                out.extend(wave.breakpoints(stop));
            }
            _ => {}
        }
    }
    out.sort_by(|a, b| a.total_cmp(b));
    out.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
}

/// When the sources fall quiet: the time from which every source holds
/// its final value, and whether each final value is its `t = 0` value.
/// `None` when some source never settles.
fn sources_settle(ckt: &Circuit) -> Option<(f64, bool)> {
    let waves = ckt.elements().iter().filter_map(|e| match e {
        Element::Vsource { wave, .. } | Element::Isource { wave, .. } => Some(wave),
        _ => None,
    });
    let mut from = 0.0_f64;
    for wave in waves.clone() {
        from = from.max(wave.settles_at()?);
    }
    let returns = waves
        .into_iter()
        .all(|w| w.value_at(from) == w.value_at(0.0));
    Some((from, returns))
}

/// Result-column reservation: the fixed-step window, capped by the point
/// budget so an oversized window fails on the budget, not the allocator.
fn reserve_points(cfg: &TranConfig, breakpoints: usize) -> usize {
    ((cfg.stop / cfg.step) as usize)
        .saturating_add(breakpoints + 2)
        .min(cfg.max_points)
}

/// Seeds `xn`, the Newton starting point of a step of size `h`, on the
/// line through the last two accepted points: `x + (x − x_prev)·h/h_prev`
/// over every unknown, where `h_prev` is the step from `x_prev` to `x`.
/// Only the initial guess comes from here; the convergence test that
/// accepts the solve is the same as for a start from `x`.
fn predict(xn: &mut [f64], x: &[f64], x_prev: &[f64], h: f64, h_prev: f64) {
    let ratio = h / h_prev;
    for ((p, &v), &v_prev) in xn.iter_mut().zip(x).zip(x_prev) {
        *p = v + (v - v_prev) * ratio;
    }
}

/// Run-time state of a [`TranConfig::until`] rule.
enum StopRule {
    Never,
    /// Node voltages are compared against the reference point held in the
    /// scratch buffer `rest`.
    Settled {
        from: f64,
        tol: f64,
    },
    Crossed {
        input: NodeId,
        output: NodeId,
        detector: DelayDetector,
        within: f64,
    },
}

impl StopRule {
    /// Arms `until` for a run of `ckt` whose `t = 0` solution is `x`,
    /// leaving a `Settled` rule's reference node voltages in `rest`.
    fn arm(
        ckt: &Circuit,
        until: Until,
        x: &[f64],
        rest: &mut Vec<f64>,
        scratch: &mut SysScratch,
    ) -> Result<Self, Error> {
        let nn = ckt.node_count() - 1;
        Ok(match until {
            Until::Stop => StopRule::Never,
            Until::Settled { tol } => match sources_settle(ckt) {
                Some((from, true)) => {
                    rest.clear();
                    rest.extend_from_slice(&x[..nn]);
                    StopRule::Settled { from, tol }
                }
                Some((from, false)) if ckt.dc_into(from, scratch, rest).is_ok() => {
                    rest.truncate(nn);
                    StopRule::Settled { from, tol }
                }
                _ => StopRule::Never,
            },
            Until::Crossed {
                input,
                in_edge,
                output,
                out_edge,
                threshold,
                after,
                within,
            } => {
                if input.index() > nn || output.index() > nn {
                    return Err(Error::InvalidTranConfig {
                        reason: "until names a node outside the circuit",
                    });
                }
                let mut detector = DelayDetector::new(in_edge, out_edge, threshold, after);
                let v = |n| System::node_voltage(x, n);
                detector.push(0.0, v(input), v(output));
                StopRule::Crossed {
                    input,
                    output,
                    detector,
                    within,
                }
            }
        })
    }

    /// Feeds the accepted point `(t, x)`; true once the rule is met.
    fn reached(&mut self, t: f64, x: &[f64], rest: &[f64]) -> bool {
        match self {
            StopRule::Never => false,
            StopRule::Settled { from, tol } => {
                t >= *from && x.iter().zip(rest).all(|(v, r)| (v - r).abs() <= *tol)
            }
            StopRule::Crossed {
                input,
                output,
                detector,
                within,
            } => {
                detector
                    .push(
                        t,
                        System::node_voltage(x, *input),
                        System::node_voltage(x, *output),
                    )
                    .is_some()
                    || detector.floor().is_some_and(|floor| floor > *within)
            }
        }
    }
}

impl Circuit {
    /// Runs a transient analysis over `[0, cfg.stop]`.
    ///
    /// The initial condition is the DC operating point at `t = 0` with all
    /// capacitor currents zero (quiescent start). Every node's waveform is
    /// recorded; allocates a fresh [`SolverWorkspace`] internally. Callers
    /// that solve repeatedly should prefer [`Circuit::transient_with`],
    /// which reuses a workspace across solves and can slim the capture set.
    ///
    /// # Errors
    ///
    /// Propagates DC-op failures, Newton non-convergence at a time point
    /// (after step-halving retries), invalid configurations and singular
    /// matrices.
    pub fn transient(&self, cfg: &TranConfig) -> Result<TranResult, Error> {
        self.transient_with(cfg, &mut SolverWorkspace::new(), &TraceCapture::All)
    }

    /// Runs a transient analysis reusing a caller-owned [`SolverWorkspace`]
    /// and recording only the nodes selected by `capture`.
    ///
    /// Numerics are bit-identical to [`Circuit::transient`] regardless of
    /// workspace reuse or capture policy (the workspace recycles
    /// allocations, never intermediate values).
    ///
    /// # Panics
    ///
    /// Panics if `capture` names a node that does not belong to `self`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Circuit::transient`].
    pub fn transient_with(
        &self,
        cfg: &TranConfig,
        ws: &mut SolverWorkspace,
        capture: &TraceCapture,
    ) -> Result<TranResult, Error> {
        cfg.validate()?;

        // Resolve the capture policy into a column → node map.
        let captured: Option<Vec<NodeId>> = match capture {
            TraceCapture::All => None,
            TraceCapture::Nodes(nodes) => {
                let mut cols: Vec<NodeId> = Vec::with_capacity(nodes.len());
                for &n in nodes {
                    assert!(
                        n.index() < self.node_count(),
                        "TraceCapture names node {} but the circuit has {} nodes",
                        n.index(),
                        self.node_count()
                    );
                    if !cols.contains(&n) {
                        cols.push(n);
                    }
                }
                Some(cols)
            }
        };

        let SolverWorkspace {
            sys: sys_scratch,
            tran,
        } = ws;
        let TranScratch {
            caps,
            cap_branches,
            breakpoints,
            x,
            xn,
            x_prev,
            rest,
        } = tran;

        // Initial condition: DC operating point into the workspace buffer.
        // Cheap handle clones (one Arc bump each per run); the borrow of
        // `sys_scratch` below would otherwise pin these fields.
        let rec = sys_scratch.recorder.clone();
        let cancel = sys_scratch.cancel.clone();
        self.dc_into(0.0, sys_scratch, x)?;
        let mut stop_rule = StopRule::arm(self, cfg.until, x, rest, sys_scratch)?;
        let mut sys = System::new(self, sys_scratch);
        let nu = x.len();
        xn.clear();
        xn.resize(nu, 0.0);
        x_prev.clear();
        x_prev.resize(nu, 0.0);

        // Companion-model states, one per capacitive branch.
        collect_cap_branches(self, cap_branches);
        caps.clear();
        caps.extend(cap_branches.iter().map(|&(a, b, _)| CapState {
            v_prev: System::node_voltage(x, a) - System::node_voltage(x, b),
            i_prev: 0.0,
        }));

        // Breakpoints: all waveform corners, sorted and deduplicated.
        collect_breakpoints(self, cfg.stop, breakpoints);
        let mut next_bp = 0usize;

        // Result storage is freshly allocated — it is handed to the caller
        // — but only for the captured columns.
        let capacity = reserve_points(cfg, breakpoints.len());
        let ncols = captured.as_ref().map_or(self.node_count(), Vec::len);
        let mut times = Vec::with_capacity(capacity);
        let mut voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(capacity); ncols];
        let record = |t: f64, x: &[f64], times: &mut Vec<f64>, voltages: &mut Vec<Vec<f64>>| {
            times.push(t);
            match &captured {
                None => {
                    for (n, column) in voltages.iter_mut().enumerate() {
                        column.push(System::node_voltage(x, NodeId(n)));
                    }
                }
                Some(cols) => {
                    for (&node, column) in cols.iter().zip(voltages.iter_mut()) {
                        column.push(System::node_voltage(x, node));
                    }
                }
            }
        };
        record(0.0, x, &mut times, &mut voltages);

        let mut stats = TranStats::default();
        let mut t = 0.0;
        // Force a BE step right after t=0 and after every breakpoint.
        // Such a step also starts Newton from the current point: there is
        // no earlier point (t = 0) or the sources' slope just changed.
        let mut after_discontinuity = true;
        // Predictor history: `x_prev` is the accepted point before `x`,
        // `h_prev` the accepted step between them. Read only when
        // `after_discontinuity` is false, i.e. after a first step.
        let mut h_prev = 0.0_f64;

        // Counters are bumped as the loop goes (not once at the end), so a
        // run that dies on the step budget still journals its true spend.
        let _step_span = rec.span(Phase::TransientStepLoop);
        while t < cfg.stop - 1e-18 {
            // Step budget: another point is needed but the budget is spent.
            if times.len() >= cfg.max_points {
                return Err(Error::StepBudgetExhausted {
                    points: times.len(),
                    time: t,
                });
            }
            // Cooperative cancellation: one relaxed load per accepted
            // point, only when a token is installed.
            if let Some(token) = &cancel {
                if let Some(reason) = token.cancelled() {
                    return Err(Error::Cancelled { time: t, reason });
                }
            }
            // Test-only injection hook (inert unless this thread armed a
            // FaultPlan); checked per accepted point, before the solve.
            if let Some(e) = crate::inject::fire(times.len(), t) {
                return Err(e);
            }
            // Next target time: base step, clipped to breakpoint/stop.
            let mut tn = t + cfg.step;
            let mut hit_bp = false;
            while next_bp < breakpoints.len() && breakpoints[next_bp] <= t + 1e-18 {
                next_bp += 1;
            }
            if next_bp < breakpoints.len() && breakpoints[next_bp] < tn - 1e-18 {
                tn = breakpoints[next_bp];
                hit_bp = true;
            }
            if tn > cfg.stop {
                tn = cfg.stop;
            }

            let method = match cfg.integrator {
                Integrator::BackwardEuler => Method::BackwardEuler,
                Integrator::Trapezoidal => {
                    if after_discontinuity {
                        Method::BackwardEuler
                    } else {
                        Method::Trapezoidal
                    }
                }
            };

            // Solve at tn, halving the step on Newton failure (up to 10x).
            // `xn` is the buffer partner of `x`: seeded by the predictor
            // (by copy on a retry), rotated (not cloned) on acceptance.
            let mut sub_t = tn;
            let mut attempts = 0;
            if after_discontinuity {
                xn.copy_from_slice(x);
            } else {
                predict(xn, x, x_prev, tn - t, h_prev);
            }
            loop {
                let h = sub_t - t;
                match sys.solve_newton(
                    xn,
                    sub_t,
                    Some((caps.as_slice(), h, method)),
                    1.0,
                    0.0,
                    cfg.max_newton,
                    "transient",
                ) {
                    Ok(()) => break,
                    Err(e @ Error::SingularMatrix { .. }) => return Err(e),
                    Err(e) => {
                        attempts += 1;
                        stats.newton_retries += 1;
                        rec.add(Counter::NewtonRetries, 1);
                        if attempts > 10 {
                            return Err(e);
                        }
                        sub_t = t + (sub_t - t) / 2.0;
                        xn.copy_from_slice(x);
                    }
                }
            }

            // Accept the (possibly shortened) step: `h` is recomputed from
            // the final `sub_t`, so it is the *accepted* step size even
            // after retries halved the trial step.
            let h = sub_t - t;
            // Advance the companion states, reusing the `c/h` conductances
            // the last (accepted) solve hoisted for exactly this `h` and
            // method — the same bits the baseline recomputes per branch.
            for ((st, &(a, b, _)), &geq) in
                caps.iter_mut().zip(cap_branches.iter()).zip(sys.cap_geq())
            {
                let v_now = System::node_voltage(xn, a) - System::node_voltage(xn, b);
                let i_now = match method {
                    Method::BackwardEuler => geq * (v_now - st.v_prev),
                    Method::Trapezoidal => geq * (v_now - st.v_prev) - st.i_prev,
                };
                st.v_prev = v_now;
                st.i_prev = i_now;
            }
            // Rotate the buffers: the old point becomes the predictor's
            // history, the new one the current point.
            core::mem::swap(x_prev, x);
            core::mem::swap(x, xn);
            h_prev = h;
            t = sub_t;
            record(t, x, &mut times, &mut voltages);
            rec.add(Counter::StepsAccepted, 1);
            after_discontinuity = hit_bp && (sub_t - tn).abs() < 1e-18;
            if t < cfg.stop - 1e-18 && stop_rule.reached(t, x, rest) {
                stats.stopped_early = true;
                break;
            }
        }

        stats.accepted_points = times.len();
        Ok(TranResult {
            times,
            voltages,
            captured,
            stats,
        })
    }

    /// The pre-workspace transient engine, preserved verbatim as the
    /// benchmark baseline and as an independent numerical cross-check.
    ///
    /// This is what [`Circuit::transient`] was before workspace reuse:
    /// it clones the solution vector on every step attempt and every
    /// accepted step, keeps the predictor history as a per-step
    /// allocation, records every node, and runs the preserved pre-PR
    /// Newton and LU kernels (`System::solve_newton_baseline`). It seeds
    /// each step's Newton solve with the same predictor as the
    /// workspace engine, so results are bit-identical to the workspace
    /// engine run dense (asserted by the `workspace_equivalence` tests).
    ///
    /// It ignores [`TranConfig::until`] and always runs to `stop`, which
    /// makes it the full-window reference for the early-stop rules.
    ///
    /// Not part of the simulation API proper: it is the test oracle of
    /// the `workspace_equivalence` suite and of
    /// `BuiltPath`'s baseline-engine unit tests.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Circuit::transient`].
    pub fn transient_baseline(&self, cfg: &TranConfig) -> Result<TranResult, Error> {
        cfg.validate()?;
        let mut scratch = SysScratch::default();
        // The baseline engine is dense end to end: pin its DC seed dense
        // too, so it stays bit-identical to the pre-sparse implementation
        // even for circuits above the `Auto` crossover dimension.
        scratch.sparse.mode = crate::solver::workspace::SolverMode::ForceDense;
        let mut x = Vec::new();
        self.dc_into(0.0, &mut scratch, &mut x)?;
        let mut sys = System::new(self, &mut scratch);

        // Companion-model states, one per capacitive branch.
        let mut branches = Vec::new();
        collect_cap_branches(self, &mut branches);
        let mut caps: Vec<CapState> = branches
            .iter()
            .map(|&(a, b, _)| CapState {
                v_prev: System::node_voltage(&x, a) - System::node_voltage(&x, b),
                i_prev: 0.0,
            })
            .collect();

        let mut breakpoints: Vec<f64> = Vec::new();
        collect_breakpoints(self, cfg.stop, &mut breakpoints);
        let mut next_bp = 0usize;

        let capacity = reserve_points(cfg, breakpoints.len());
        let mut times = Vec::with_capacity(capacity);
        let mut voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(capacity); self.node_count()];
        let record = |t: f64, x: &[f64], times: &mut Vec<f64>, voltages: &mut Vec<Vec<f64>>| {
            times.push(t);
            for (n, column) in voltages.iter_mut().enumerate() {
                column.push(System::node_voltage(x, NodeId(n)));
            }
        };
        record(0.0, &x, &mut times, &mut voltages);

        let mut t = 0.0;
        let mut after_discontinuity = true;
        let mut prev: Option<(f64, Vec<f64>)> = None; // (h of last step, x before it)

        while t < cfg.stop - 1e-18 {
            if times.len() >= cfg.max_points {
                return Err(Error::StepBudgetExhausted {
                    points: times.len(),
                    time: t,
                });
            }
            if let Some(e) = crate::inject::fire(times.len(), t) {
                return Err(e);
            }
            let mut tn = t + cfg.step;
            let mut hit_bp = false;
            while next_bp < breakpoints.len() && breakpoints[next_bp] <= t + 1e-18 {
                next_bp += 1;
            }
            if next_bp < breakpoints.len() && breakpoints[next_bp] < tn - 1e-18 {
                tn = breakpoints[next_bp];
                hit_bp = true;
            }
            if tn > cfg.stop {
                tn = cfg.stop;
            }

            let method = match cfg.integrator {
                Integrator::BackwardEuler => Method::BackwardEuler,
                Integrator::Trapezoidal => {
                    if after_discontinuity {
                        Method::BackwardEuler
                    } else {
                        Method::Trapezoidal
                    }
                }
            };

            let mut sub_t = tn;
            let mut attempts = 0;
            let mut xn = x.clone();
            if let (false, Some((h_prev, x_prev))) = (after_discontinuity, &prev) {
                predict(&mut xn, &x, x_prev, tn - t, *h_prev);
            }
            loop {
                let h = sub_t - t;
                match sys.solve_newton_baseline(
                    &mut xn,
                    sub_t,
                    Some((&caps, h, method)),
                    1.0,
                    0.0,
                    cfg.max_newton,
                    "transient",
                ) {
                    Ok(()) => break,
                    Err(e @ Error::SingularMatrix { .. }) => return Err(e),
                    Err(e) => {
                        attempts += 1;
                        if attempts > 10 {
                            return Err(e);
                        }
                        sub_t = t + (sub_t - t) / 2.0;
                        xn.copy_from_slice(&x);
                    }
                }
            }

            let h = sub_t - t;
            prev = Some((h, x.clone()));
            for (st, &(a, b, c)) in caps.iter_mut().zip(&branches) {
                let v_now = System::node_voltage(&xn, a) - System::node_voltage(&xn, b);
                let i_now = match method {
                    Method::BackwardEuler => c / h * (v_now - st.v_prev),
                    Method::Trapezoidal => 2.0 * c / h * (v_now - st.v_prev) - st.i_prev,
                };
                st.v_prev = v_now;
                st.i_prev = i_now;
            }
            x = xn;
            t = sub_t;
            record(t, &x, &mut times, &mut voltages);
            after_discontinuity = hit_bp && (sub_t - tn).abs() < 1e-18;
        }

        let stats = TranStats {
            accepted_points: times.len(),
            ..TranStats::default()
        };
        Ok(TranResult {
            times,
            voltages,
            captured: None,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::elements::Waveform;
    use crate::waveform::Polarity;

    /// RC charging must match the analytic exponential.
    #[test]
    fn rc_step_response_matches_analytic() {
        let r = 1e3;
        let c = 1e-12;
        let tau = r * c; // 1 ns
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        ckt.resistor(vin, out, r);
        ckt.capacitor(out, Circuit::GROUND, c);

        let res = ckt.transient(&TranConfig::new(5e-12, 6e-9)).unwrap();
        let trace = res.trace(out);
        for k in 1..=4 {
            let t = 0.1e-9 + k as f64 * tau;
            let expect = 1.0 - (-(k as f64)).exp();
            let got = trace.value_at(t);
            assert!(
                (got - expect).abs() < 5e-3,
                "at t={k}τ expected {expect:.4}, got {got:.4}"
            );
        }
    }

    #[test]
    fn rc_with_backward_euler_also_converges() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(vin, Circuit::GROUND, Waveform::step(0.0, 1.0, 0.0, 1e-12));
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);

        let cfg = TranConfig::with_integrator(2e-12, 10e-9, Integrator::BackwardEuler);
        let res = ckt.transient(&cfg).unwrap();
        assert!((res.trace(out).last_value() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn pulse_passes_through_rc_and_returns() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::single_pulse(0.0, 1.0, 1e-9, 50e-12, 50e-12, 2e-9),
        );
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 0.2e-12);

        let res = ckt.transient(&TranConfig::new(10e-12, 8e-9)).unwrap();
        let tr = res.trace(out);
        // The output peaks near 1 V during the pulse and decays after.
        let peak = tr.max_value();
        assert!(peak > 0.98, "peak {peak}");
        assert!(
            tr.last_value() < 0.02,
            "should discharge, got {}",
            tr.last_value()
        );
    }

    #[test]
    fn breakpoints_are_sampled_exactly() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::single_pulse(0.0, 1.0, 1.0e-9, 0.1e-9, 0.1e-9, 0.5e-9),
        );
        ckt.resistor(vin, Circuit::GROUND, 1e3);

        // Base step of 0.3 ns would step over the 1.0 ns edge without
        // breakpoint snapping.
        let res = ckt.transient(&TranConfig::new(0.3e-9, 3e-9)).unwrap();
        for bp in [1.0e-9, 1.1e-9, 1.6e-9, 1.7e-9] {
            assert!(
                res.times().iter().any(|&t| (t - bp).abs() < 1e-15),
                "breakpoint {bp:e} not sampled"
            );
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 1.0);

        assert!(ckt.transient(&TranConfig::new(-1.0, 1.0)).is_err());
        assert!(ckt.transient(&TranConfig::new(1.0, -1.0)).is_err());
        assert!(ckt.transient(&TranConfig::new(2.0, 1.0)).is_err());
        let mut cfg = TranConfig::new(1e-12, 1e-9);
        cfg.max_newton = 0;
        assert!(ckt.transient(&cfg).is_err());
    }

    #[test]
    fn step_budget_degrades_into_reported_failure() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);

        let mut cfg = TranConfig::new(5e-12, 6e-9);
        cfg.max_points = 10;
        match ckt.transient(&cfg) {
            Err(Error::StepBudgetExhausted { points, time }) => {
                assert_eq!(points, 10);
                assert!(time < 6e-9);
            }
            other => panic!("expected StepBudgetExhausted, got {other:?}"),
        }
        // A budget the run fits inside must not trip.
        cfg.max_points = 100_000;
        assert!(ckt.transient(&cfg).is_ok());
    }

    #[test]
    fn armed_fault_plan_trips_the_solver() {
        use crate::inject::{FaultKind, FaultPlan};

        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);
        let cfg = TranConfig::new(5e-12, 2e-9);

        let plan = FaultPlan::new()
            .fail_sample_at_point(0, FaultKind::NonConvergence, 3, 1)
            .fail_sample(1, FaultKind::SingularMatrix, FaultPlan::ALWAYS);
        {
            let _g = plan.arm(0, 1);
            match ckt.transient(&cfg) {
                Err(Error::NoConvergence { context, .. }) => assert_eq!(context, "injected fault"),
                other => panic!("expected injected NoConvergence, got {other:?}"),
            }
        }
        {
            // Attempt 2 is past sample 0's failing window: the run heals.
            let _g = plan.arm(0, 2);
            assert!(ckt.transient(&cfg).is_ok());
        }
        {
            let _g = plan.arm(1, 5);
            assert!(matches!(
                ckt.transient(&cfg),
                Err(Error::SingularMatrix { row: usize::MAX })
            ));
        }
        // Nothing armed: clean run.
        assert!(ckt.transient(&cfg).is_ok());
    }

    /// RC deck shared by the capture and stop-rule tests below.
    fn rc_deck() -> (Circuit, NodeId, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-12);
        (ckt, vin, out)
    }

    #[test]
    fn capture_nodes_is_bit_identical_to_all() {
        let (ckt, vin, out) = rc_deck();
        let cfg = TranConfig::new(5e-12, 2e-9);
        let all = ckt.transient(&cfg).unwrap();
        let mut ws = SolverWorkspace::new();
        let slim = ckt
            .transient_with(&cfg, &mut ws, &TraceCapture::Nodes(vec![out, out, vin]))
            .unwrap();
        assert_eq!(all.times(), slim.times());
        assert_eq!(all.trace(out).values(), slim.trace(out).values());
        assert_eq!(all.trace(vin).values(), slim.trace(vin).values());
    }

    #[test]
    #[should_panic(expected = "was not captured")]
    fn uncaptured_node_trace_panics_with_guidance() {
        let (ckt, vin, out) = rc_deck();
        let cfg = TranConfig::new(5e-12, 2e-9);
        let mut ws = SolverWorkspace::new();
        let res = ckt
            .transient_with(&cfg, &mut ws, &TraceCapture::Nodes(vec![vin]))
            .unwrap();
        let _ = res.trace(out);
    }

    #[test]
    fn workspace_reuse_across_runs_is_bit_identical() {
        // One workspace reused across three runs (including a different
        // deck in between) must reproduce the fresh-workspace results
        // exactly: reuse recycles allocations, never values.
        let (ckt, _, out) = rc_deck();
        let cfg = TranConfig::new(5e-12, 2e-9);
        let fresh = ckt.transient(&cfg).unwrap();
        let mut ws = SolverWorkspace::new();
        let first = ckt
            .transient_with(&cfg, &mut ws, &TraceCapture::All)
            .unwrap();
        // Interleave a different topology to dirty the buffers.
        let mut other = Circuit::new();
        let a = other.node("a");
        other.vsource(a, Circuit::GROUND, Waveform::dc(1.0));
        other.resistor(a, Circuit::GROUND, 50.0);
        other
            .transient_with(&TranConfig::new(1e-12, 0.1e-9), &mut ws, &TraceCapture::All)
            .unwrap();
        let again = ckt
            .transient_with(&cfg, &mut ws, &TraceCapture::All)
            .unwrap();
        for res in [&first, &again] {
            assert_eq!(fresh.times(), res.times());
            assert_eq!(fresh.trace(out).values(), res.trace(out).values());
        }
    }

    #[test]
    fn coupling_capacitor_divider() {
        // Two series capacitors from a stepped source: the middle node
        // settles at the capacitive divider voltage right after the edge.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::step(0.0, 1.0, 0.5e-9, 1e-12),
        );
        ckt.capacitor(vin, mid, 3e-15);
        ckt.capacitor(mid, Circuit::GROUND, 1e-15);

        let res = ckt.transient(&TranConfig::new(5e-12, 1.0e-9)).unwrap();
        let v = res.trace(mid).value_at(0.6e-9);
        // Divider: 3f/(3f+1f) = 0.75 (slowly discharged by the gmin floor,
        // negligible at this time scale).
        assert!((v - 0.75).abs() < 0.01, "capacitive divider voltage {v}");
    }

    /// Asserts `early` holds exactly the first points of `full`.
    fn assert_prefix(early: &TranResult, full: &TranResult, nodes: &[NodeId]) {
        let n = early.len();
        assert!(n < full.len(), "the rule must cut the run: {n} points");
        assert_eq!(early.times(), &full.times()[..n]);
        for &node in nodes {
            assert_eq!(early.trace(node).values(), &full.trace(node).values()[..n]);
        }
    }

    #[test]
    fn settled_rule_cuts_a_returning_pulse_after_it_has_passed() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::single_pulse(0.0, 1.0, 1e-9, 50e-12, 50e-12, 0.5e-9),
        );
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 0.2e-12);

        let full_cfg = TranConfig::new(10e-12, 8e-9);
        let full = ckt.transient(&full_cfg).unwrap();
        let cfg = TranConfig {
            until: Until::Settled { tol: 0.05 },
            ..full_cfg
        };
        let early = ckt.transient(&cfg).unwrap();
        assert!(early.stats().stopped_early && !full.stats().stopped_early);
        assert_eq!(early.stats().accepted_points, early.len());
        assert_prefix(&early, &full, &[vin, out]);
        // Past the pulse, and every node back within tol of rest.
        let t_end = *early.times().last().unwrap();
        assert!((1.6e-9..3e-9).contains(&t_end), "stopped at {t_end:e}");
        assert!(early.trace(out).last_value().abs() <= 0.05);
        let w = |r: &TranResult| {
            r.trace(out)
                .widest_pulse_width(0.5, Polarity::PositiveGoing)
        };
        assert_eq!(w(&early).to_bits(), w(&full).to_bits());
        assert!(w(&full) > 0.0);
    }

    #[test]
    fn settled_rule_solves_the_final_point_when_sources_do_not_return() {
        // A step ends away from its t = 0 value: the rule compares against
        // the DC point at the final source values (out = 1 V).
        let (ckt, vin, out) = rc_deck();
        let full_cfg = TranConfig::new(5e-12, 20e-9);
        let full = ckt.transient(&full_cfg).unwrap();
        let early = ckt
            .transient(&TranConfig {
                until: Until::Settled { tol: 1e-3 },
                ..full_cfg
            })
            .unwrap();
        assert!(early.stats().stopped_early);
        assert_prefix(&early, &full, &[vin, out]);
        let v = early.trace(out).last_value();
        assert!((v - 1.0).abs() <= 1e-3, "stopped {v} away from 1 V");
        // tau = 1 ns: within 1 mV after about 6.9 tau.
        assert!(*early.times().last().unwrap() < 8e-9);
    }

    #[test]
    fn settled_rule_never_fires_on_a_periodic_source() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        ckt.vsource(
            vin,
            Circuit::GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.1e-9,
                rise: 10e-12,
                fall: 10e-12,
                width: 0.2e-9,
                period: 0.5e-9,
            },
        );
        ckt.resistor(vin, Circuit::GROUND, 1e3);
        let full_cfg = TranConfig::new(10e-12, 3e-9);
        let cfg = TranConfig {
            until: Until::Settled { tol: 10.0 },
            ..full_cfg.clone()
        };
        let res = ckt.transient(&cfg).unwrap();
        assert!(!res.stats().stopped_early);
        assert_eq!(res.times(), ckt.transient(&full_cfg).unwrap().times());
    }

    #[test]
    fn crossed_rule_stops_once_the_delay_is_known() {
        let (ckt, vin, out) = rc_deck();
        let full_cfg = TranConfig::new(5e-12, 6e-9);
        let crossed = |out_edge| TranConfig {
            until: Until::Crossed {
                input: vin,
                in_edge: Edge::Rising,
                output: out,
                out_edge,
                threshold: 0.5,
                after: 0.0,
                within: f64::INFINITY,
            },
            ..full_cfg.clone()
        };
        let full = ckt.transient(&full_cfg).unwrap();
        let early = ckt.transient(&crossed(Edge::Rising)).unwrap();
        assert!(early.stats().stopped_early);
        assert_prefix(&early, &full, &[vin, out]);
        let delay = |r: &TranResult| {
            crate::propagation_delay(
                &r.trace(vin),
                Edge::Rising,
                &r.trace(out),
                Edge::Rising,
                0.5,
                0.0,
            )
        };
        let d = delay(&full).expect("the RC output crosses");
        assert_eq!(delay(&early).map(f64::to_bits), Some(d.to_bits()));
        // RC: ln 2 tau after the input edge, give or take the ramp.
        assert!((d - 0.693e-9).abs() < 20e-12, "delay {d:e}");

        // An edge that never comes keeps the full window.
        let never = ckt.transient(&crossed(Edge::Falling)).unwrap();
        assert!(!never.stats().stopped_early);
        assert_eq!(never.times(), full.times());
    }

    #[test]
    fn crossed_rule_stops_once_the_delay_exceeds_its_bound() {
        let (ckt, vin, out) = rc_deck();
        let full_cfg = TranConfig::new(5e-12, 6e-9);
        let bounded = |within| TranConfig {
            until: Until::Crossed {
                input: vin,
                in_edge: Edge::Rising,
                output: out,
                out_edge: Edge::Rising,
                threshold: 0.5,
                after: 0.0,
                within,
            },
            ..full_cfg.clone()
        };
        let full = ckt.transient(&full_cfg).unwrap();
        let measure = |r: &TranResult| {
            let (i, o) = (r.trace(vin), r.trace(out));
            (
                crate::propagation_delay(&i, Edge::Rising, &o, Edge::Rising, 0.5, 0.0),
                crate::delay_floor(&i, Edge::Rising, &o, Edge::Rising, 0.5, 0.0),
            )
        };
        let d = measure(&full).0.expect("the RC output crosses");
        // A bound below the delay: the run stops without the crossing, a
        // prefix of the full run whose floor clears the bound by at most
        // one step and never passes the delay.
        let within = 0.3e-9;
        let cut = ckt.transient(&bounded(within)).unwrap();
        assert!(cut.stats().stopped_early);
        assert_prefix(&cut, &full, &[vin, out]);
        let (delay, floor) = measure(&cut);
        assert_eq!(delay, None);
        let floor = floor.expect("a censored run proves a floor");
        assert!(within < floor && floor <= within + 5e-12 && floor <= d);
        // A bound above the delay measures it, bit for bit.
        let exact = ckt.transient(&bounded(1e-9)).unwrap();
        assert_eq!(measure(&exact).0.map(f64::to_bits), Some(d.to_bits()));
        assert_eq!(
            exact.len(),
            ckt.transient(&bounded(f64::INFINITY)).unwrap().len()
        );
    }

    #[test]
    fn invalid_stop_rules_are_rejected() {
        let (ckt, vin, _) = rc_deck();
        for tol in [-1e-3, f64::NAN, f64::INFINITY] {
            let cfg = TranConfig {
                until: Until::Settled { tol },
                ..TranConfig::new(5e-12, 1e-9)
            };
            assert!(matches!(
                ckt.transient(&cfg),
                Err(Error::InvalidTranConfig { .. })
            ));
        }
        for (output, within) in [(NodeId(99), f64::INFINITY), (vin, f64::NAN)] {
            let cfg = TranConfig {
                until: Until::Crossed {
                    input: vin,
                    in_edge: Edge::Rising,
                    output,
                    out_edge: Edge::Rising,
                    threshold: 0.5,
                    after: 0.0,
                    within,
                },
                ..TranConfig::new(5e-12, 1e-9)
            };
            assert!(matches!(
                ckt.transient(&cfg),
                Err(Error::InvalidTranConfig { .. })
            ));
        }
    }

    #[test]
    fn oversized_window_fails_on_the_budget_not_the_allocator() {
        // 1e18 points of window: reserving result storage for all of them
        // used to abort the process before the budget check could run.
        let (ckt, _, _) = rc_deck();
        let mut cfg = TranConfig::new(1e-15, 1e3);
        cfg.max_points = 1000;
        let budget = |r: Result<TranResult, Error>| match r {
            Err(Error::StepBudgetExhausted { points, .. }) => assert_eq!(points, 1000),
            other => panic!("expected StepBudgetExhausted, got {other:?}"),
        };
        budget(ckt.transient(&cfg));
        budget(ckt.transient_baseline(&cfg));
    }
}
