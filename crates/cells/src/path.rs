//! Sensitized combinational paths with injectable resistive defects.
//!
//! The paper's electrical experiments all run on one structure: a path of
//! a handful of CMOS gates with realistic fan-out loading, a stimulus at
//! its input, and a resistive defect (open or bridge) somewhere along it.
//! [`BuiltPath`] builds that structure as a transistor netlist and exposes
//! the two measurements everything else is computed from:
//!
//! * [`BuiltPath::propagate_transition`] — the classic delay-fault view:
//!   apply one input edge, measure the path propagation delay.
//! * [`BuiltPath::propagate_pulse`] — the paper's proposal: apply a pulse
//!   of width `w_in`, measure the width that survives to the output
//!   (`w_out = f_p(w_in)`), zero when fully dampened.

use crate::gates::{CellKind, CmosBuilder, RopSite};
use crate::tech::Tech;
use pulsar_analog::{
    delay_floor, propagation_delay, CancelToken, Circuit, Edge, Error, Integrator, NodeId,
    Polarity, Recorder, SolverMode, SolverWorkspace, SymbolicCache, TraceCapture, TranConfig,
    TranResult, Until, Waveform,
};

/// Structural description of a path: the gate chain plus per-stage extra
/// fan-out loads (dummy inverters hanging on each stage output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    /// On-path cells, input to output.
    pub stages: Vec<CellKind>,
    /// `fanout_loads[i]` dummy inverter loads on stage `i`'s output.
    pub fanout_loads: Vec<usize>,
}

impl PathSpec {
    /// A plain inverter chain of `n` stages with single fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn inverter_chain(n: usize) -> Self {
        assert!(n > 0, "a path needs at least one stage");
        PathSpec {
            stages: vec![CellKind::Inv; n],
            fanout_loads: vec![0; n],
        }
    }

    /// The 7-gate path used throughout the paper's Section 4, with a
    /// fan-out branch at the faulted stage's output (the `B` / `B·C`
    /// structure of Fig. 1b).
    pub fn paper_chain() -> Self {
        let mut spec = PathSpec::inverter_chain(7);
        spec.fanout_loads[1] = 1;
        spec
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True for an empty spec (never produced by the constructors).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Whether the whole path inverts: odd number of inverting stages.
    pub fn inverts(&self) -> bool {
        self.stages.iter().filter(|s| s.is_inverting()).count() % 2 == 1
    }
}

/// Resistive defect injected into a path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathFault {
    /// Fault-free reference.
    None,
    /// Internal resistive open inside stage `stage` (0-based), slowing one
    /// output edge (paper Fig. 1a).
    InternalRop {
        /// Faulted stage index.
        stage: usize,
        /// Pull-up (slows rising output) or pull-down (slows falling).
        site: RopSite,
        /// Defect resistance, ohms.
        ohms: f64,
    },
    /// External resistive open between stage `stage`'s output and the
    /// on-path fan-out branch feeding stage `stage + 1` (paper Fig. 1b).
    ExternalRop {
        /// Faulted stage index (must not be the last stage).
        stage: usize,
        /// Defect resistance, ohms.
        ohms: f64,
    },
    /// Resistive bridge between stage `stage`'s output and the output of a
    /// steady aggressor inverter (paper Fig. 4).
    Bridge {
        /// Victim stage index.
        stage: usize,
        /// Bridge resistance, ohms.
        ohms: f64,
        /// Steady logic value at the aggressor output.
        aggressor_high: bool,
    },
    /// Resistive bridge **inside** one gate: between the first internal
    /// stack node of stage `stage` and its own output. This is the
    /// "internal BF" case the paper mentions but leaves out "for the sake
    /// of brevity" (§2); the stage must be a cell with a series stack
    /// (NAND/NOR).
    InternalBridge {
        /// Faulted stage index.
        stage: usize,
        /// Bridge resistance, ohms.
        ohms: f64,
    },
}

impl PathFault {
    /// The injected defect resistance, when the fault carries one.
    pub fn ohms(&self) -> Option<f64> {
        match *self {
            PathFault::None => None,
            PathFault::InternalRop { ohms, .. }
            | PathFault::ExternalRop { ohms, .. }
            | PathFault::Bridge { ohms, .. }
            | PathFault::InternalBridge { ohms, .. } => Some(ohms),
        }
    }

    /// Validates this fault against a path of `stages` stages.
    ///
    /// The defect resistance must be finite and strictly positive (a zero,
    /// negative, or NaN value used to be accepted here and only blew up
    /// later, inside the circuit build), and the stage index must be in
    /// range — an external ROP additionally needs a downstream stage for
    /// its on-path fan-out branch.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] with parameter `"ohms"` or `"stage"`.
    pub fn validate(&self, stages: usize) -> Result<(), Error> {
        if let Some(ohms) = self.ohms() {
            if !(ohms.is_finite() && ohms > 0.0) {
                return Err(Error::InvalidParameter {
                    element: "path fault",
                    parameter: "ohms",
                    value: ohms,
                });
            }
        }
        let bad_stage = |stage: usize| {
            Err(Error::InvalidParameter {
                element: "path fault",
                parameter: "stage",
                value: stage as f64,
            })
        };
        match *self {
            PathFault::InternalRop { stage, .. }
            | PathFault::Bridge { stage, .. }
            | PathFault::InternalBridge { stage, .. }
                if stage >= stages =>
            {
                bad_stage(stage)
            }
            PathFault::ExternalRop { stage, .. } if stage + 1 >= stages => bad_stage(stage),
            _ => Ok(()),
        }
    }
}

/// How much waveform data a path's default measurement runs record.
///
/// Capture selection never touches the solver — the same time points are
/// accepted with the same arithmetic under every policy — so any
/// measurement taken from a captured trace is bit-identical across
/// policies. The policy only decides which measurements *exist* in the
/// result, and how much per-point storage the run pays for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CapturePolicy {
    /// Capture every stage output (the default):
    /// [`PulseOutcome::stage_widths`] is fully populated.
    #[default]
    StageOutputs,
    /// Capture only the nodes the top-level measurement reads — the path
    /// output for pulse runs. [`PulseOutcome::stage_widths`] comes back
    /// empty; `output_width` and `peak_fraction` are bit-identical to the
    /// other policies. The hot-path setting for Monte Carlo width
    /// studies, where per-stage waveforms are recorded only to be thrown
    /// away.
    MeasurementsOnly,
}

/// Result of a pulse-propagation run.
#[derive(Debug, Clone)]
pub struct PulseOutcome {
    /// Width of the pulse measured at the path output (at `vdd/2`), or
    /// `0.0` when the pulse was fully dampened.
    pub output_width: f64,
    /// Peak excursion at the output as a fraction of VDD (quantifies
    /// partial dampening even when no full pulse appears).
    pub peak_fraction: f64,
    /// Pulse width measured at each stage output, input to output side.
    /// Empty when the run recorded only the output trace
    /// ([`CapturePolicy::MeasurementsOnly`]).
    pub stage_widths: Vec<f64>,
}

impl PulseOutcome {
    /// True when no pulse crossed the threshold at the output.
    pub fn dampened(&self) -> bool {
        self.output_width == 0.0
    }
}

/// Result of a single-transition (delay-fault view) run.
#[derive(Debug, Clone, Copy)]
pub struct TransitionOutcome {
    /// Input-edge to output-edge propagation delay at `vdd/2`, or `None`
    /// when the output never switched within the simulated window, or the
    /// run stopped at its verdict bound first (`floor` is then set).
    pub delay: Option<f64>,
    /// The edge direction expected (and looked for) at the output.
    pub output_edge: Edge,
    /// Set when [`BuiltPath::propagate_transition_within`] stopped the run
    /// before the output crossed: a proven lower bound on the delay, above
    /// the bound it was given ([`pulsar_analog::delay_floor`]).
    pub floor: Option<f64>,
}

/// A transistor-level sensitized path with one injectable defect.
///
/// See the crate-level example. Instances are built once per Monte Carlo
/// sample and reused across stimulus and resistance sweeps.
#[derive(Debug)]
pub struct BuiltPath {
    circuit: Circuit,
    input: NodeId,
    input_src: usize,
    stage_outputs: Vec<NodeId>,
    fault_resistor: Option<usize>,
    vdd: f64,
    inverts: bool,
    /// Stimulus edge rate (10–90 %-ish ramp time of the ideal source).
    input_edge: f64,
    /// Time the stimulus starts.
    t_start: f64,
    /// Default simulation step.
    step: f64,
    /// Retry-escalation level (0 = nominal); see [`BuiltPath::set_robustness`].
    robustness: u32,
    /// Multiplicative step perturbation applied with the robustness
    /// ladder (1.0 = none).
    step_scale: f64,
    /// Element index of the VDD rail source (quiescent-current probe).
    vdd_source: usize,
    /// Per-path solver scratch, reused across every simulation this path
    /// runs (stimulus sweeps, resistance sweeps, retries).
    workspace: SolverWorkspace,
    /// When false, simulations run through the allocation-per-step
    /// baseline engine instead of the workspace (the unit tests' oracle).
    #[cfg(test)]
    reuse_workspace: bool,
    /// Which node waveforms the default measurement runs record.
    capture_policy: CapturePolicy,
    /// Node tolerance of the pulse queries' [`Until::Settled`] rule: a
    /// quarter of the smallest |Vt0| of any transistor in the path.
    settle_tol: f64,
}

impl BuiltPath {
    /// Builds the path with per-stage technology samples.
    ///
    /// `techs[i]` parameterizes stage `i`'s transistors — the Monte Carlo
    /// hook for per-gate process variation. Dummy fan-out loads and the
    /// bridge aggressor use `techs[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `techs.len() != spec.len()`, if a fault references a
    /// stage out of range, or if an external ROP is placed on the last
    /// stage (it needs an on-path fan-out branch).
    pub fn new(spec: &PathSpec, fault: &PathFault, techs: &[Tech]) -> Self {
        assert_eq!(techs.len(), spec.len(), "one Tech sample per stage");
        match *fault {
            PathFault::InternalRop { stage, .. }
            | PathFault::Bridge { stage, .. }
            | PathFault::InternalBridge { stage, .. } => {
                assert!(stage < spec.len(), "fault stage {stage} out of range");
            }
            PathFault::ExternalRop { stage, .. } => {
                assert!(
                    stage + 1 < spec.len(),
                    "external ROP needs a downstream stage (stage {stage} of {})",
                    spec.len()
                );
            }
            PathFault::None => {}
        }

        let tech0 = &techs[0];
        let mut b = CmosBuilder::new(tech0);
        let (input, input_src) = b.input_with_index("pi", Waveform::dc(0.0));

        let mut fault_resistor = None;
        let mut stage_outputs = Vec::with_capacity(spec.len());
        let mut on_path = input;

        for (i, (&kind, tech)) in spec.stages.iter().zip(techs).enumerate() {
            // Internal ROP on this stage?
            let rop = match *fault {
                PathFault::InternalRop { stage, site, ohms } if stage == i => Some((site, ohms)),
                _ => None,
            };

            // Assemble input pins: the on-path signal first, side inputs
            // tied to their sensitizing values (per-pin for complex cells).
            let mut pins = vec![on_path];
            for v in kind.side_values(0) {
                pins.push(b.constant(v));
            }

            let g = b.gate(kind, tech, &pins, &format!("u{i}"), rop);
            if let Some(r) = g.rop_resistor {
                fault_resistor = Some(r);
            }
            stage_outputs.push(g.output);

            // Dummy fan-out loads on the driver output.
            for k in 0..spec.fanout_loads[i] {
                b.gate(
                    CellKind::Inv,
                    tech0,
                    &[g.output],
                    &format!("load{i}_{k}"),
                    None,
                );
            }

            // External ROP: the on-path branch to the next stage goes
            // through the defect resistor (node B → B·C of Fig. 1b).
            on_path = match *fault {
                PathFault::ExternalRop { stage, ohms } if stage == i => {
                    let bc = b.circuit_mut().node(format!("u{i}.bc"));
                    fault_resistor = Some(b.circuit_mut().resistor(g.output, bc, ohms));
                    bc
                }
                _ => g.output,
            };

            // Interconnect of the on-path fan-out branch (the wire segment
            // between the via and the next gate's input). Fault-free this
            // cap sits on the driver net and just adds to its wire load;
            // with an external ROP it is the charge the defect resistance
            // must supply, which is what degrades the branch's slopes.
            let c_branch = 0.75 * tech.c_wire;
            if c_branch > 0.0 {
                b.circuit_mut()
                    .capacitor(on_path, pulsar_analog::Circuit::GROUND, c_branch);
            }

            // Bridge: steady aggressor inverter tied through the bridge
            // resistance to this stage's output.
            if let PathFault::Bridge {
                stage,
                ohms,
                aggressor_high,
            } = *fault
            {
                if stage == i {
                    // Inverter input at the opposite rail makes the output
                    // sit steadily at `aggressor_high`.
                    let drive = b.constant(!aggressor_high);
                    let ag = b.gate(CellKind::Inv, tech0, &[drive], &format!("aggr{i}"), None);
                    fault_resistor = Some(b.circuit_mut().resistor(g.output, ag.output, ohms));
                }
            }

            // Internal bridge: the stage's own stack node shorted (through
            // R) to its output.
            if let PathFault::InternalBridge { stage, ohms } = *fault {
                if stage == i {
                    let inner = *g.internal_nodes.first().unwrap_or_else(|| {
                        panic!(
                            "internal bridge needs a stacked cell at stage {i}, found {:?}",
                            kind
                        )
                    });
                    fault_resistor = Some(b.circuit_mut().resistor(inner, g.output, ohms));
                }
            }
        }

        let vdd_source = b.vdd_source();
        let (circuit, _) = b.finish();
        // Every transistor, loads and aggressor included, takes its
        // threshold from one of `techs`.
        let min_vt = techs
            .iter()
            .flat_map(|t| [t.vt0_n.abs(), t.vt0_p.abs()])
            .fold(f64::INFINITY, f64::min);
        BuiltPath {
            circuit,
            input,
            input_src,
            stage_outputs,
            fault_resistor,
            vdd: tech0.vdd,
            inverts: spec.inverts(),
            input_edge: 80e-12,
            t_start: 0.5e-9,
            step: 4e-12,
            robustness: 0,
            step_scale: 1.0,
            vdd_source,
            workspace: SolverWorkspace::new(),
            #[cfg(test)]
            reuse_workspace: true,
            capture_policy: CapturePolicy::default(),
            settle_tol: 0.25 * min_vt,
        }
    }

    /// Fallible counterpart of [`BuiltPath::new`]: validates the tech count
    /// and the fault (stage range and defect-resistance domain, via
    /// [`PathFault::validate`]) and returns a typed error instead of
    /// panicking. Campaign drivers use this so a misconfigured fault is
    /// rejected when the path is armed, not deep inside a sample.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] with parameter `"techs"` when
    /// `techs.len() != spec.len()`, or `"ohms"`/`"stage"` from
    /// [`PathFault::validate`].
    ///
    /// # Panics
    ///
    /// Like [`BuiltPath::new`], still panics when an internal bridge is
    /// placed on a stage without a series stack — that is a property of
    /// the cell library, not of the numeric fault parameters.
    pub fn try_new(spec: &PathSpec, fault: &PathFault, techs: &[Tech]) -> Result<Self, Error> {
        if techs.len() != spec.len() {
            return Err(Error::InvalidParameter {
                element: "path",
                parameter: "techs",
                value: techs.len() as f64,
            });
        }
        fault.validate(spec.len())?;
        Ok(Self::new(spec, fault, techs))
    }

    /// Runs a transient through the path's own workspace (or, in unit
    /// tests with reuse disabled, the baseline engine). All measurement
    /// paths funnel here so the toggle covers every simulation uniformly.
    fn sim(&mut self, cfg: &TranConfig, capture: &TraceCapture) -> Result<TranResult, Error> {
        #[cfg(test)]
        if !self.reuse_workspace {
            return self.circuit.transient_baseline(cfg);
        }
        self.circuit
            .transient_with(cfg, &mut self.workspace, capture)
    }

    /// The underlying circuit (for inspection or custom probing).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Path input node (driven by the stimulus source).
    pub fn input(&self) -> NodeId {
        self.input
    }

    /// Stage output nodes, input side to output side.
    pub fn stage_outputs(&self) -> &[NodeId] {
        &self.stage_outputs
    }

    /// The path output node (last stage output).
    ///
    /// # Panics
    ///
    /// Never panics: specs are non-empty by construction.
    pub fn output(&self) -> NodeId {
        *self.stage_outputs.last().expect("non-empty path")
    }

    /// Supply voltage of the built circuit.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Whether the path logically inverts.
    pub fn inverts(&self) -> bool {
        self.inverts
    }

    /// Changes the injected defect resistance without rebuilding.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] if the path was built fault-free or the
    /// resistance is out of domain.
    pub fn set_fault_resistance(&mut self, ohms: f64) -> Result<(), Error> {
        match self.fault_resistor {
            Some(idx) => self.circuit.set_resistance(idx, ohms),
            None => Err(Error::InvalidParameter {
                element: "path fault",
                parameter: "ohms",
                value: ohms,
            }),
        }
    }

    /// Overrides the stimulus edge time (default 80 ps).
    pub fn set_input_edge(&mut self, seconds: f64) {
        self.input_edge = seconds;
    }

    /// Stimulus edge time (seconds); see [`BuiltPath::set_input_edge`].
    pub fn input_edge(&self) -> f64 {
        self.input_edge
    }

    /// Time the default stimulus starts (seconds).
    pub fn stimulus_start(&self) -> f64 {
        self.t_start
    }

    /// The transient configuration default measurement runs would use,
    /// given `extra` seconds of stimulus-dependent window (e.g. the input
    /// pulse width). Exposes the default window to static pre-checks.
    ///
    /// The window is an upper bound: the pulse-width and delay queries
    /// attach an early-stop rule ([`TranConfig::until`]) and usually end
    /// far sooner, with bit-identical measurements. The returned config
    /// runs the full window ([`Until::Stop`]), which is what the lint
    /// step-budget check sizes and what a forced full-window run passes
    /// back in as `cfg`.
    pub fn default_config(&self, extra: f64) -> TranConfig {
        self.default_cfg(extra)
    }

    /// Node tolerance of the early-stop rule the pulse queries use
    /// ([`Until::Settled`]): a quarter of the smallest |Vt0| in the path,
    /// 0.1 V on the generic 180 nm technology.
    ///
    /// Why it is safe: the square-law model cuts a transistor off exactly
    /// at `vgs <= vt0`. While every node sits within this tolerance of its
    /// resting point, no gate-source voltage moves by more than half a
    /// threshold, so every off transistor stays off and no node can cross
    /// VDD/2 again: the widths measured so far are final.
    pub fn settle_tolerance(&self) -> f64 {
        self.settle_tol
    }

    /// Attaches a particle-strike current source to the given stage's
    /// output: a triangular current pulse of `peak_amps` starting at `t0`
    /// and lasting `duration`, *discharging* the node (an n-diffusion
    /// hit). Returns the element index of the source.
    ///
    /// This is the on-line scenario of the paper's §1: the same sensing
    /// circuits used off-line for pulse testing "were introduced to
    /// on-line detect transient faults originated by ionizing particles".
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn add_strike_source(
        &mut self,
        stage: usize,
        peak_amps: f64,
        t0: f64,
        duration: f64,
    ) -> usize {
        let node = self.stage_outputs[stage];
        // Triangular current pulse out of the node (into ground).
        let wave = Waveform::Pwl(vec![
            (0.0, 0.0),
            (t0, 0.0),
            (t0 + duration / 2.0, peak_amps),
            (t0 + duration, 0.0),
        ]);
        self.circuit
            .isource(pulsar_analog::Circuit::GROUND, node, wave)
    }

    /// Holds the path input statically at logic 0 or 1 (for on-line
    /// monitoring scenarios where the block is quiescent).
    ///
    /// # Errors
    ///
    /// Propagates waveform-replacement failures (never occurs for paths
    /// built by [`BuiltPath::new`]).
    pub fn hold_input(&mut self, value: bool) -> Result<(), Error> {
        let v = if value { self.vdd } else { 0.0 };
        self.circuit
            .set_vsource_wave(self.input_src, Waveform::dc(v))
    }

    /// Runs a transient with the current stimuli and returns the result
    /// for custom probing. Every node is captured.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_transient(&mut self, cfg: Option<&TranConfig>) -> Result<TranResult, Error> {
        let cfg_default = self.default_cfg(0.0);
        let cfg = cfg.unwrap_or(&cfg_default);
        self.sim(cfg, &TraceCapture::All)
    }

    /// Quiescent supply current with the path input held at `input_high`:
    /// the I_DDQ observable (paper §2: bridges change "the static and
    /// dynamic current"). Healthy static CMOS draws essentially nothing;
    /// a bridge between fighting drivers draws milliamps.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver errors.
    pub fn quiescent_current(&mut self, input_high: bool) -> Result<f64, Error> {
        self.hold_input(input_high)?;
        let dc = self.circuit.dc_op_with(0.0, &mut self.workspace)?;
        dc.source_current(&self.circuit, self.vdd_source)
    }

    /// Overrides the default transient step (default 4 ps).
    pub fn set_step(&mut self, seconds: f64) {
        self.step = seconds;
    }

    /// Enables or disables solver-workspace reuse (default: enabled).
    ///
    /// With reuse on, every simulation this path runs goes through one
    /// per-path [`SolverWorkspace`], recycling the MNA matrix, Newton
    /// scratch and transient buffers across calls. With reuse off,
    /// simulations run through the allocation-per-step baseline engine,
    /// the oracle the unit tests hold the workspace engine to bit for bit.
    #[cfg(test)]
    pub fn set_workspace_reuse(&mut self, on: bool) {
        self.reuse_workspace = on;
    }

    /// Sets how much waveform data the default measurement runs record;
    /// see [`CapturePolicy`]. Width and delay numbers are bit-identical
    /// across policies — only the set of recorded traces (and therefore
    /// [`PulseOutcome::stage_widths`]) changes.
    pub fn set_capture_policy(&mut self, policy: CapturePolicy) {
        self.capture_policy = policy;
    }

    /// The currently configured capture policy.
    pub fn capture_policy(&self) -> CapturePolicy {
        self.capture_policy
    }

    /// Selects the linear-solver engine used inside Newton iterations for
    /// this path's workspace-backed simulations: [`SolverMode::Auto`]
    /// (sparse above the crossover dimension, dense below — the default),
    /// [`SolverMode::ForceDense`], or [`SolverMode::ForceSparse`].
    pub fn set_solver_mode(&mut self, mode: SolverMode) {
        self.workspace.set_solver_mode(mode);
    }

    /// The currently configured solver mode.
    pub fn solver_mode(&self) -> SolverMode {
        self.workspace.solver_mode()
    }

    /// Runs the sparse symbolic analysis (fill-reducing ordering +
    /// elimination structure) for this path's circuit now, and returns a
    /// shareable handle to it, or `None` when the sparse path is not
    /// engaged (below crossover, forced dense, or structurally singular).
    /// Studies prime one instance and [`BuiltPath::adopt_symbolic`] the
    /// result into every other instance of the same topology so the
    /// analysis runs exactly once per topology.
    pub fn prime_symbolic(&mut self) -> Option<SymbolicCache> {
        SolverWorkspace::prime_symbolic(&mut self.workspace, &self.circuit)
    }

    /// Installs a symbolic factorization produced by
    /// [`BuiltPath::prime_symbolic`] on another instance of the *same*
    /// circuit topology. Adopting a cache whose topology key does not
    /// match this path's circuit is safe — it is simply re-analyzed on
    /// first use.
    pub fn adopt_symbolic(&mut self, cache: &SymbolicCache) {
        self.workspace.adopt_symbolic(cache);
    }

    /// Installs a per-run observability [`Recorder`] on this path's
    /// workspace: every subsequent solve records its counters, spans and
    /// histograms there. The default recorder is disabled and costs one
    /// branch per instrumentation point. Recording never changes the arithmetic —
    /// waveforms are bit-identical with the recorder on or off.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.workspace.set_recorder(rec);
    }

    /// Installs a cooperative cancellation token on this path's solver
    /// workspace: every subsequent transient solve checks it once per
    /// accepted time point and aborts with a cancellation error when it
    /// trips. Cancellation never corrupts state — the workspace stays
    /// reusable for the next (re-)run.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.workspace.set_cancel_token(token);
    }

    /// Applies the retry-escalation ladder used after Newton
    /// non-convergence: each `level` halves the default step (down to
    /// 1/64 of nominal) and doubles the Newton iteration budget; from
    /// level 2 up, default simulations also switch to fixed-step backward
    /// Euler — maximally damped, first order, the configuration of last
    /// resort. `step_scale` perturbs the tightened step multiplicatively
    /// (clamped to `[0.5, 1.0]`) so a retry cannot alias against the same
    /// pathological breakpoint spacing that broke the first attempt;
    /// callers derive it from the sample's seeded RNG stream to keep
    /// retries deterministic. Level 0 with scale 1.0 restores nominal
    /// behavior.
    pub fn set_robustness(&mut self, level: u32, step_scale: f64) {
        self.robustness = level.min(6);
        self.step_scale = if step_scale.is_finite() {
            step_scale.clamp(0.5, 1.0)
        } else {
            1.0
        };
    }

    fn rest_level(&self, polarity: Polarity) -> f64 {
        match polarity {
            Polarity::PositiveGoing => 0.0,
            Polarity::NegativeGoing => self.vdd,
        }
    }

    fn default_cfg(&self, extra: f64) -> TranConfig {
        let per_stage = 0.8e-9;
        let stop = self.t_start + extra + per_stage * self.stage_outputs.len() as f64 + 1e-9;
        let level = self.robustness;
        if level == 0 {
            return TranConfig::new(self.step, stop);
        }
        // Escalated retry: the step tightened per the ladder.
        let step = self.step * self.step_scale / (1u64 << level) as f64;
        let mut cfg = if level >= 2 {
            TranConfig::with_integrator(step, stop, Integrator::BackwardEuler)
        } else {
            TranConfig::new(step, stop)
        };
        cfg.max_newton = 60usize.saturating_mul(1 << level.min(4));
        cfg
    }

    /// Polarity expected at the output for an input pulse of `polarity`.
    pub fn output_polarity(&self, polarity: Polarity) -> Polarity {
        if self.inverts {
            polarity.inverted()
        } else {
            polarity
        }
    }

    /// Injects a pulse of width `w_in` (measured at 50 % of VDD) and the
    /// given polarity at the path input, simulates, and measures the
    /// surviving pulse at the output — and, under the default
    /// [`CapturePolicy::StageOutputs`], at every intermediate stage.
    ///
    /// Pass a custom `cfg` to control step/stop; `None` uses a window
    /// sized from the path length ([`BuiltPath::default_config`]) and runs
    /// all of it: a dampened pulse's peak excursion can still creep up in
    /// the quiet tail an early stop would cut, so `peak_fraction` needs
    /// the full window.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`Error::NoConvergence`], ...).
    pub fn propagate_pulse(
        &mut self,
        w_in: f64,
        polarity: Polarity,
        cfg: Option<&TranConfig>,
    ) -> Result<PulseOutcome, Error> {
        // The capture policy decides which columns the run materializes;
        // the solve itself is identical either way.
        let capture = match self.capture_policy {
            CapturePolicy::StageOutputs => TraceCapture::Nodes(self.stage_outputs.clone()),
            CapturePolicy::MeasurementsOnly => TraceCapture::Nodes(vec![self.output()]),
        };
        // The full window: a dampened pulse's peak excursion can still
        // creep up in the tail the settle rule would cut.
        let (outcome, _) = self.pulse_run(w_in, polarity, cfg, &capture, Until::Stop)?;
        Ok(outcome)
    }

    /// Width-only fast path: like [`BuiltPath::propagate_pulse`] under
    /// [`CapturePolicy::MeasurementsOnly`] (regardless of the configured
    /// policy), returning just the output pulse width. This is what
    /// Monte Carlo width studies run per sample.
    ///
    /// With `cfg = None` the run ends early under [`Until::Settled`] at
    /// [`BuiltPath::settle_tolerance`]: once the input pulse is over and
    /// every node is back near rest, no node can cross VDD/2 again, so
    /// the width is bit-identical to the full window's.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`Error::NoConvergence`], ...).
    pub fn pulse_width_only(
        &mut self,
        w_in: f64,
        polarity: Polarity,
        cfg: Option<&TranConfig>,
    ) -> Result<f64, Error> {
        let capture = TraceCapture::Nodes(vec![self.output()]);
        let settled = Until::Settled {
            tol: self.settle_tol,
        };
        let (outcome, _) = self.pulse_run(w_in, polarity, cfg, &capture, settled)?;
        Ok(outcome.output_width)
    }

    /// Like [`BuiltPath::propagate_pulse`] but also returns the full
    /// transient result (every node captured) for waveform inspection /
    /// plotting.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn propagate_pulse_traced(
        &mut self,
        w_in: f64,
        polarity: Polarity,
        cfg: Option<&TranConfig>,
    ) -> Result<(PulseOutcome, TranResult), Error> {
        self.pulse_run(w_in, polarity, cfg, &TraceCapture::All, Until::Stop)
    }

    /// Shared pulse-propagation engine behind [`BuiltPath::propagate_pulse`]
    /// (stage-output capture) and [`BuiltPath::propagate_pulse_traced`]
    /// (full capture). `until` applies to the default window only; a
    /// caller's `cfg` runs as given.
    fn pulse_run(
        &mut self,
        w_in: f64,
        polarity: Polarity,
        cfg: Option<&TranConfig>,
        capture: &TraceCapture,
        until: Until,
    ) -> Result<(PulseOutcome, TranResult), Error> {
        if !(w_in.is_finite() && w_in > 0.0) {
            return Err(Error::InvalidParameter {
                element: "stimulus",
                parameter: "w_in",
                value: w_in,
            });
        }
        let rest = self.rest_level(polarity);
        // Pulse excursion: to the opposite rail and back (negative for a
        // high-resting kind-h pulse).
        let delta = (self.vdd - rest) - rest;
        let wave = pulse_wave(rest, delta, self.t_start, self.input_edge, w_in);
        self.circuit.set_vsource_wave(self.input_src, wave)?;

        let cfg_default = TranConfig {
            until,
            ..self.default_cfg(w_in)
        };
        let cfg = cfg.unwrap_or(&cfg_default);
        let res = self.sim(cfg, capture)?;

        let vth = self.vdd / 2.0;
        // Per-stage widths need the stage traces; a slim capture
        // (measurements-only) skips them instead of guessing.
        let have_stages = match capture {
            TraceCapture::All => true,
            TraceCapture::Nodes(nodes) => self.stage_outputs.iter().all(|n| nodes.contains(n)),
        };
        let mut stage_widths = Vec::new();
        if have_stages {
            stage_widths.reserve(self.stage_outputs.len());
            let mut pol = polarity;
            for &n in &self.stage_outputs {
                pol = pol.inverted(); // every library cell inverts
                stage_widths.push(res.trace(n).widest_pulse_width(vth, pol));
            }
        }
        let out_pol = self.output_polarity(polarity);
        let out_trace = res.trace(self.output());
        let out_rest = self.rest_level(out_pol);
        let outcome = PulseOutcome {
            output_width: out_trace.widest_pulse_width(vth, out_pol),
            peak_fraction: (out_trace.peak_excursion(out_rest, out_pol) / self.vdd).clamp(0.0, 1.0),
            stage_widths,
        };
        Ok((outcome, res))
    }

    /// Applies a single input transition and measures the propagation
    /// delay to the output at `vdd/2`.
    ///
    /// With `cfg = None` the run ends under [`Until::Crossed`] as soon as
    /// the output edge has crossed, so the delay is bit-identical to the
    /// full window's; a swallowed transition runs the whole window.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn propagate_transition(
        &mut self,
        input_edge: Edge,
        cfg: Option<&TranConfig>,
    ) -> Result<TransitionOutcome, Error> {
        self.transition_run(input_edge, cfg, f64::INFINITY)
    }

    /// [`BuiltPath::propagate_transition`] over the default window for a
    /// caller that only compares the delay against thresholds: the run
    /// also ends once the delay is proven to exceed `within` seconds
    /// ([`Until::Crossed`]), and reports that proof in
    /// [`TransitionOutcome::floor`] instead of a delay. A delay that
    /// crosses first is bit-identical to the full window's, and
    /// `within = ∞` is [`BuiltPath::propagate_transition`] itself.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; a NaN `within` is an invalid
    /// configuration.
    pub fn propagate_transition_within(
        &mut self,
        input_edge: Edge,
        within: f64,
    ) -> Result<TransitionOutcome, Error> {
        self.transition_run(input_edge, None, within)
    }

    /// Shared transition engine; `within` applies to the default window
    /// only, and a caller's `cfg` runs as given.
    fn transition_run(
        &mut self,
        input_edge: Edge,
        cfg: Option<&TranConfig>,
        within: f64,
    ) -> Result<TransitionOutcome, Error> {
        let (v1, v2) = match input_edge {
            Edge::Rising => (0.0, self.vdd),
            Edge::Falling => (self.vdd, 0.0),
        };
        self.circuit.set_vsource_wave(
            self.input_src,
            Waveform::step(v1, v2, self.t_start, self.input_edge),
        )?;

        let output_edge = if self.inverts {
            input_edge.inverted()
        } else {
            input_edge
        };
        let vth = self.vdd / 2.0;
        let after = self.t_start * 0.5;
        // The default window ends as soon as the delay is known.
        let cfg_default = TranConfig {
            until: Until::Crossed {
                input: self.input,
                in_edge: input_edge,
                output: self.output(),
                out_edge: output_edge,
                threshold: vth,
                after,
                within,
            },
            ..self.default_cfg(0.0)
        };
        let cfg = cfg.unwrap_or(&cfg_default);
        // The delay measurement reads only the input and output traces.
        let capture = TraceCapture::Nodes(vec![self.input, self.output()]);
        let res = self.sim(cfg, &capture)?;

        let tin = res.trace(self.input);
        let tout = res.trace(self.output());
        let delay = propagation_delay(&tin, input_edge, &tout, output_edge, vth, after);
        // Only a run the bound stopped early can prove a floor above it.
        let floor = match delay {
            None if res.stats().stopped_early => {
                delay_floor(&tin, input_edge, &tout, output_edge, vth, after)
            }
            _ => None,
        };
        Ok(TransitionOutcome {
            delay,
            output_edge,
            floor,
        })
    }
}

/// Builds a PWL pulse whose width at the 50 % level is exactly `w50`.
///
/// With edge time `edge`, the flat top is `w50 - edge`; if the requested
/// width is smaller than one edge the pulse degenerates to a triangle with
/// matched 50 % width.
fn pulse_wave(rest: f64, peak: f64, t0: f64, edge: f64, w50: f64) -> Waveform {
    let (rise, flat) = if w50 >= edge {
        (edge, w50 - edge)
    } else {
        (w50, 0.0)
    };
    let fall = rise;
    Waveform::Pwl(vec![
        (0.0, rest),
        (t0, rest),
        (t0 + rise, rest + peak),
        (t0 + rise + flat, rest + peak),
        (t0 + rise + flat + fall, rest),
    ])
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn techs(n: usize) -> Vec<Tech> {
        vec![Tech::generic_180nm(); n]
    }

    #[test]
    fn robustness_ladder_preserves_measurements() {
        let spec = PathSpec::inverter_chain(3);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(3));
        let nominal = p
            .propagate_pulse(400e-12, Polarity::PositiveGoing, None)
            .unwrap()
            .output_width;
        for (level, scale) in [(1, 0.8), (2, 0.95), (3, 0.5)] {
            p.set_robustness(level, scale);
            let w = p
                .propagate_pulse(400e-12, Polarity::PositiveGoing, None)
                .unwrap()
                .output_width;
            assert!(
                (w - nominal).abs() < 15e-12,
                "escalated config distorts the measurement at level {level}: {w:e} vs {nominal:e}"
            );
        }
        // Level 0 / scale 1.0 restores the nominal configuration exactly.
        p.set_robustness(0, 1.0);
        let back = p
            .propagate_pulse(400e-12, Polarity::PositiveGoing, None)
            .unwrap()
            .output_width;
        assert_eq!(back, nominal);
    }

    #[test]
    fn queries_stop_early_on_the_paper_chain_with_full_window_results() {
        let spec = PathSpec::paper_chain();
        let fault = PathFault::ExternalRop {
            stage: 1,
            ohms: 8e3,
        };
        let mut p = BuiltPath::new(&spec, &fault, &techs(7));
        assert!((p.settle_tolerance() - 0.1).abs() < 1e-12);
        let w = 278e-12;
        let pol = Polarity::PositiveGoing;
        let full_cfg = p.default_config(w);
        assert_eq!(full_cfg.until, Until::Stop);
        let full = p.propagate_pulse(w, pol, Some(&full_cfg)).unwrap();
        assert!(full.output_width > 0.0);
        let width = p.pulse_width_only(w, pol, None).unwrap();
        assert_eq!(width.to_bits(), full.output_width.to_bits());
        // `propagate_pulse` keeps the full window: every field matches.
        let default = p.propagate_pulse(w, pol, None).unwrap();
        assert_eq!(
            default.peak_fraction.to_bits(),
            full.peak_fraction.to_bits()
        );
        assert_eq!(default.stage_widths, full.stage_widths);

        // The width query's rule fires, long before the window ends.
        let settled = TranConfig {
            until: Until::Settled {
                tol: p.settle_tolerance(),
            },
            ..full_cfg.clone()
        };
        let early = p.run_transient(Some(&settled)).unwrap();
        let whole = p.run_transient(Some(&full_cfg)).unwrap();
        assert!(early.stats().stopped_early && !whole.stats().stopped_early);
        assert!(
            early.len() * 3 < whole.len(),
            "{} of {} points",
            early.len(),
            whole.len()
        );

        for edge in [Edge::Rising, Edge::Falling] {
            let full = p.propagate_transition(edge, Some(&p.default_config(0.0)));
            let early = p.propagate_transition(edge, None).unwrap();
            assert!(early.delay.is_some());
            assert_eq!(early.delay, full.unwrap().delay);
        }
    }

    #[test]
    fn measurements_only_capture_is_bit_identical_on_the_output() {
        let spec = PathSpec::inverter_chain(3);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(3));
        let full = p
            .propagate_pulse(400e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert_eq!(full.stage_widths.len(), 3);

        p.set_capture_policy(CapturePolicy::MeasurementsOnly);
        assert_eq!(p.capture_policy(), CapturePolicy::MeasurementsOnly);
        let slim = p
            .propagate_pulse(400e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert!(slim.stage_widths.is_empty());
        assert_eq!(slim.output_width.to_bits(), full.output_width.to_bits());
        assert_eq!(slim.peak_fraction.to_bits(), full.peak_fraction.to_bits());

        // The width-only fast path slims the capture regardless of the
        // configured policy, and still matches bit for bit.
        p.set_capture_policy(CapturePolicy::StageOutputs);
        let w = p
            .pulse_width_only(400e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert_eq!(w.to_bits(), full.output_width.to_bits());

        // As does the preserved baseline engine.
        p.set_workspace_reuse(false);
        let wb = p
            .pulse_width_only(400e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert_eq!(wb.to_bits(), full.output_width.to_bits());
    }

    #[test]
    fn robustness_inputs_are_sanitized() {
        let spec = PathSpec::inverter_chain(2);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(2));
        // Degenerate scale and absurd level must clamp, not break the sim.
        p.set_robustness(999, f64::NAN);
        assert!(p
            .propagate_pulse(300e-12, Polarity::PositiveGoing, None)
            .is_ok());
    }

    #[test]
    fn pulse_wave_width_is_exact_at_half_level() {
        for w in [50e-12, 200e-12, 600e-12] {
            let wave = pulse_wave(0.0, 1.8, 1e-9, 80e-12, w);
            // Find 0.9 V crossings analytically from the PWL points.
            let samples: Vec<(f64, f64)> = (0..4000)
                .map(|i| (i as f64 * 1e-12, wave.value_at(i as f64 * 1e-12)))
                .collect();
            let mut up = None;
            let mut down = None;
            for p in samples.windows(2) {
                if p[0].1 < 0.9 && p[1].1 >= 0.9 && up.is_none() {
                    up = Some(p[1].0);
                }
                if p[0].1 > 0.9 && p[1].1 <= 0.9 {
                    down = Some(p[1].0);
                }
            }
            let (u, d) = (up.unwrap(), down.unwrap());
            assert!(
                ((d - u) - w).abs() < 3e-12,
                "requested {w:e}, measured {:e}",
                d - u
            );
        }
    }

    #[test]
    fn fault_free_chain_propagates_transition() {
        let spec = PathSpec::inverter_chain(3);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(3));
        let out = p.propagate_transition(Edge::Rising, None).unwrap();
        let d = out.delay.expect("fault-free path must switch");
        assert!(
            d > 0.0 && d < 2e-9,
            "3-stage delay {d:e} out of plausible range"
        );
        assert_eq!(out.output_edge, Edge::Falling); // odd inversions
    }

    #[test]
    fn both_pulse_kinds_propagate() {
        // Regression: the high-resting kind-h pulse must actually swing
        // to ground (its amplitude was once computed as zero).
        let spec = PathSpec::inverter_chain(4);
        for pol in [Polarity::PositiveGoing, Polarity::NegativeGoing] {
            let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(4));
            let out = p.propagate_pulse(500e-12, pol, None).unwrap();
            assert!(
                (out.output_width - 500e-12).abs() < 120e-12,
                "{pol:?}: expected ~500 ps at the output, got {:e}",
                out.output_width
            );
        }
    }

    #[test]
    fn fault_free_chain_propagates_wide_pulse() {
        let spec = PathSpec::inverter_chain(3);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(3));
        let out = p
            .propagate_pulse(800e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert!(!out.dampened());
        assert!(
            (out.output_width - 800e-12).abs() < 150e-12,
            "wide pulse should survive nearly intact, got {:e}",
            out.output_width
        );
        assert!(out.peak_fraction > 0.95);
    }

    #[test]
    fn narrow_pulse_is_dampened_even_fault_free() {
        let spec = PathSpec::inverter_chain(5);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(5));
        let out = p
            .propagate_pulse(30e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert!(
            out.dampened(),
            "a 30 ps pulse cannot cross 5 loaded stages, got {:e}",
            out.output_width
        );
    }

    #[test]
    fn internal_rop_slows_one_edge_only() {
        let spec = PathSpec::inverter_chain(3);
        let fault = PathFault::InternalRop {
            stage: 1,
            site: RopSite::PullUp,
            ohms: 20e3,
        };
        let mut faulty = BuiltPath::new(&spec, &fault, &techs(3));
        let mut clean = BuiltPath::new(&spec, &PathFault::None, &techs(3));

        // Stage 1's rising output is exercised by a rising PI (two
        // inversions upstream of stage 1's output).
        let d_clean_r = clean
            .propagate_transition(Edge::Rising, None)
            .unwrap()
            .delay
            .unwrap();
        let d_fault_r = faulty
            .propagate_transition(Edge::Rising, None)
            .unwrap()
            .delay
            .unwrap();
        assert!(
            d_fault_r > d_clean_r + 100e-12,
            "pull-up ROP must slow the sensitized edge: clean {d_clean_r:e}, faulty {d_fault_r:e}"
        );

        // The opposite input edge exercises stage 1's falling output: the
        // pull-up ROP must leave it (nearly) untouched.
        let d_clean_f = clean
            .propagate_transition(Edge::Falling, None)
            .unwrap()
            .delay
            .unwrap();
        let d_fault_f = faulty
            .propagate_transition(Edge::Falling, None)
            .unwrap()
            .delay
            .unwrap();
        assert!(
            (d_fault_f - d_clean_f).abs() < 60e-12,
            "unaffected edge moved too much: clean {d_clean_f:e}, faulty {d_fault_f:e}"
        );
    }

    #[test]
    fn internal_rop_dampens_pulse() {
        let spec = PathSpec::paper_chain();
        let fault = PathFault::InternalRop {
            stage: 1,
            site: RopSite::PullUp,
            ohms: 8e3,
        };
        let mut faulty = BuiltPath::new(&spec, &fault, &techs(7));
        let mut clean = BuiltPath::new(&spec, &PathFault::None, &techs(7));

        let w = 500e-12;
        let wc = clean
            .propagate_pulse(w, Polarity::PositiveGoing, None)
            .unwrap();
        let wf = faulty
            .propagate_pulse(w, Polarity::PositiveGoing, None)
            .unwrap();
        assert!(!wc.dampened(), "fault-free path must pass the pulse");
        assert!(
            wf.output_width < wc.output_width - 50e-12 || wf.dampened(),
            "faulty path must visibly shrink the pulse: clean {:e}, faulty {:e}",
            wc.output_width,
            wf.output_width
        );
    }

    #[test]
    fn external_rop_affects_both_edges() {
        let spec = PathSpec::paper_chain();
        let fault = PathFault::ExternalRop {
            stage: 1,
            ohms: 20e3,
        };
        let mut faulty = BuiltPath::new(&spec, &fault, &techs(7));
        let mut clean = BuiltPath::new(&spec, &PathFault::None, &techs(7));

        for e in [Edge::Rising, Edge::Falling] {
            let dc = clean.propagate_transition(e, None).unwrap().delay.unwrap();
            let df = faulty.propagate_transition(e, None).unwrap().delay.unwrap();
            assert!(
                df > dc + 80e-12,
                "external ROP must slow {e:?} transitions: clean {dc:e}, faulty {df:e}"
            );
        }
    }

    #[test]
    fn bridge_delays_opposing_transition() {
        let spec = PathSpec::paper_chain();
        // Aggressor low fights the victim's rising output (stage 1 output
        // rises when the PI rises: two inversions upstream).
        let fault = PathFault::Bridge {
            stage: 1,
            ohms: 3e3,
            aggressor_high: false,
        };
        let mut faulty = BuiltPath::new(&spec, &fault, &techs(7));
        let mut clean = BuiltPath::new(&spec, &PathFault::None, &techs(7));

        let dc = clean
            .propagate_transition(Edge::Rising, None)
            .unwrap()
            .delay
            .unwrap();
        let df = faulty
            .propagate_transition(Edge::Rising, None)
            .unwrap()
            .delay
            .unwrap();
        assert!(
            df > dc,
            "bridge must add delay: clean {dc:e}, faulty {df:e}"
        );
    }

    #[test]
    fn sweep_resistance_without_rebuilding() {
        let spec = PathSpec::paper_chain();
        let fault = PathFault::ExternalRop {
            stage: 1,
            ohms: 1e3,
        };
        let mut p = BuiltPath::new(&spec, &fault, &techs(7));
        let mut widths = Vec::new();
        for r in [1e3, 8e3, 30e3] {
            p.set_fault_resistance(r).unwrap();
            widths.push(
                p.propagate_pulse(500e-12, Polarity::PositiveGoing, None)
                    .unwrap()
                    .output_width,
            );
        }
        // The paper's "behavior 1": for a pulse much wider than the
        // degraded transition time the width is essentially preserved
        // (allow a couple ps of numeric wobble); past the crossover the
        // pulse collapses.
        assert!(
            widths[1] <= widths[0] + 3e-12 && widths[2] <= widths[1] + 3e-12,
            "output width must not grow with resistance: {widths:?}"
        );
        assert!(
            widths[2] < widths[0] - 100e-12,
            "30 kΩ must heavily dampen the pulse: {widths:?}"
        );
    }

    #[test]
    fn fault_free_path_rejects_resistance_updates() {
        let spec = PathSpec::inverter_chain(2);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(2));
        assert!(p.set_fault_resistance(1e3).is_err());
    }

    #[test]
    fn invalid_pulse_width_is_rejected() {
        let spec = PathSpec::inverter_chain(2);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(2));
        assert!(p
            .propagate_pulse(-1.0, Polarity::PositiveGoing, None)
            .is_err());
        assert!(p
            .propagate_pulse(f64::NAN, Polarity::PositiveGoing, None)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "external ROP needs a downstream stage")]
    fn external_rop_on_last_stage_panics() {
        let spec = PathSpec::inverter_chain(3);
        let fault = PathFault::ExternalRop {
            stage: 2,
            ohms: 1e3,
        };
        BuiltPath::new(&spec, &fault, &techs(3));
    }

    #[test]
    #[should_panic(expected = "one Tech sample per stage")]
    fn tech_count_mismatch_panics() {
        let spec = PathSpec::inverter_chain(3);
        BuiltPath::new(&spec, &PathFault::None, &techs(2));
    }

    #[test]
    fn bridge_shows_up_in_the_quiescent_current() {
        let spec = PathSpec::paper_chain();
        let mut clean = BuiltPath::new(&spec, &PathFault::None, &techs(7));
        let fault = PathFault::Bridge {
            stage: 1,
            ohms: 3e3,
            aggressor_high: false,
        };
        let mut faulty = BuiltPath::new(&spec, &fault, &techs(7));

        // Victim output high (PI high → stage 1 high) vs aggressor low:
        // the fight draws static current.
        let i_clean = clean.quiescent_current(true).unwrap();
        let i_fight = faulty.quiescent_current(true).unwrap();
        assert!(
            i_clean.abs() < 1e-6,
            "healthy CMOS is quiescent, got {i_clean:e}"
        );
        assert!(
            i_fight > 50e-6,
            "a 3 kΩ bridge must draw visible static current, got {i_fight:e}"
        );
        // The non-activating vector draws (almost) nothing: IDDQ needs
        // the right vector, like any test.
        let i_idle = faulty.quiescent_current(false).unwrap();
        assert!(
            i_idle < i_fight / 10.0,
            "idle vector: {i_idle:e} vs fight {i_fight:e}"
        );
    }

    #[test]
    fn opens_are_invisible_to_iddq() {
        let spec = PathSpec::paper_chain();
        let fault = PathFault::ExternalRop {
            stage: 1,
            ohms: 20e3,
        };
        let mut faulty = BuiltPath::new(&spec, &fault, &techs(7));
        for level in [false, true] {
            let i = faulty.quiescent_current(level).unwrap();
            assert!(
                i.abs() < 1e-6,
                "a series open draws no static current, got {i:e}"
            );
        }
    }

    #[test]
    fn internal_bridge_degrades_the_pulse() {
        // NAND2 at stage 1 with its stack node bridged to the output.
        let spec = PathSpec {
            stages: vec![
                CellKind::Inv,
                CellKind::Nand2,
                CellKind::Inv,
                CellKind::Inv,
                CellKind::Inv,
            ],
            fanout_loads: vec![0; 5],
        };
        let fault = PathFault::InternalBridge {
            stage: 1,
            ohms: 2e3,
        };
        let mut faulty = BuiltPath::new(&spec, &fault, &techs(5));
        let mut clean = BuiltPath::new(&spec, &PathFault::None, &techs(5));

        let w = 450e-12;
        let wc = clean
            .propagate_pulse(w, Polarity::PositiveGoing, None)
            .unwrap()
            .output_width;
        let wf = faulty
            .propagate_pulse(w, Polarity::PositiveGoing, None)
            .unwrap()
            .output_width;
        assert!(
            wf < wc - 20e-12,
            "internal bridge must shave the pulse: clean {wc:e}, faulty {wf:e}"
        );
        // Static logic still works above critical resistance.
        let d = faulty
            .propagate_transition(Edge::Rising, None)
            .unwrap()
            .delay;
        assert!(d.is_some(), "2 kΩ internal bridge should stay functional");
    }

    #[test]
    #[should_panic(expected = "internal bridge needs a stacked cell")]
    fn internal_bridge_on_inverter_panics() {
        let spec = PathSpec::inverter_chain(3);
        let fault = PathFault::InternalBridge {
            stage: 1,
            ohms: 2e3,
        };
        BuiltPath::new(&spec, &fault, &techs(3));
    }

    #[test]
    fn particle_strike_produces_an_output_transient() {
        let spec = PathSpec::inverter_chain(5);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(5));
        p.hold_input(false).unwrap();
        // Stage 1's output rests high (one inversion of the low input...
        // stage 0 output is high, stage 1 output low; strike stage 0,
        // whose high output a discharge pulse can flip).
        p.add_strike_source(0, 2.5e-3, 1e-9, 120e-12);
        let res = p.run_transient(None).unwrap();
        let vth = p.vdd() / 2.0;
        // The struck (high) node dips low...
        let struck = res.trace(p.stage_outputs()[0]);
        assert!(
            struck.min_value() < vth,
            "strike must dip the node, got {}",
            struck.min_value()
        );
        // ...and a transient reaches the path output (resting low after
        // five inversions of a low input? stage outputs alternate
        // H,L,H,L,H — the output rests high; the transient pulls it low).
        let out = res.trace(p.output());
        let w = out.widest_pulse_width(vth, Polarity::NegativeGoing);
        assert!(w > 0.0, "the SET must propagate to the output");
    }

    #[test]
    fn weak_strike_is_absorbed() {
        let spec = PathSpec::inverter_chain(5);
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(5));
        p.hold_input(false).unwrap();
        p.add_strike_source(0, 0.15e-3, 1e-9, 60e-12);
        let res = p.run_transient(None).unwrap();
        let vth = p.vdd() / 2.0;
        let out = res.trace(p.output());
        assert_eq!(
            out.widest_pulse_width(vth, Polarity::NegativeGoing),
            0.0,
            "a sub-critical charge must be filtered"
        );
    }

    #[test]
    fn complex_gate_path_propagates_pulses() {
        // AOI21 and OAI21 on the path, sensitized through pin 0.
        let spec = PathSpec {
            stages: vec![
                CellKind::Inv,
                CellKind::Aoi21,
                CellKind::Oai21,
                CellKind::Inv,
            ],
            fanout_loads: vec![0; 4],
        };
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(4));
        let d = p.propagate_transition(Edge::Rising, None).unwrap().delay;
        assert!(
            d.is_some(),
            "complex-gate path must be sensitized by construction"
        );
        let out = p
            .propagate_pulse(700e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert!(
            (out.output_width - 700e-12).abs() < 200e-12,
            "pulse through AOI/OAI: {:e}",
            out.output_width
        );
    }

    #[test]
    fn workspace_reuse_matches_baseline_engine_exactly() {
        // The workspace path (reused buffers, slim capture) must reproduce
        // the allocation-per-step baseline engine bit for bit, across a
        // resistance sweep on one instance.
        let spec = PathSpec::paper_chain();
        let fault = PathFault::ExternalRop {
            stage: 1,
            ohms: 8e3,
        };
        let mut reuse = BuiltPath::new(&spec, &fault, &techs(7));
        let mut baseline = BuiltPath::new(&spec, &fault, &techs(7));
        baseline.set_workspace_reuse(false);
        for r in [1e3, 8e3, 30e3] {
            reuse.set_fault_resistance(r).unwrap();
            baseline.set_fault_resistance(r).unwrap();
            let a = reuse
                .propagate_pulse(450e-12, Polarity::PositiveGoing, None)
                .unwrap();
            let b = baseline
                .propagate_pulse(450e-12, Polarity::PositiveGoing, None)
                .unwrap();
            assert_eq!(a.output_width, b.output_width, "at {r:e} Ω");
            assert_eq!(a.peak_fraction, b.peak_fraction, "at {r:e} Ω");
            assert_eq!(a.stage_widths, b.stage_widths, "at {r:e} Ω");
        }
        let da = reuse
            .propagate_transition(Edge::Rising, None)
            .unwrap()
            .delay;
        let db = baseline
            .propagate_transition(Edge::Rising, None)
            .unwrap()
            .delay;
        assert_eq!(da, db);
    }

    #[test]
    fn try_new_rejects_non_physical_fault_resistance() {
        let spec = PathSpec::paper_chain();
        let n = spec.stages.len();
        for ohms in [0.0, -10.0, f64::NAN, f64::INFINITY] {
            let fault = PathFault::ExternalRop { stage: 1, ohms };
            let err = BuiltPath::try_new(&spec, &fault, &techs(n)).unwrap_err();
            match err {
                Error::InvalidParameter { parameter, .. } => assert_eq!(parameter, "ohms"),
                other => panic!("expected InvalidParameter for {ohms}, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_new_rejects_out_of_range_stages() {
        let spec = PathSpec::paper_chain();
        let n = spec.stages.len();
        // An external ROP needs a downstream stage: the last stage is out.
        let fault = PathFault::ExternalRop {
            stage: n - 1,
            ohms: 10e3,
        };
        let err = BuiltPath::try_new(&spec, &fault, &techs(n)).unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidParameter {
                parameter: "stage",
                ..
            }
        ));
        let fault = PathFault::InternalRop {
            stage: n,
            site: RopSite::PullUp,
            ohms: 10e3,
        };
        assert!(BuiltPath::try_new(&spec, &fault, &techs(n)).is_err());
    }

    #[test]
    fn try_new_rejects_tech_count_mismatch_and_accepts_valid_faults() {
        let spec = PathSpec::paper_chain();
        let n = spec.stages.len();
        let err = BuiltPath::try_new(&spec, &PathFault::None, &techs(n - 1)).unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidParameter {
                parameter: "techs",
                ..
            }
        ));
        let fault = PathFault::ExternalRop {
            stage: 1,
            ohms: 10e3,
        };
        let mut p = BuiltPath::try_new(&spec, &fault, &techs(n)).unwrap();
        let w = p
            .propagate_pulse(900e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert!(w.output_width.is_finite());
    }

    #[test]
    fn nand_nor_chain_builds_and_propagates() {
        let spec = PathSpec {
            stages: vec![
                CellKind::Nand2,
                CellKind::Nor2,
                CellKind::Nand3,
                CellKind::Inv,
            ],
            fanout_loads: vec![0, 1, 0, 0],
        };
        let mut p = BuiltPath::new(&spec, &PathFault::None, &techs(4));
        let out = p.propagate_transition(Edge::Rising, None).unwrap();
        assert!(
            out.delay.is_some(),
            "mixed-cell path must be sensitized by construction"
        );
        let w = p
            .propagate_pulse(900e-12, Polarity::PositiveGoing, None)
            .unwrap();
        assert!(!w.dampened());
    }
}
