//! Combinational gate-level netlist.

use crate::error::LogicError;

/// Handle to a signal (a primary input or a gate output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) usize);

impl SignalId {
    /// Raw index into the netlist's signal tables.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index — the inverse of
    /// [`SignalId::index`], for deserializing ids recorded against a
    /// *specific* netlist (e.g. campaign checkpoints). The caller must
    /// guarantee the index is valid for the netlist it will be used with.
    pub fn from_index(index: usize) -> SignalId {
        SignalId(index)
    }
}

/// Handle to a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) usize);

impl GateId {
    /// Raw index into the netlist's gate table.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw index — see [`SignalId::from_index`]
    /// for the validity contract.
    pub fn from_index(index: usize) -> GateId {
        GateId(index)
    }
}

/// Boolean gate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND (≥ 1 input).
    And,
    /// Inverted AND.
    Nand,
    /// Logical OR.
    Or,
    /// Inverted OR.
    Nor,
    /// Inverter (exactly 1 input).
    Not,
    /// Buffer (exactly 1 input).
    Buf,
    /// Parity (≥ 1 input).
    Xor,
    /// Inverted parity.
    Xnor,
}

impl GateKind {
    /// Whether an input edge inverts on its way to the output when all
    /// side inputs are held non-controlling (for XOR-family, side = 0).
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Not | GateKind::Xnor
        )
    }

    /// Controlling input value, if the kind has one (`None` for
    /// XOR-family and single-input gates).
    pub fn controlling(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            GateKind::Not | GateKind::Buf | GateKind::Xor | GateKind::Xnor => None,
        }
    }

    /// The value side inputs must take for a path through this gate to be
    /// sensitized: the non-controlling value, or 0 for the XOR family
    /// (which makes XOR transparent and XNOR inverting).
    pub fn side_input_value(self) -> bool {
        match self.controlling() {
            Some(c) => !c,
            None => false,
        }
    }

    /// Evaluates the gate over bit-parallel input words.
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        let mut acc = match self {
            GateKind::And | GateKind::Nand => u64::MAX,
            GateKind::Or | GateKind::Nor | GateKind::Xor | GateKind::Xnor => 0,
            GateKind::Not | GateKind::Buf => inputs[0],
        };
        match self {
            GateKind::And | GateKind::Nand => {
                for w in inputs {
                    acc &= w;
                }
            }
            GateKind::Or | GateKind::Nor => {
                for w in inputs {
                    acc |= w;
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                for w in inputs {
                    acc ^= w;
                }
            }
            GateKind::Not | GateKind::Buf => {}
        }
        if self.inverts_output() {
            !acc
        } else {
            acc
        }
    }

    fn inverts_output(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Not | GateKind::Xnor
        )
    }

    /// Canonical upper-case name (ISCAS-85 spelling).
    pub fn name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        }
    }

    /// Validates a pin count for this kind.
    pub(crate) fn check_arity(self, pins: usize) -> Result<(), LogicError> {
        let ok = match self {
            GateKind::Not | GateKind::Buf => pins == 1,
            _ => pins >= 1,
        };
        if ok {
            Ok(())
        } else {
            Err(LogicError::BadArity {
                kind: self.name(),
                pins,
            })
        }
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Boolean function.
    pub kind: GateKind,
    /// Input signals, in pin order.
    pub inputs: Vec<SignalId>,
    /// Driven output signal.
    pub output: SignalId,
}

/// A combinational netlist: primary inputs, gates, primary outputs.
///
/// Signals are created by [`Netlist::add_input`] and [`Netlist::add_gate`];
/// the structure is append-only, and a gate may only read signals that
/// already exist, so a `Netlist` never holds a combinational loop.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    names: Vec<String>,
    /// Per signal: the driving gate, if any (primary inputs have none).
    drivers: Vec<Option<GateId>>,
    gates: Vec<Gate>,
    /// Per signal: the (gate, pin) pairs reading it, kept up to date by
    /// [`Netlist::add_gate`] so readers borrow it instead of rebuilding it.
    fanouts: Vec<Vec<(GateId, usize)>>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Declares a primary input and returns its signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        let s = SignalId(self.names.len());
        self.names.push(name.into());
        self.drivers.push(None);
        self.fanouts.push(Vec::new());
        self.inputs.push(s);
        s
    }

    /// Adds a gate driving a fresh signal named `name`.
    ///
    /// # Errors
    ///
    /// [`LogicError::BadArity`] if the pin count does not fit the kind.
    ///
    /// # Panics
    ///
    /// Panics if an input handle does not belong to this netlist.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[SignalId],
        name: impl Into<String>,
    ) -> Result<SignalId, LogicError> {
        kind.check_arity(inputs.len())?;
        for i in inputs {
            assert!(
                i.0 < self.names.len(),
                "input signal {} not in this netlist",
                i.0
            );
        }
        let out = SignalId(self.names.len());
        self.names.push(name.into());
        let gid = GateId(self.gates.len());
        self.drivers.push(Some(gid));
        self.fanouts.push(Vec::new());
        for (pin, s) in inputs.iter().enumerate() {
            self.fanouts[s.0].push((gid, pin));
        }
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        Ok(out)
    }

    /// Marks a signal as a primary output (idempotent).
    pub fn mark_output(&mut self, s: SignalId) {
        if !self.outputs.contains(&s) {
            self.outputs.push(s);
        }
    }

    /// All primary inputs, in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// All primary outputs, in declaration order.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// All gates, in topological (input-to-output) order: [`add_gate`]
    /// reads only signals that already exist, so every gate's inputs are
    /// primary inputs or outputs of lower-index gates. A netlist is
    /// append-only, so it cannot hold a combinational loop.
    ///
    /// [`add_gate`]: Netlist::add_gate
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate driving `s`, or `None` for a primary input.
    pub fn driver(&self, s: SignalId) -> Option<&Gate> {
        self.drivers[s.0].map(|g| &self.gates[g.0])
    }

    /// The id of the gate driving `s`, if any.
    pub fn driver_id(&self, s: SignalId) -> Option<GateId> {
        self.drivers[s.0]
    }

    /// Gate by id.
    pub fn gate(&self, g: GateId) -> &Gate {
        &self.gates[g.0]
    }

    /// Name of a signal.
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.names[s.0]
    }

    /// Looks up a signal by name.
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.names.iter().position(|n| n == name).map(SignalId)
    }

    /// Total number of signals (inputs + gate outputs).
    pub fn signal_count(&self) -> usize {
        self.names.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Per-signal list of (gate, pin) pairs reading it, indexed by
    /// [`SignalId::index`], each list in gate order.
    pub fn fanouts(&self) -> &[Vec<(GateId, usize)>] {
        &self.fanouts
    }

    /// Logic depth of every signal (0 for PIs), and the maximum depth.
    pub fn depths(&self) -> (Vec<usize>, usize) {
        let mut depth = vec![0usize; self.names.len()];
        let mut max = 0;
        for gate in &self.gates {
            let d = gate.inputs.iter().map(|s| depth[s.0]).max().unwrap_or(0) + 1;
            depth[gate.output.0] = d;
            max = max.max(d);
        }
        (depth, max)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::{c432_like, parse_iscas85, random_netlist, BenchParams};
    use proptest::prelude::*;

    /// Whether every gate reads only primary inputs and outputs of
    /// lower-index gates: the order [`Netlist::gates`] promises.
    pub(crate) fn gate_order_is_topological(nl: &Netlist) -> bool {
        nl.gates().iter().enumerate().all(|(i, g)| {
            g.inputs
                .iter()
                .all(|&s| nl.driver_id(s).is_none_or(|d| d.index() < i))
        })
    }

    fn small() -> (Netlist, SignalId, SignalId, SignalId, SignalId) {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n = nl.add_gate(GateKind::Nand, &[a, b], "n").unwrap();
        let o = nl.add_gate(GateKind::Not, &[n], "o").unwrap();
        nl.mark_output(o);
        (nl, a, b, n, o)
    }

    #[test]
    fn construction_and_lookup() {
        let (nl, a, _b, n, o) = small();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs(), &[o]);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.signal_name(a), "a");
        assert_eq!(nl.find_signal("n"), Some(n));
        assert!(nl.driver(a).is_none());
        assert_eq!(nl.driver(o).unwrap().kind, GateKind::Not);
    }

    #[test]
    fn mark_output_is_idempotent() {
        let (mut nl, _, _, _, o) = small();
        nl.mark_output(o);
        assert_eq!(nl.outputs().len(), 1);
    }

    /// A gate may read only signals that already exist, so no gate can
    /// read its own output or a later gate's: the netlist stays acyclic,
    /// which is why path walks need no loop check.
    #[test]
    #[should_panic(expected = "not in this netlist")]
    fn add_gate_rejects_a_signal_not_yet_in_the_netlist() {
        let (mut nl, a, ..) = small();
        // The signal this gate is about to drive.
        let own_output = SignalId(nl.signal_count());
        let _ = nl.add_gate(GateKind::Nand, &[a, own_output], "loop");
    }

    proptest! {
        #[test]
        fn gate_index_order_is_topological(seed: u64, gates in 3usize..60, layers in 1usize..8) {
            let params = BenchParams { inputs: 6, gates, outputs: 3, layers };
            prop_assert!(gate_order_is_topological(&random_netlist(&params, seed)));
        }
    }

    #[test]
    fn built_and_parsed_netlists_are_in_topological_order() {
        assert!(gate_order_is_topological(&small().0));
        assert!(gate_order_is_topological(&c432_like()));
        // Gates listed after their readers: the parser places each gate
        // once its inputs exist.
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(m, n)\nm = NOT(n)\nn = AND(a, b)\n";
        let nl = parse_iscas85(text).unwrap();
        assert_eq!(nl.gate_count(), 3);
        assert!(gate_order_is_topological(&nl));
    }

    #[test]
    fn depths_count_levels() {
        let (nl, a, _, n, o) = small();
        let (d, max) = nl.depths();
        assert_eq!(d[a.index()], 0);
        assert_eq!(d[n.index()], 1);
        assert_eq!(d[o.index()], 2);
        assert_eq!(max, 2);
    }

    #[test]
    fn fanouts_track_pins() {
        let (nl, a, b, n, _) = small();
        let f = nl.fanouts();
        assert_eq!(f.len(), nl.signal_count());
        assert_eq!(f[a.index()], vec![(GateId(0), 0)]);
        assert_eq!(f[b.index()], vec![(GateId(0), 1)]);
        assert_eq!(f[n.index()], vec![(GateId(1), 0)]);
    }

    /// The per-signal reader lists, rebuilt from the gate table.
    fn recomputed_fanouts(nl: &Netlist) -> Vec<Vec<(GateId, usize)>> {
        let mut out = vec![Vec::new(); nl.signal_count()];
        for (gi, g) in nl.gates().iter().enumerate() {
            for (pin, s) in g.inputs.iter().enumerate() {
                out[s.index()].push((GateId(gi), pin));
            }
        }
        out
    }

    #[test]
    fn kept_fanouts_match_a_recompute_from_the_gates() {
        use crate::{c432_like, parse_iscas85, random_netlist, write_iscas85, BenchParams};
        let mut netlists = vec![
            c432_like(),
            parse_iscas85(&write_iscas85(&c432_like())).unwrap(),
        ];
        // Parsed text with a net read twice by one gate and a gate
        // referenced before its definition.
        netlists.push(
            parse_iscas85("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(n, a)\nn = AND(a, a, b)\n")
                .unwrap(),
        );
        for seed in 0..8 {
            let params = BenchParams {
                inputs: 6,
                gates: 40,
                outputs: 4,
                layers: 5,
            };
            netlists.push(random_netlist(&params, seed));
        }
        for nl in &netlists {
            assert_eq!(nl.fanouts(), recomputed_fanouts(nl).as_slice());
        }
    }

    #[test]
    fn arity_is_checked() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        assert!(matches!(
            nl.add_gate(GateKind::Not, &[a, b], "x"),
            Err(LogicError::BadArity { .. })
        ));
        assert!(matches!(
            nl.add_gate(GateKind::And, &[], "y"),
            Err(LogicError::BadArity { .. })
        ));
    }

    #[test]
    fn gate_kind_tables() {
        assert!(GateKind::Nand.inverts());
        assert!(!GateKind::And.inverts());
        assert!(GateKind::Xnor.inverts());
        assert_eq!(GateKind::And.controlling(), Some(false));
        assert_eq!(GateKind::Nor.controlling(), Some(true));
        assert_eq!(GateKind::Xor.controlling(), None);
        assert!(GateKind::Nand.side_input_value());
        assert!(!GateKind::Nor.side_input_value());
        assert!(!GateKind::Xor.side_input_value());
    }

    #[test]
    fn eval_words_truth_tables() {
        // Two inputs over 4 bit-lanes: a = 0b0011, b = 0b0101.
        let a = 0b0011u64;
        let b = 0b0101u64;
        assert_eq!(GateKind::And.eval_words(&[a, b]) & 0xF, 0b0001);
        assert_eq!(GateKind::Nand.eval_words(&[a, b]) & 0xF, 0b1110);
        assert_eq!(GateKind::Or.eval_words(&[a, b]) & 0xF, 0b0111);
        assert_eq!(GateKind::Nor.eval_words(&[a, b]) & 0xF, 0b1000);
        assert_eq!(GateKind::Xor.eval_words(&[a, b]) & 0xF, 0b0110);
        assert_eq!(GateKind::Xnor.eval_words(&[a, b]) & 0xF, 0b1001);
        assert_eq!(GateKind::Not.eval_words(&[a]) & 0xF, 0b1100);
        assert_eq!(GateKind::Buf.eval_words(&[a]) & 0xF, 0b0011);
    }
}
