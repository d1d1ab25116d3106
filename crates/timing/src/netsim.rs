//! Whole-netlist pulse/transition timing simulation.
//!
//! [`PathTimingModel`](crate::PathTimingModel) folds events along one
//! pre-selected path; this module is the full tool the paper's conclusion
//! announces — "a logic level fault simulation tool … to apply our method
//! to the case of large combinational networks". Given a static input
//! vector, it propagates a transition or pulse event injected at one
//! primary input through the *entire* netlist:
//!
//! * a gate propagates an event only when the vector leaves it
//!   sensitized (side inputs non-controlling — checked functionally, so
//!   XOR-family gates work too),
//! * pulse widths pass through each gate's three-region transfer and die
//!   where they are filtered,
//! * defects are injected per gate pin (external ROP = RC on the branch)
//!   or per gate edge (internal ROP),
//! * reconvergent activity — several events meeting at one gate — is
//!   resolved conservatively (earliest surviving event wins) and
//!   **flagged**, because that is precisely the multiple-path masking
//!   effect the paper warns about in §1.

use crate::library::TimingLibrary;
use crate::model::GateTimingModel;
use crate::path_model::PathElement;
use pulsar_analog::{Edge, Polarity};
use pulsar_logic::{simulate_bool, GateId, LogicError, Netlist, SignalId};
use std::collections::HashMap;

/// A timed event on a signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimedEvent {
    /// A single transition arriving at `t`.
    Edge {
        /// Arrival time at 50 % swing, seconds.
        t: f64,
        /// Transition direction.
        edge: Edge,
    },
    /// A pulse whose leading edge arrives at `t_lead`.
    Pulse {
        /// Leading-edge arrival time, seconds.
        t_lead: f64,
        /// Width at 50 % swing, seconds.
        width: f64,
        /// Polarity relative to the signal's static value.
        polarity: Polarity,
    },
}

impl TimedEvent {
    /// Arrival time of the event's leading activity.
    pub fn time(&self) -> f64 {
        match self {
            TimedEvent::Edge { t, .. } => *t,
            TimedEvent::Pulse { t_lead, .. } => *t_lead,
        }
    }

    /// Pulse width, if this is a pulse event.
    pub fn width(&self) -> Option<f64> {
        match self {
            TimedEvent::Pulse { width, .. } => Some(*width),
            TimedEvent::Edge { .. } => None,
        }
    }
}

/// Outcome of one injection run.
#[derive(Debug, Clone)]
pub struct NetSimOutcome {
    /// Event (if any) arriving at each primary output, in PO order.
    pub po_events: Vec<Option<TimedEvent>>,
    /// Every signal's event, indexed by [`SignalId::index`] — for
    /// debugging and for fault-effect inspection mid-circuit.
    pub events: Vec<Option<TimedEvent>>,
    /// True when more than one input of some gate carried events: the
    /// result used the conservative earliest-survivor rule and may hide
    /// multi-path masking (paper §1).
    pub reconvergence: bool,
}

/// Event-driven timing simulator over a [`Netlist`].
///
/// # Example
///
/// ```
/// use pulsar_analog::Polarity;
/// use pulsar_logic::c17;
/// use pulsar_timing::{NetSim, TimingLibrary};
///
/// # fn main() -> Result<(), pulsar_logic::LogicError> {
/// let nl = c17();
/// let sim = NetSim::new(&nl, &TimingLibrary::generic());
/// // Pulse input "1" with the other inputs sensitizing gate 10.
/// // Vector (1,2,3,6,7) = (0,0,1,0,0): 3=1 sensitizes gate 10, and
/// // 2=0 forces net 16 high so output 22's side input is non-controlling.
/// let pi = nl.find_signal("1").expect("c17 input");
/// let out = sim.run_pulse(&[false, false, true, false, false], pi,
///                         Polarity::PositiveGoing, 800e-12)?;
/// assert!(out.po_events.iter().any(|e| e.is_some()), "a wide pulse gets through");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetSim<'a> {
    nl: &'a Netlist,
    models: Vec<GateTimingModel>,
    slow_rise: Vec<f64>,
    slow_fall: Vec<f64>,
    /// RC time constants on specific gate input pins (external ROPs).
    pin_rc: HashMap<(GateId, usize), f64>,
}

impl<'a> NetSim<'a> {
    /// Builds a simulator with per-gate models from `lib`
    /// (fan-out-aware).
    pub fn new(nl: &'a Netlist, lib: &TimingLibrary) -> Self {
        let fanouts = nl.fanouts();
        let models = nl
            .gates()
            .iter()
            .map(|g| lib.model(g.kind, fanouts[g.output.index()].len().max(1)))
            .collect();
        NetSim {
            nl,
            models,
            slow_rise: vec![0.0; nl.gate_count()],
            slow_fall: vec![0.0; nl.gate_count()],
            pin_rc: HashMap::new(),
        }
    }

    /// Injects an external ROP: an RC of constant `tau` on input `pin`
    /// of `gate` (the defect sits on that fan-out branch only).
    pub fn inject_rc(&mut self, gate: GateId, pin: usize, tau: f64) {
        *self.pin_rc.entry((gate, pin)).or_insert(0.0) += tau;
    }

    /// Injects an internal ROP: slows the given output edge of `gate` by
    /// `extra` seconds.
    pub fn inject_edge_slow(&mut self, gate: GateId, edge: Edge, extra: f64) {
        match edge {
            Edge::Rising => self.slow_rise[gate.index()] += extra,
            Edge::Falling => self.slow_fall[gate.index()] += extra,
        }
    }

    /// Removes all injected defects.
    pub fn clear_faults(&mut self) {
        self.slow_rise.fill(0.0);
        self.slow_fall.fill(0.0);
        self.pin_rc.clear();
    }

    /// Propagates a pulse injected at primary input `pi` under the static
    /// vector `pi_values` (one bool per PI, in netlist PI order).
    ///
    /// # Errors
    ///
    /// None: a [`Netlist`] cannot hold a loop. The `Result` stays for
    /// callers that test it (pulsebench's campaign probe).
    ///
    /// # Panics
    ///
    /// Panics if `pi` is not a primary input or the vector length is
    /// wrong.
    pub fn run_pulse(
        &self,
        pi_values: &[bool],
        pi: SignalId,
        polarity: Polarity,
        w_in: f64,
    ) -> Result<NetSimOutcome, LogicError> {
        let pulse = TimedEvent::Pulse {
            t_lead: 0.0,
            width: w_in,
            polarity,
        };
        Ok(self.run(pi_values, pi, pulse))
    }

    /// Propagates a single transition injected at `pi`.
    ///
    /// # Errors
    ///
    /// None, as for [`NetSim::run_pulse`].
    ///
    /// # Panics
    ///
    /// Panics if `pi` is not a primary input or the vector length is
    /// wrong.
    pub fn run_edge(
        &self,
        pi_values: &[bool],
        pi: SignalId,
        edge: Edge,
    ) -> Result<NetSimOutcome, LogicError> {
        Ok(self.run(pi_values, pi, TimedEvent::Edge { t: 0.0, edge }))
    }

    fn run(&self, pi_values: &[bool], pi: SignalId, event: TimedEvent) -> NetSimOutcome {
        assert!(
            self.nl.inputs().contains(&pi),
            "injection site {} is not a primary input",
            self.nl.signal_name(pi)
        );
        let statics = simulate_bool(self.nl, pi_values);
        let mut events: Vec<Option<TimedEvent>> = vec![None; self.nl.signal_count()];
        events[pi.index()] = Some(event);
        let mut reconvergence = false;

        // Gate index order is topological (`Netlist::gates`).
        for (g, gate) in self.nl.gates().iter().enumerate() {
            let gid = GateId::from_index(g);
            let active: Vec<usize> = gate
                .inputs
                .iter()
                .enumerate()
                .filter(|(_, s)| events[s.index()].is_some())
                .map(|(p, _)| p)
                .collect();
            if active.is_empty() {
                continue;
            }
            if active.len() > 1 {
                reconvergence = true;
            }

            // Earliest surviving propagation across active pins.
            let mut best: Option<TimedEvent> = None;
            for pin in active {
                let in_sig = gate.inputs[pin];
                let in_event = events[in_sig.index()].expect("filtered to active pins");
                if let Some(out) = self.propagate_through(gid, pin, in_event, &statics) {
                    best = Some(match best {
                        None => out,
                        Some(cur) if out.time() < cur.time() => out,
                        Some(cur) => cur,
                    });
                }
            }
            if let Some(e) = best {
                events[gate.output.index()] = Some(e);
            }
        }

        let po_events = self
            .nl
            .outputs()
            .iter()
            .map(|o| events[o.index()])
            .collect();
        NetSimOutcome {
            po_events,
            events,
            reconvergence,
        }
    }

    /// Propagates one event through one gate pin; `None` when masked or
    /// filtered.
    fn propagate_through(
        &self,
        gid: GateId,
        pin: usize,
        event: TimedEvent,
        statics: &[bool],
    ) -> Option<TimedEvent> {
        // Functional sensitization: does flipping this pin (with every
        // other pin at its static value) flip the output?
        let out_low = self.eval_with(gid, pin, false, statics);
        let out_high = self.eval_with(gid, pin, true, statics);
        if out_low == out_high {
            return None; // masked by a controlling side value
        }
        let inverting = !out_high; // input 1 → output 0 means inversion
        let model = &self.models[gid.index()];
        let sr = self.slow_rise[gid.index()];
        let sf = self.slow_fall[gid.index()];

        // External-ROP RC on this branch, applied before the gate.
        let rc = self.pin_rc.get(&(gid, pin)).copied().unwrap_or(0.0);
        let rc_elem = PathElement::RcNet { tau: rc };

        match event {
            TimedEvent::Edge { t, edge } => {
                let t = if rc > 0.0 {
                    t + rc_elem.edge_delay(edge)
                } else {
                    t
                };
                let out_edge = if inverting { edge.inverted() } else { edge };
                Some(TimedEvent::Edge {
                    t: t + model.edge_delay(out_edge, sr, sf),
                    edge: out_edge,
                })
            }
            TimedEvent::Pulse {
                t_lead,
                width,
                polarity,
            } => {
                let (t_lead, width) = if rc > 0.0 {
                    let w = rc_elem.width_out(width, polarity);
                    if w == 0.0 {
                        return None;
                    }
                    (t_lead + rc_elem.edge_delay(polarity.leading_edge()), w)
                } else {
                    (t_lead, width)
                };
                let out_pol = if inverting {
                    polarity.inverted()
                } else {
                    polarity
                };
                let w_out = model.width_out(width, out_pol.leading_edge(), sr, sf);
                if w_out == 0.0 {
                    return None;
                }
                let t_out = t_lead + model.edge_delay(out_pol.leading_edge(), sr, sf);
                Some(TimedEvent::Pulse {
                    t_lead: t_out,
                    width: w_out,
                    polarity: out_pol,
                })
            }
        }
    }

    /// Gate output with `pin` forced to `value` and other pins static.
    fn eval_with(&self, gid: GateId, pin: usize, value: bool, statics: &[bool]) -> bool {
        let gate = self.nl.gate(gid);
        let words: Vec<u64> = gate
            .inputs
            .iter()
            .enumerate()
            .map(|(p, s)| {
                let v = if p == pin { value } else { statics[s.index()] };
                if v {
                    1
                } else {
                    0
                }
            })
            .collect();
        gate.kind.eval_words(&words) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::path_model::PathTimingModel;
    use pulsar_logic::{c17, GateKind};

    fn lib() -> TimingLibrary {
        TimingLibrary::generic()
    }

    /// A 4-inverter chain netlist.
    fn chain_netlist(n: usize) -> (Netlist, SignalId) {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let mut cur = a;
        for i in 0..n {
            cur = nl.add_gate(GateKind::Not, &[cur], format!("g{i}")).unwrap();
        }
        nl.mark_output(cur);
        (nl, a)
    }

    #[test]
    fn chain_matches_the_path_model() {
        let (nl, a) = chain_netlist(5);
        let sim = NetSim::new(&nl, &lib());
        let paths = pulsar_logic::enumerate_paths(&nl, None, 10).unwrap();
        let pm = PathTimingModel::from_netlist_path(&nl, &paths[0], &lib());

        // Edge delay agrees exactly.
        let out = sim.run_edge(&[false], a, Edge::Rising).unwrap();
        let Some(TimedEvent::Edge { t, edge }) = out.po_events[0] else {
            panic!("edge must arrive")
        };
        assert!((t - pm.delay(Edge::Rising)).abs() < 1e-15);
        assert_eq!(edge, Edge::Falling); // five inversions

        // Pulse width agrees exactly.
        let out = sim
            .run_pulse(&[false], a, Polarity::PositiveGoing, 500e-12)
            .unwrap();
        let w = out.po_events[0]
            .expect("pulse arrives")
            .width()
            .expect("is a pulse");
        assert!((w - pm.pulse_out(500e-12, Polarity::PositiveGoing)).abs() < 1e-15);
        assert!(!out.reconvergence);
    }

    #[test]
    fn controlling_side_input_masks_the_event() {
        // y = NAND(a, b): with b = 0 the gate is desensitized.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Nand, &[a, b], "y").unwrap();
        nl.mark_output(y);
        let sim = NetSim::new(&nl, &lib());

        let blocked = sim
            .run_pulse(&[false, false], a, Polarity::PositiveGoing, 400e-12)
            .unwrap();
        assert!(
            blocked.po_events[0].is_none(),
            "controlling 0 on b must mask"
        );
        let open = sim
            .run_pulse(&[false, true], a, Polarity::PositiveGoing, 400e-12)
            .unwrap();
        assert!(
            open.po_events[0].is_some(),
            "non-controlling 1 on b must pass"
        );
        let _ = y;
    }

    #[test]
    fn xor_side_parity_sets_inversion() {
        // y = XOR(a, b): b = 0 → transparent, b = 1 → inverting.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Xor, &[a, b], "y").unwrap();
        nl.mark_output(y);
        let sim = NetSim::new(&nl, &lib());

        let t0 = sim
            .run_pulse(&[false, false], a, Polarity::PositiveGoing, 600e-12)
            .unwrap();
        let Some(TimedEvent::Pulse { polarity, .. }) = t0.po_events[0] else {
            panic!()
        };
        assert_eq!(
            polarity,
            Polarity::PositiveGoing,
            "xor with side 0 is transparent"
        );

        let t1 = sim
            .run_pulse(&[false, true], a, Polarity::PositiveGoing, 600e-12)
            .unwrap();
        let Some(TimedEvent::Pulse { polarity, .. }) = t1.po_events[0] else {
            panic!()
        };
        assert_eq!(polarity, Polarity::NegativeGoing, "xor with side 1 inverts");
    }

    #[test]
    fn injected_rc_dampens_only_its_branch() {
        // a fans out to two NOT gates; the RC sits on one branch.
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let y0 = nl.add_gate(GateKind::Not, &[a], "y0").unwrap();
        let y1 = nl.add_gate(GateKind::Not, &[a], "y1").unwrap();
        nl.mark_output(y0);
        nl.mark_output(y1);

        let mut sim = NetSim::new(&nl, &lib());
        let g_y0 = nl.driver_id(y0).expect("y0 is driven");
        sim.inject_rc(g_y0, 0, 600e-12);
        let out = sim
            .run_pulse(&[false], a, Polarity::PositiveGoing, 350e-12)
            .unwrap();
        assert!(out.po_events[0].is_none(), "faulted branch must dampen");
        assert!(out.po_events[1].is_some(), "healthy branch must pass");
    }

    #[test]
    fn injected_edge_slow_delays_the_affected_direction() {
        let (nl, a) = chain_netlist(3);
        let mut sim = NetSim::new(&nl, &lib());
        let base = match sim.run_edge(&[false], a, Edge::Rising).unwrap().po_events[0] {
            Some(TimedEvent::Edge { t, .. }) => t,
            other => panic!("expected edge, got {other:?}"),
        };
        // Gate 1's output *rises* on a rising PI (one inversion upstream
        // through g0), so a rising-edge slow-down hits this launch.
        let g1 = nl
            .driver_id(nl.find_signal("g1").expect("g1 exists"))
            .expect("driven");
        sim.inject_edge_slow(g1, Edge::Rising, 300e-12);
        let slowed = match sim.run_edge(&[false], a, Edge::Rising).unwrap().po_events[0] {
            Some(TimedEvent::Edge { t, .. }) => t,
            other => panic!("expected edge, got {other:?}"),
        };
        assert!((slowed - base - 300e-12).abs() < 1e-15);
        // The opposite launch direction is untouched.
        let other = match sim.run_edge(&[true], a, Edge::Falling).unwrap().po_events[0] {
            Some(TimedEvent::Edge { t, .. }) => t,
            other => panic!("expected edge, got {other:?}"),
        };
        let clean_other = {
            sim.clear_faults();
            match sim.run_edge(&[true], a, Edge::Falling).unwrap().po_events[0] {
                Some(TimedEvent::Edge { t, .. }) => t,
                other => panic!("expected edge, got {other:?}"),
            }
        };
        assert!((other - clean_other).abs() < 1e-15);
    }

    #[test]
    fn c17_pulse_reaches_an_output_and_flags_reconvergence() {
        let nl = c17();
        let sim = NetSim::new(&nl, &lib());
        // Input 3 fans out to both NAND(1,3) and NAND(3,6): events
        // reconverge at gate 22 under the right vector.
        let i3 = nl.find_signal("3").unwrap();
        // Vector: 1=1, 2=1, 6=1, 7=1 (order: 1,2,3,6,7).
        let vector = [true, true, false, true, true];
        let out = sim
            .run_pulse(&vector, i3, Polarity::PositiveGoing, 800e-12)
            .unwrap();
        assert!(
            out.po_events.iter().any(|e| e.is_some()),
            "a wide pulse must reach some output: {:?}",
            out.po_events
        );
        assert!(out.reconvergence, "input 3 drives reconvergent fan-out");
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn injecting_at_a_gate_output_panics() {
        let (nl, _) = chain_netlist(2);
        let sim = NetSim::new(&nl, &lib());
        let g0 = nl.find_signal("g0").unwrap();
        let _ = sim.run_pulse(&[false], g0, Polarity::PositiveGoing, 1e-10);
    }
}
