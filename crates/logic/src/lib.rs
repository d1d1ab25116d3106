#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never ad-hoc unwraps; #[cfg(test)] modules opt back in.
#![warn(clippy::unwrap_used)]

//! # pulsar-logic
//!
//! Gate-level infrastructure for the pulse-propagation test method:
//! combinational netlists, an ISCAS-85 reader/writer, bit-parallel logic
//! simulation, structural path enumeration and path sensitization.
//!
//! The paper's test flow needs, per fault site, a **sensitized path** from
//! a primary input to a primary output through the fault: all side inputs
//! of the path's gates held at non-controlling values so the injected
//! pulse is the only activity on the path (paper §3: "we will suppose that
//! all the side inputs of the path are set to non controlling values").
//! This crate finds those paths and the input vectors that sensitize them.
//!
//! ```
//! use pulsar_logic::{Netlist, GateKind, enumerate_paths, sensitize};
//!
//! // c = NOT(NAND(a, b)) — an AND built from the cell library.
//! let mut nl = Netlist::new();
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let n = nl.add_gate(GateKind::Nand, &[a, b], "n").unwrap();
//! let c = nl.add_gate(GateKind::Not, &[n], "c").unwrap();
//! nl.mark_output(c);
//!
//! let paths = enumerate_paths(&nl, Some(n), 100).unwrap();
//! assert_eq!(paths.len(), 2); // one through each NAND pin
//! let vec = sensitize(&nl, &paths[0], 10_000).unwrap().expect("sensitizable");
//! // Sensitizing pin `a` forces the side input `b` to 1.
//! assert_eq!(vec.values[b.index()], Some(true));
//! ```

mod benchgen;
mod error;
mod faults;
mod iscas;
mod netlist;
mod paths;
mod sensitize;
mod sim;

pub use benchgen::{c17, c432_like, random_netlist, BenchParams};
pub use error::LogicError;
pub use faults::{collapsed_fault_sites, FaultGroup};
pub use iscas::{parse_iscas85, write_iscas85};
pub use netlist::{Gate, GateId, GateKind, Netlist, SignalId};
pub use paths::{enumerate_paths, paths_from_fanin, visit_paths_from_fanin, Path, PathStep};
pub use sensitize::{sensitize, InputVector};
pub use sim::{simulate, simulate_bool};
