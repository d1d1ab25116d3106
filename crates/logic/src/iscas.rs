//! ISCAS-85 netlist text format.
//!
//! The classic benchmark format the paper's Fig. 11 circuit (C432) is
//! distributed in:
//!
//! ```text
//! # comment
//! INPUT(1)
//! OUTPUT(223)
//! 118 = NAND(1, 4)
//! 223 = NOT(118)
//! ```
//!
//! The parser is two-pass (signals may be referenced before definition)
//! and accepts the common kind spellings (`BUF`/`BUFF`, `XNOR`/`NXOR`).

use crate::error::LogicError;
use crate::netlist::{GateKind, Netlist, SignalId};
use std::collections::HashMap;

/// Parses ISCAS-85 text into a [`Netlist`].
///
/// # Errors
///
/// [`LogicError::Parse`] with a 1-based line number for syntax problems,
/// [`LogicError::UnknownSignal`] for references to undefined names,
/// [`LogicError::MultipleDrivers`] for doubly-defined signals and
/// [`LogicError::BadArity`] for impossible pin counts.
pub fn parse_iscas85(text: &str) -> Result<Netlist, LogicError> {
    enum Line<'a> {
        Input(&'a str),
        Output(&'a str),
        Gate {
            out: &'a str,
            kind: GateKind,
            ins: Vec<&'a str>,
        },
    }

    // Pass 1: tokenize lines.
    let mut parsed: Vec<(usize, Line<'_>)> = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line_no = no + 1;
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = line.strip_prefix("INPUT(") {
            let name = rest.strip_suffix(')').ok_or_else(|| LogicError::Parse {
                line: line_no,
                message: "INPUT( without closing parenthesis".into(),
            })?;
            parsed.push((line_no, Line::Input(name.trim())));
        } else if let Some(rest) = line.strip_prefix("OUTPUT(") {
            let name = rest.strip_suffix(')').ok_or_else(|| LogicError::Parse {
                line: line_no,
                message: "OUTPUT( without closing parenthesis".into(),
            })?;
            parsed.push((line_no, Line::Output(name.trim())));
        } else if let Some(eq) = line.find('=') {
            let out = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| LogicError::Parse {
                line: line_no,
                message: "gate right-hand side needs `KIND(...)`".into(),
            })?;
            let close = rhs.rfind(')').ok_or_else(|| LogicError::Parse {
                line: line_no,
                message: "missing closing parenthesis".into(),
            })?;
            if close < open {
                return Err(LogicError::Parse {
                    line: line_no,
                    message: "mismatched parentheses".into(),
                });
            }
            let kind = parse_kind(rhs[..open].trim()).ok_or_else(|| LogicError::Parse {
                line: line_no,
                message: format!("unknown gate kind `{}`", rhs[..open].trim()),
            })?;
            let ins: Vec<&str> = rhs[open + 1..close]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if ins.is_empty() {
                return Err(LogicError::Parse {
                    line: line_no,
                    message: "gate with no inputs".into(),
                });
            }
            parsed.push((line_no, Line::Gate { out, kind, ins }));
        } else {
            return Err(LogicError::Parse {
                line: line_no,
                message: format!("unrecognized line `{line}`"),
            });
        }
    }

    // Pass 2: allocate signals. Inputs first, then gates in an order that
    // respects data dependencies (iterate until fixpoint; a cycle leaves
    // gates unplaced).
    let mut nl = Netlist::new();
    let mut by_name: HashMap<String, SignalId> = HashMap::new();
    let mut output_names: Vec<(usize, String)> = Vec::new();
    let mut pending: Vec<(usize, String, GateKind, Vec<String>)> = Vec::new();

    for (line_no, l) in parsed {
        match l {
            Line::Input(name) => {
                if by_name.contains_key(name) {
                    return Err(LogicError::MultipleDrivers {
                        name: name.to_owned(),
                    });
                }
                let s = nl.add_input(name);
                by_name.insert(name.to_owned(), s);
            }
            Line::Output(name) => output_names.push((line_no, name.to_owned())),
            Line::Gate { out, kind, ins } => {
                pending.push((
                    line_no,
                    out.to_owned(),
                    kind,
                    ins.into_iter().map(str::to_owned).collect(),
                ));
            }
        }
    }

    // Duplicate gate definitions are driver conflicts.
    {
        let mut seen: HashMap<&str, ()> = HashMap::new();
        for (_, out, _, _) in &pending {
            if seen.insert(out.as_str(), ()).is_some() || by_name.contains_key(out.as_str()) {
                return Err(LogicError::MultipleDrivers { name: out.clone() });
            }
        }
    }

    let mut remaining = pending;
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|(_, out, kind, ins)| {
            if ins.iter().all(|i| by_name.contains_key(i.as_str())) {
                let sig_ins: Vec<SignalId> = ins.iter().map(|i| by_name[i.as_str()]).collect();
                match nl.add_gate(*kind, &sig_ins, out.clone()) {
                    Ok(s) => {
                        by_name.insert(out.clone(), s);
                        false // placed, drop from remaining
                    }
                    Err(_) => true, // arity error surfaces below
                }
            } else {
                true
            }
        });
        if remaining.len() == before {
            // Nothing placed: either a true unknown signal or a cycle.
            let (_, out, kind, ins) = &remaining[0];
            for i in ins {
                if !by_name.contains_key(i.as_str()) && !remaining.iter().any(|(_, o, _, _)| o == i)
                {
                    return Err(LogicError::UnknownSignal { name: i.clone() });
                }
            }
            // Re-check arity errors before declaring a loop.
            kind.check_arity(ins.len())?;
            return Err(LogicError::CombinationalLoop {
                signal: out.clone(),
            });
        }
    }

    for (line_no, name) in output_names {
        let s = *by_name.get(&name).ok_or(LogicError::Parse {
            line: line_no,
            message: format!("OUTPUT({name}) references an undefined signal"),
        })?;
        nl.mark_output(s);
    }
    Ok(nl)
}

fn parse_kind(s: &str) -> Option<GateKind> {
    match s.to_ascii_uppercase().as_str() {
        "AND" => Some(GateKind::And),
        "NAND" => Some(GateKind::Nand),
        "OR" => Some(GateKind::Or),
        "NOR" => Some(GateKind::Nor),
        "NOT" | "INV" => Some(GateKind::Not),
        "BUF" | "BUFF" => Some(GateKind::Buf),
        "XOR" => Some(GateKind::Xor),
        "XNOR" | "NXOR" => Some(GateKind::Xnor),
        _ => None,
    }
}

/// Serializes a netlist to ISCAS-85 text that [`parse_iscas85`] re-reads
/// identically (up to gate ordering).
pub fn write_iscas85(nl: &Netlist) -> String {
    let mut out = String::new();
    out.push_str("# written by pulsar-logic\n");
    for &i in nl.inputs() {
        out.push_str(&format!("INPUT({})\n", nl.signal_name(i)));
    }
    for &o in nl.outputs() {
        out.push_str(&format!("OUTPUT({})\n", nl.signal_name(o)));
    }
    for g in nl.gates() {
        let ins: Vec<&str> = g.inputs.iter().map(|s| nl.signal_name(*s)).collect();
        out.push_str(&format!(
            "{} = {}({})\n",
            nl.signal_name(g.output),
            g.kind.name(),
            ins.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::sim::simulate_bool;

    const SAMPLE: &str = "\
# tiny sample
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
";

    #[test]
    fn parses_sample() {
        let nl = parse_iscas85(SAMPLE).unwrap();
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.gate_count(), 2);
        // Behaves as AND.
        let y = nl.find_signal("y").unwrap();
        let vals = simulate_bool(&nl, &[true, true]);
        assert!(vals[y.index()]);
        let vals = simulate_bool(&nl, &[true, false]);
        assert!(!vals[y.index()]);
    }

    #[test]
    fn forward_references_are_fine() {
        let text = "\
INPUT(a)
OUTPUT(y)
y = NOT(m)
m = BUF(a)
";
        let nl = parse_iscas85(text).unwrap();
        let y = nl.find_signal("y").unwrap();
        let vals = simulate_bool(&nl, &[true]);
        assert!(!vals[y.index()]);
    }

    #[test]
    fn roundtrip_through_writer() {
        let nl = parse_iscas85(SAMPLE).unwrap();
        let text = write_iscas85(&nl);
        let nl2 = parse_iscas85(&text).unwrap();
        assert_eq!(nl2.inputs().len(), nl.inputs().len());
        assert_eq!(nl2.gate_count(), nl.gate_count());
        // Same function on all four input patterns.
        for pat in 0..4u32 {
            let pi = [(pat & 1) == 1, (pat & 2) == 2];
            let y1 = nl.find_signal("y").unwrap();
            let y2 = nl2.find_signal("y").unwrap();
            assert_eq!(
                simulate_bool(&nl, &pi)[y1.index()],
                simulate_bool(&nl2, &pi)[y2.index()]
            );
        }
    }

    #[test]
    fn rejects_unknown_kind() {
        let e = parse_iscas85("INPUT(a)\ny = FROB(a)\n").unwrap_err();
        assert!(matches!(e, LogicError::Parse { line: 2, .. }), "{e}");
    }

    #[test]
    fn rejects_undefined_signal() {
        let e = parse_iscas85("INPUT(a)\ny = AND(a, ghost)\n").unwrap_err();
        assert!(matches!(e, LogicError::UnknownSignal { .. }), "{e}");
    }

    #[test]
    fn rejects_double_driver() {
        let e = parse_iscas85("INPUT(a)\ny = NOT(a)\ny = BUF(a)\n").unwrap_err();
        assert!(matches!(e, LogicError::MultipleDrivers { .. }), "{e}");
    }

    #[test]
    fn rejects_combinational_loop() {
        let e = parse_iscas85("INPUT(a)\nx = AND(a, y)\ny = NOT(x)\n").unwrap_err();
        assert!(matches!(e, LogicError::CombinationalLoop { .. }), "{e}");
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse_iscas85("INPUT(a\n").is_err());
        assert!(parse_iscas85("what is this\n").is_err());
        assert!(parse_iscas85("y = NOT()\n").is_err());
        assert!(parse_iscas85("OUTPUT(nothing)\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# hello\nINPUT(a)  # trailing\n\nOUTPUT(y)\ny = BUF(a)\n";
        let nl = parse_iscas85(text).unwrap();
        assert_eq!(nl.gate_count(), 1);
    }
}
