//! Diagnostic types: codes, severities, findings, and deterministic reports.

use std::fmt;

/// How serious a finding is.
///
/// `Error` findings predict a hard failure (a solve that cannot succeed or a
/// configuration that cannot produce a meaningful measurement). `Warning`
/// findings flag suspicious structure that the solver papers over (for
/// example a floating node held up only by the internal gmin floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but survivable; the numeric layer will still run.
    Warning,
    /// Structurally fatal; running the numeric layer is pointless.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic code registry.
///
/// Codes are grouped by hundreds: `PL00xx` element/parameter domain, `PL01xx`
/// netlist structure (connectivity and structural singularity), `PL02xx`
/// pulse-test configuration, `PL03xx` fault-injection configuration. Codes
/// are append-only; a released code never changes meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Resistor with a non-positive or non-finite resistance.
    ResistorValue,
    /// Capacitor with a negative or non-finite capacitance.
    CapacitorValue,
    /// MOSFET with non-physical geometry or model parameters.
    MosfetGeometry,
    /// Source waveform outside its domain (negative pulse timing, NaN level,
    /// non-monotonic PWL, ...).
    WaveformDomain,
    /// Deck card that does not parse at all.
    MalformedCard,
    /// `.tran` directive with an invalid step/stop combination.
    TranConfigInvalid,
    /// Structural singularity with a float-level guarantee: LU factorization
    /// *will* return `SingularMatrix` (shorted, doubly grounded, or
    /// parallel/antiparallel voltage sources).
    StructuralSingular,
    /// Voltage-source loop: exactly singular in real arithmetic, but rounding
    /// may hide the zero pivot, so the numeric outcome is not guaranteed.
    /// This is the documented conservative (possibly false-positive) verdict.
    VsourceLoop,
    /// Nodes with no DC path to ground, coupled to the rest of the circuit
    /// only through capacitors, current sources, or MOSFET gates. The solver
    /// holds them up with its gmin floor; their DC level is an artifact.
    NoDcPath,
    /// Nodes connected to nothing outside their own island — not even weakly.
    DisconnectedIsland,
    /// MOSFET gate that is not statically driven (its DC-connected component
    /// does not reach ground), so the device's region is undefined — a side
    /// input that was never pinned.
    UndrivenGate,
    /// Pulse stimulus that completes after the transient window ends.
    PulseExceedsWindow,
    /// `stop/step` alone exceeds `max_points`; the run is guaranteed to
    /// exhaust its step budget even before any Newton retry.
    StepBudget,
    /// Sensing threshold `w_th` below the sensing-circuit floor.
    ThresholdBelowFloor,
    /// Input pulse width `w_in` at or below the threshold `w_th`; the test
    /// rejects every device including fault-free ones.
    PulseBelowThreshold,
    /// Fault-injection resistance that is not finite and positive, or an
    /// empty resistance sweep.
    FaultResistance,
    /// Fault stage index outside the path (external ROP additionally needs a
    /// downstream stage).
    FaultStage,
}

impl Code {
    /// The stable `PLnnnn` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ResistorValue => "PL0001",
            Code::CapacitorValue => "PL0002",
            Code::MosfetGeometry => "PL0003",
            Code::WaveformDomain => "PL0004",
            Code::MalformedCard => "PL0005",
            Code::TranConfigInvalid => "PL0006",
            Code::StructuralSingular => "PL0101",
            Code::VsourceLoop => "PL0102",
            Code::NoDcPath => "PL0103",
            Code::DisconnectedIsland => "PL0104",
            Code::UndrivenGate => "PL0105",
            Code::PulseExceedsWindow => "PL0201",
            Code::StepBudget => "PL0202",
            Code::ThresholdBelowFloor => "PL0203",
            Code::PulseBelowThreshold => "PL0204",
            Code::FaultResistance => "PL0301",
            Code::FaultStage => "PL0302",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::NoDcPath
            | Code::DisconnectedIsland
            | Code::UndrivenGate
            | Code::ThresholdBelowFloor
            | Code::PulseBelowThreshold => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structural finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Severity, always `self.code.severity()`.
    pub severity: Severity,
    /// Registry code.
    pub code: Code,
    /// The element or concept the finding is about (card name once span
    /// mapping has run, otherwise a positional label such as `vsource #1`).
    pub subject: String,
    /// Node names involved, in circuit order.
    pub nodes: Vec<String>,
    /// 1-based line in the deck source, when the finding maps to a card.
    pub line: Option<usize>,
    /// Human-readable statement of the problem.
    pub message: String,
    /// Suggested fix.
    pub fix: String,
    /// Index into `Circuit::elements()` for span mapping; not rendered.
    pub element_index: Option<usize>,
}

impl Diagnostic {
    /// Creates a finding with no node list, span, or element index.
    pub fn new(
        code: Code,
        subject: impl Into<String>,
        message: impl Into<String>,
        fix: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: code.severity(),
            code,
            subject: subject.into(),
            nodes: Vec::new(),
            line: None,
            message: message.into(),
            fix: fix.into(),
            element_index: None,
        }
    }

    /// Attaches node names.
    pub fn with_nodes(mut self, nodes: Vec<String>) -> Self {
        self.nodes = nodes;
        self
    }

    /// Attaches a 1-based deck line.
    pub fn with_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }

    /// Attaches the element index used for deck span mapping.
    pub fn with_element(mut self, index: usize) -> Self {
        self.element_index = Some(index);
        self
    }
}

/// A deterministic, ordered collection of findings.
///
/// Reports sort their findings by `(code, line, subject, message)` at
/// construction, so rendering is identical across runs, platforms, and
/// thread counts regardless of the order in which checks emitted them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintReport {
    diags: Vec<Diagnostic>,
}

impl LintReport {
    /// Builds a report, sorting the findings into canonical order.
    pub fn new(mut diags: Vec<Diagnostic>) -> Self {
        diags.sort_by(|a, b| {
            a.code
                .as_str()
                .cmp(b.code.as_str())
                .then_with(|| {
                    a.line
                        .unwrap_or(usize::MAX)
                        .cmp(&b.line.unwrap_or(usize::MAX))
                })
                .then_with(|| a.subject.cmp(&b.subject))
                .then_with(|| a.message.cmp(&b.message))
        });
        LintReport { diags }
    }

    /// All findings in canonical order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Error-severity findings in canonical order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diags.len() - self.error_count()
    }

    /// True when the report holds no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// True when the report should block a strict-mode consumer: any error,
    /// or any warning when `deny_warnings` is set.
    pub fn has_blocking(&self, deny_warnings: bool) -> bool {
        self.error_count() > 0 || (deny_warnings && !self.diags.is_empty())
    }

    /// True when any finding carries `code`.
    pub fn has_code(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Merges another report into this one, re-sorting.
    pub fn merge(self, other: LintReport) -> LintReport {
        let mut diags = self.diags;
        diags.extend(other.diags);
        LintReport::new(diags)
    }

    /// Renders the report for terminals: one block per finding plus a
    /// trailing summary line.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diags {
            let _ = writeln!(
                out,
                "{}[{}] {}: {}",
                d.severity, d.code, d.subject, d.message
            );
            let mut ctx = String::new();
            if let Some(line) = d.line {
                let _ = write!(ctx, "deck line {line}");
            }
            if !d.nodes.is_empty() {
                if !ctx.is_empty() {
                    ctx.push_str("; ");
                }
                let _ = write!(ctx, "nodes: {}", d.nodes.join(", "));
            }
            if !ctx.is_empty() {
                let _ = writeln!(out, "  at {ctx}");
            }
            let _ = writeln!(out, "  fix: {}", d.fix);
        }
        let _ = writeln!(out, "{}", self.summary());
        out
    }

    /// One-line `N error(s), M warning(s)` summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            "lint: no diagnostics".to_owned()
        } else {
            format!(
                "lint: {} error(s), {} warning(s)",
                self.error_count(),
                self.warning_count()
            )
        }
    }

    /// Renders the report as a single-line JSON object. The encoder is
    /// hand-rolled (the workspace is offline; no serde) and escapes control
    /// characters, quotes, and backslashes per RFC 8259.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"summary\":{{\"errors\":{},\"warnings\":{}}},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        );
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":{},\"severity\":{},\"subject\":{}",
                json_str(d.code.as_str()),
                json_str(d.severity.as_str()),
                json_str(&d.subject)
            );
            out.push_str(",\"nodes\":[");
            for (j, n) in d.nodes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(n));
            }
            out.push(']');
            if let Some(line) = d.line {
                let _ = write!(out, ",\"line\":{line}");
            }
            let _ = write!(
                out,
                ",\"message\":{},\"fix\":{}}}",
                json_str(&d.message),
                json_str(&d.fix)
            );
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_human())
    }
}

/// Escapes a string as a JSON string literal, including the quotes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
