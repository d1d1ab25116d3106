//! `lint-src`: a hand-rolled source-level analyzer for the workspace's
//! concurrency and hot-path hygiene rules.
//!
//! This is **not** a Rust parser — it is a line-oriented scanner with
//! just enough lexical awareness (string literals, `//` and `/* */`
//! comments, brace depth, `#[cfg(test)]` regions) to enforce a small
//! set of grep-resistant house rules over `crates/*/src`:
//!
//! | rule | meaning |
//! |------|---------|
//! | `SRC0001` | `Ordering::Relaxed` / `Ordering::SeqCst` outside an allowlisted path needs a `// ordering:` justification on the same or previous line |
//! | `SRC0002` | `unwrap()` / `expect(` in a hot-path module needs `// hot-path:` |
//! | `SRC0003` | `Instant::now` in a hot-path module needs `// hot-path:` |
//! | `SRC0004` | allocation inside a loop in a hot-path module needs `// hot-path:` |
//! | `SRC0005` | detached `thread::spawn` (result discarded) needs a `// spawn:` justification naming the join/retire story |
//!
//! Hot-path modules are the per-timestep solver core ([`HOT_PATHS`]).
//! `#[cfg(test)]` items and everything outside `src/` are exempt. The
//! allowlist lives at the repository root (`lint_src_allow.txt`, one
//! path prefix per line) and is reserved for code *about* orderings —
//! the model checker itself — rather than code that merely uses them.
//!
//! The justification comments are load-bearing: DESIGN.md §5.8 keeps
//! the memory-ordering contract table, and every `// ordering:` line in
//! the source is the local copy of that row's invariant.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Modules on the per-timestep hot path: `unwrap`, `Instant::now`, and
/// in-loop allocation are banned here (rules `SRC0002`–`SRC0004`).
pub const HOT_PATHS: &[&str] = &[
    "crates/analog/src/solver/matrix.rs",
    "crates/analog/src/solver/mna.rs",
    "crates/analog/src/solver/sparse.rs",
    "crates/analog/src/waveform.rs",
    "crates/mc/src/adaptive.rs",
];

/// Name of the allowlist file at the repository root.
pub const ALLOWLIST_FILE: &str = "lint_src_allow.txt";

/// The rule a finding violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SrcRule {
    /// `SRC0001`: unjustified `Ordering::Relaxed` / `Ordering::SeqCst`.
    UnjustifiedOrdering,
    /// `SRC0002`: `unwrap` / `expect` in a hot-path module.
    HotPathUnwrap,
    /// `SRC0003`: `Instant::now` in a hot-path module.
    HotPathInstant,
    /// `SRC0004`: allocation inside a loop in a hot-path module.
    HotPathAlloc,
    /// `SRC0005`: detached `thread::spawn` without a join/retire path.
    DetachedSpawn,
}

impl SrcRule {
    /// Stable diagnostic code.
    pub fn code(self) -> &'static str {
        match self {
            SrcRule::UnjustifiedOrdering => "SRC0001",
            SrcRule::HotPathUnwrap => "SRC0002",
            SrcRule::HotPathInstant => "SRC0003",
            SrcRule::HotPathAlloc => "SRC0004",
            SrcRule::DetachedSpawn => "SRC0005",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct SrcFinding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: SrcRule,
    /// Human-oriented explanation (includes the expected fix).
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for SrcFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}\n    | {}",
            self.file,
            self.line,
            self.rule.code(),
            self.message,
            self.snippet
        )
    }
}

/// The result of scanning a tree (or a single buffer).
#[derive(Debug, Default)]
pub struct SrcReport {
    /// Every violation found, in path/line order.
    pub findings: Vec<SrcFinding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl SrcReport {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human rendering, one block per finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "lint-src: {} finding(s) in {} file(s) scanned\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }

    /// Machine rendering (JSON), stable field order.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
                json_escape(&f.file),
                f.line,
                f.rule.code(),
                json_escape(&f.message),
                if i + 1 == self.findings.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.is_clean()
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Paths (prefixes, `/`-separated, repo-relative) exempt from
/// `SRC0001`. Parsed from [`ALLOWLIST_FILE`].
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    prefixes: Vec<String>,
}

impl Allowlist {
    /// Parse allowlist text: one path prefix per line, `#` comments.
    pub fn parse(text: &str) -> Allowlist {
        Allowlist {
            prefixes: text
                .lines()
                .map(|l| l.split('#').next().unwrap_or("").trim())
                .filter(|l| !l.is_empty())
                .map(str::to_string)
                .collect(),
        }
    }

    /// True when `file` is covered by an allowlist entry.
    pub fn covers(&self, file: &str) -> bool {
        self.prefixes.iter().any(|p| file.starts_with(p.as_str()))
    }
}

// ---------------------------------------------------------------------------
// Lexical pre-pass: split each line into code and `//`-comment parts,
// tracking multi-line strings and block comments.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Normal,
    /// Inside `/* */`, with nesting depth (Rust block comments nest).
    Block(u32),
    /// Inside a `"` string literal.
    Str,
    /// Inside a raw string with `n` hashes (`r##"..."##`).
    RawStr(u32),
}

#[derive(Debug, Default)]
struct LexedLine {
    /// Code with string contents blanked and comments removed.
    code: String,
    /// Text of the trailing `//` comment (empty if none).
    comment: String,
}

fn lex(text: &str) -> Vec<LexedLine> {
    let mut out = Vec::new();
    let mut state = LexState::Normal;
    for line in text.lines() {
        let mut code = String::new();
        let mut comment = String::new();
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                LexState::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 0 {
                            LexState::Normal
                        } else {
                            LexState::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                LexState::Str => {
                    if c == '\\' {
                        i += 2;
                    } else {
                        if c == '"' {
                            state = LexState::Normal;
                            code.push('"');
                        }
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if c == '"' {
                        let closes =
                            (0..hashes as usize).all(|k| bytes.get(i + 1 + k) == Some(&'#'));
                        if closes {
                            state = LexState::Normal;
                            code.push('"');
                            i += 1 + hashes as usize;
                            continue;
                        }
                    }
                    i += 1;
                }
                LexState::Normal => {
                    if c == '/' && next == Some('/') {
                        comment = bytes[i..].iter().collect();
                        break;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::Block(0);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        state = LexState::Str;
                        i += 1;
                    } else if c == 'r'
                        && i.checked_sub(1)
                            .and_then(|p| bytes.get(p))
                            .is_none_or(|p| !(p.is_alphanumeric() || *p == '_'))
                        && matches!(next, Some('"') | Some('#'))
                    {
                        // Possible raw string: r"..." or r#"..."#.
                        let mut hashes = 0u32;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            code.push('"');
                            state = LexState::RawStr(hashes);
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal or lifetime: a char literal
                        // visibly closes within a few chars.
                        if next == Some('\\') {
                            let mut j = i + 2;
                            while j < bytes.len() && bytes[j] != '\'' {
                                j += 1;
                            }
                            code.push('\'');
                            i = (j + 1).min(bytes.len());
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            code.push('\'');
                            i += 3;
                        } else {
                            // A lifetime: keep as-is.
                            code.push(c);
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(LexedLine { code, comment });
    }
    out
}

// ---------------------------------------------------------------------------
// The scanner proper.
// ---------------------------------------------------------------------------

/// A site is justified by a `// <tag>` comment on its own line or
/// anywhere in the contiguous comment block directly above it.
fn has_justification(lines: &[LexedLine], idx: usize, tag: &str) -> bool {
    if lines[idx].comment.contains(tag) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        let prev = &lines[i - 1];
        if !prev.code.trim().is_empty() || prev.comment.is_empty() {
            break;
        }
        if prev.comment.contains(tag) {
            return true;
        }
        i -= 1;
    }
    false
}

/// Does the code between the last statement boundary and a
/// `thread::spawn` token indicate the spawn's result is consumed?
fn spawn_prefix_consumes(prefix: &str) -> bool {
    let p = prefix.trim().trim_end_matches("std::").trim_end();
    !p.is_empty()
}

// Note: `Vec::new`/`String::new` are absent on purpose — Rust's empty
// collection constructors do not allocate.
const ALLOC_MARKERS: &[&str] = &[
    "vec!",
    "String::from",
    "Box::new",
    "format!",
    "with_capacity",
    ".to_vec()",
    ".to_string()",
    ".collect()",
    ".collect::<",
];

/// Lint one source buffer. `file` is the repo-relative label used both
/// for reporting and for the path-dependent rules (hot-path modules,
/// allowlist).
pub fn lint_source(file: &str, text: &str, allow: &Allowlist) -> Vec<SrcFinding> {
    let lines = lex(text);
    let hot = HOT_PATHS.iter().any(|h| file.ends_with(h) || *h == file);
    let allowed = allow.covers(file);

    let mut findings = Vec::new();
    let mut depth: i64 = 0;
    // Brace stack entries: true = loop body.
    let mut loop_stack: Vec<bool> = Vec::new();
    // Code accumulated since the last `;` / `{` / `}` (statement head).
    let mut stmt_head = String::new();
    // A `#[cfg(test)]` attribute awaiting its item body.
    let mut cfg_test_pending = false;
    // Depth above which lines are test-only and skipped.
    let mut cfg_skip_above: Option<i64> = None;
    // In-flight multi-line detached-spawn scan: (line_idx, balance).
    let mut spawn_scan: Option<(usize, i64)> = None;

    for (idx, ll) in lines.iter().enumerate() {
        let code = ll.code.as_str();
        let in_test = cfg_skip_above.is_some();
        let in_loop = loop_stack.iter().any(|&l| l);

        // -- rules (evaluated with the state at the start of the line) --
        if !in_test {
            if !allowed
                && (code.contains("Ordering::Relaxed") || code.contains("Ordering::SeqCst"))
                && !has_justification(&lines, idx, "ordering:")
            {
                findings.push(SrcFinding {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: SrcRule::UnjustifiedOrdering,
                    message: "Relaxed/SeqCst atomic ordering without a `// ordering:` \
                              justification (see DESIGN.md \u{a7}5.8)"
                        .to_string(),
                    snippet: code.trim().to_string(),
                });
            }
            if hot {
                if (code.contains(".unwrap()") || code.contains(".expect("))
                    && !has_justification(&lines, idx, "hot-path:")
                {
                    findings.push(SrcFinding {
                        file: file.to_string(),
                        line: idx + 1,
                        rule: SrcRule::HotPathUnwrap,
                        message: "unwrap/expect in a hot-path module without a \
                                  `// hot-path:` justification"
                            .to_string(),
                        snippet: code.trim().to_string(),
                    });
                }
                if code.contains("Instant::now") && !has_justification(&lines, idx, "hot-path:") {
                    findings.push(SrcFinding {
                        file: file.to_string(),
                        line: idx + 1,
                        rule: SrcRule::HotPathInstant,
                        message: "Instant::now in a hot-path module without a \
                                  `// hot-path:` justification (hoist clock reads \
                                  out of the step loop)"
                            .to_string(),
                        snippet: code.trim().to_string(),
                    });
                }
                if in_loop
                    && ALLOC_MARKERS.iter().any(|m| code.contains(m))
                    && !has_justification(&lines, idx, "hot-path:")
                {
                    findings.push(SrcFinding {
                        file: file.to_string(),
                        line: idx + 1,
                        rule: SrcRule::HotPathAlloc,
                        message: "allocation inside a loop in a hot-path module \
                                  without a `// hot-path:` justification (reuse a \
                                  workspace buffer instead)"
                            .to_string(),
                        snippet: code.trim().to_string(),
                    });
                }
            }

            // -- detached thread::spawn tracking --
            if let Some((start_idx, mut bal)) = spawn_scan.take() {
                match close_call(code, 0, &mut bal) {
                    Some(end) => {
                        if code[end..].trim_start().starts_with(';')
                            && !has_justification(&lines, start_idx, "spawn:")
                        {
                            findings.push(detached_spawn_finding(
                                file,
                                start_idx,
                                lines[start_idx].code.as_str(),
                            ));
                        }
                    }
                    None => spawn_scan = Some((start_idx, bal)),
                }
            } else if let Some(pos) = code.find("thread::spawn") {
                // Statement head: everything since the last boundary,
                // including earlier lines when this line has none.
                let head_on_line = &code[..pos];
                let head = match head_on_line.rfind([';', '{', '}']) {
                    Some(b) => head_on_line[b + 1..].to_string(),
                    None => format!("{stmt_head}{head_on_line}"),
                };
                if !spawn_prefix_consumes(&head) {
                    let mut bal = 0i64;
                    match close_call(code, pos, &mut bal) {
                        Some(end) => {
                            if code[end..].trim_start().starts_with(';')
                                && !has_justification(&lines, idx, "spawn:")
                            {
                                findings.push(detached_spawn_finding(file, idx, code));
                            }
                        }
                        None => spawn_scan = Some((idx, bal)),
                    }
                }
            }
        }

        // -- state updates: cfg(test), braces, loops, statement head --
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            cfg_test_pending = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    if cfg_test_pending && cfg_skip_above.is_none() {
                        cfg_skip_above = Some(depth);
                        cfg_test_pending = false;
                    }
                    loop_stack.push(head_is_loop(&stmt_head));
                    depth += 1;
                    stmt_head.clear();
                }
                '}' => {
                    depth -= 1;
                    loop_stack.pop();
                    if cfg_skip_above == Some(depth) {
                        cfg_skip_above = None;
                    }
                    stmt_head.clear();
                }
                ';' => {
                    // An attribute on a braceless item (e.g. `mod x;`)
                    // has no body; cancel the pending skip.
                    cfg_test_pending = false;
                    stmt_head.clear();
                }
                c => stmt_head.push(c),
            }
        }
        stmt_head.push(' ');
    }
    findings
}

/// Advance paren `balance` through `code[from..]`; returns the index
/// just past the `)` that closes the call, if it closes on this line.
fn close_call(code: &str, from: usize, balance: &mut i64) -> Option<usize> {
    for (ci, ch) in code[from..].char_indices() {
        match ch {
            '(' => *balance += 1,
            ')' => {
                *balance -= 1;
                if *balance == 0 {
                    return Some(from + ci + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Is this statement head a loop header (`for` / `while` / `loop`),
/// allowing a leading `'label:`? `impl ... for` and HRTBs don't match
/// because the head's first word is `impl` / `fn`.
fn head_is_loop(head: &str) -> bool {
    let mut h = head.trim_start();
    if h.starts_with('\'') {
        if let Some((_, rest)) = h.split_once(':') {
            h = rest.trim_start();
        }
    }
    matches!(
        h.split_whitespace().next().unwrap_or(""),
        "for" | "while" | "loop"
    )
}

fn detached_spawn_finding(file: &str, idx: usize, code: &str) -> SrcFinding {
    SrcFinding {
        file: file.to_string(),
        line: idx + 1,
        rule: SrcRule::DetachedSpawn,
        message: "detached thread::spawn (JoinHandle discarded) without a \
                  `// spawn:` justification naming the retire/shutdown story"
            .to_string(),
        snippet: code.trim().to_string(),
    }
}

// ---------------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------------

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Load the allowlist at `root` (a missing file = empty allowlist).
pub fn load_allowlist(root: &Path) -> Allowlist {
    match fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    }
}

/// Scan every `crates/*/src/**/*.rs` under `root` and return the
/// combined report. Findings are sorted by path, then line.
pub fn lint_workspace(root: &Path) -> io::Result<SrcReport> {
    let allow = load_allowlist(root);
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut report = SrcReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path)?;
        report.findings.extend(lint_source(&rel, &text, &allow));
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::HOT_PATHS;
    use std::path::Path;

    /// A `HOT_PATHS` entry whose file was deleted or moved matches
    /// nothing and silently drops that module's hot-path rules.
    #[test]
    fn every_hot_path_entry_exists_in_the_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for entry in HOT_PATHS {
            assert!(
                root.join(entry).is_file(),
                "HOT_PATHS entry `{entry}` does not exist in the workspace"
            );
        }
    }
}
