//! Benchmark-side spans: one around every public call the benchmark makes
//! into the program, grouped under the op that made it. Spans are kept in
//! memory and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::self_time;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// An in-memory span log. Disabled, it records nothing and every span
/// id it hands out is a dummy.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off; spans opened while off are not kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start = self.now();
        self.spans.push(SpanRec {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of span `id`, nanoseconds.
    pub fn duration(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end - s.start
    }

    /// The ids of span `id`'s direct children.
    pub fn children(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        (id + 1..self.spans.len()).filter(move |&c| self.spans[c].parent == Some(id))
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let kids: Vec<(u64, u64)> = self
            .children(id)
            .map(|c| (self.spans[c].start, self.spans[c].end))
            .collect();
        self_time((s.start, s.end), &kids)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_of_a_span_excludes_its_children_only() {
        let mut log = SpanLog::new(true);
        let op = log.open("op", None, 7);
        let call = log.open("call", Some(op), 7);
        let inner = log.open("inner", Some(call), 7);
        log.close(inner);
        log.close(call);
        log.close(op);
        // Only direct children count against a span.
        assert_eq!(log.children(op).collect::<Vec<_>>(), vec![call]);
        assert_eq!(log.self_ns(op), log.duration(op) - log.duration(call));
        assert_eq!(log.self_ns(call), log.duration(call) - log.duration(inner));
        assert_eq!(log.self_ns(inner), log.duration(inner));
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let id = log.open("op", None, 0);
        log.close(id);
        assert!(log.spans.is_empty());
    }
}
