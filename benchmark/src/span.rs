//! Driver-side spans: one per call into the exchange, nested under the
//! client wave that made it and the repetition it belongs to. Spans are
//! kept in memory and written out when the run ends.
//!
//! The clock is always read (latency needs the same timestamps); a
//! disabled recorder simply stores nothing, so the untraced run carries no
//! span bookkeeping.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of the span that caused this one; [`NO_PARENT`] at the top level.
pub type SpanId = u32;

pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open enclosing spans, innermost last.
    stack: Vec<SpanId>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { origin: Instant::now(), enabled, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens an enclosing span at `start_ns`; spans recorded until the
    /// matching [`exit`](Self::exit) become its children.
    pub fn enter(&mut self, name: &'static str, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent: self.parent() });
        self.stack.push(id);
    }

    /// Closes the innermost enclosing span at `end_ns`.
    pub fn exit(&mut self, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records one finished call. The name may depend on what the call
    /// returned, which is why it is given after the fact.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span { name, start_ns, end_ns, parent: self.parent() });
        }
    }

    fn parent(&self) -> SpanId {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `id,name,start_ns,end_ns,parent` lines (parent empty at the
    /// top level).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent")?;
        for (id, s) in self.spans.iter().enumerate() {
            write!(out, "{id},{},{},{},", s.name, s.start_ns, s.end_ns)?;
            if s.parent != NO_PARENT {
                write!(out, "{}", s.parent)?;
            }
            writeln!(out)?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span("repetition", 0, 100, NO_PARENT),
            span("step", 10, 30, 0),
            span("wave", 40, 90, 0),
            span("submit", 45, 55, 2),
            span("submit", 60, 80, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", 100, 200, NO_PARENT),
            span("a", 110, 150, 0),
            span("b", 140, 160, 0), // overlaps a by 10
            span("c", 190, 250, 0), // hangs over the parent's end
            span("d", 120, 130, 0), // inside a
        ];
        // Covered: [110,160) and [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_by_enter_and_exit() {
        let mut rec = Recorder::new(true);
        rec.enter("repetition", 0);
        rec.leaf("step", 1, 2);
        rec.enter("wave", 3);
        rec.leaf("submit", 4, 5);
        rec.exit(6);
        rec.leaf("step", 7, 8);
        rec.exit(9);
        let parents: Vec<SpanId> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0, 2, 0]);
        assert_eq!(rec.spans()[0].end_ns, 9);
        assert_eq!(rec.spans()[2].end_ns, 6);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(false);
        rec.enter("repetition", 0);
        rec.leaf("step", 1, 2);
        rec.exit(3);
        assert!(rec.spans().is_empty());
    }
}
