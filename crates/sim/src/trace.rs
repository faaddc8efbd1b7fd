//! Structured execution traces.
//!
//! The experiment harness regenerates the paper's figures (e.g. the
//! deploy/trigger timeline of Figures 1–2 and the two-leader propagation of
//! Figure 8) from traces recorded here rather than from ad-hoc printouts, so
//! the same trace can be asserted on in tests and rendered by the `experiments`
//! binary.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::clock::SimTime;

/// One timestamped, categorized trace record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// When the event happened.
    pub time: SimTime,
    /// Who did it (party name, chain name, "sim", ...).
    pub actor: String,
    /// Machine-friendly category, e.g. `contract.published`.
    pub kind: String,
    /// Human-friendly details.
    pub detail: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} {}: {}", self.time, self.actor, self.kind, self.detail)
    }
}

/// An append-only log of [`TraceEntry`] records.
///
/// # Example
///
/// ```
/// use swap_sim::{SimTime, TraceLog};
/// let mut log = TraceLog::new();
/// log.record(SimTime::from_ticks(3), "alice", "contract.published", "arc A->B");
/// assert_eq!(log.entries_of_kind("contract.published").count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceLog {
    entries: Vec<TraceEntry>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends an entry.
    pub fn record(
        &mut self,
        time: SimTime,
        actor: impl Into<String>,
        kind: impl Into<String>,
        detail: impl Into<String>,
    ) {
        self.entries.push(TraceEntry {
            time,
            actor: actor.into(),
            kind: kind.into(),
            detail: detail.into(),
        });
    }

    /// All entries in insertion order (which is also time order when the
    /// producer is a discrete-event simulation).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Iterator over entries with the given `kind`.
    pub fn entries_of_kind<'a>(
        &'a self,
        kind: &'a str,
    ) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Iterator over entries by the given `actor`.
    pub fn entries_of_actor<'a>(
        &'a self,
        actor: &'a str,
    ) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |e| e.actor == actor)
    }

    /// The time of the last entry, if any.
    pub fn last_time(&self) -> Option<SimTime> {
        self.entries.last().map(|e| e.time)
    }

    /// The time of the first entry matching `kind`, if any.
    pub fn first_time_of_kind(&self, kind: &str) -> Option<SimTime> {
        self.entries_of_kind(kind).next().map(|e| e.time)
    }

    /// The time of the last entry matching `kind`, if any.
    pub fn last_time_of_kind(&self, kind: &str) -> Option<SimTime> {
        self.entries_of_kind(kind).last().map(|e| e.time)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another log into this one, keeping global time order stable by
    /// a stable sort on time (insertion order breaks ties).
    pub fn merge(&mut self, other: TraceLog) {
        self.entries.extend(other.entries);
        self.entries.sort_by_key(|e| e.time);
    }

    /// Renders the log as a plain-text timeline (one line per entry).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

impl Extend<TraceEntry> for TraceLog {
    fn extend<T: IntoIterator<Item = TraceEntry>>(&mut self, iter: T) {
        self.entries.extend(iter);
    }
}

impl FromIterator<TraceEntry> for TraceLog {
    fn from_iter<T: IntoIterator<Item = TraceEntry>>(iter: T) -> Self {
        TraceLog { entries: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = &'a TraceEntry;
    type IntoIter = std::slice::Iter<'a, TraceEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceLog {
        let mut log = TraceLog::new();
        log.record(SimTime::from_ticks(1), "alice", "contract.published", "altcoin arc");
        log.record(SimTime::from_ticks(2), "bob", "contract.published", "bitcoin arc");
        log.record(SimTime::from_ticks(4), "alice", "secret.revealed", "s");
        log
    }

    #[test]
    fn record_and_filter() {
        let log = sample();
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.entries_of_kind("contract.published").count(), 2);
        assert_eq!(log.entries_of_actor("alice").count(), 2);
    }

    #[test]
    fn first_and_last_times() {
        let log = sample();
        assert_eq!(log.first_time_of_kind("contract.published"), Some(SimTime::from_ticks(1)));
        assert_eq!(log.last_time_of_kind("contract.published"), Some(SimTime::from_ticks(2)));
        assert_eq!(log.last_time(), Some(SimTime::from_ticks(4)));
        assert_eq!(log.first_time_of_kind("missing"), None);
    }

    #[test]
    fn merge_sorts_by_time() {
        let mut a = TraceLog::new();
        a.record(SimTime::from_ticks(5), "x", "k", "later");
        let mut b = TraceLog::new();
        b.record(SimTime::from_ticks(1), "y", "k", "earlier");
        a.merge(b);
        assert_eq!(a.entries()[0].detail, "earlier");
        assert_eq!(a.entries()[1].detail, "later");
    }

    #[test]
    fn render_contains_all_entries() {
        let log = sample();
        let text = log.render();
        assert!(text.contains("alice"));
        assert!(text.contains("secret.revealed"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn collect_and_iterate() {
        let log = sample();
        let copied: TraceLog = log.entries().iter().cloned().collect();
        assert_eq!(copied, log);
        let times: Vec<u64> = (&log).into_iter().map(|e| e.time.ticks()).collect();
        assert_eq!(times, vec![1, 2, 4]);
    }

    #[test]
    fn display_format() {
        let e = TraceEntry {
            time: SimTime::from_ticks(9),
            actor: "carol".into(),
            kind: "claim".into(),
            detail: "cadillac".into(),
        };
        assert_eq!(e.to_string(), "[t=9] carol claim: cadillac");
    }
}
