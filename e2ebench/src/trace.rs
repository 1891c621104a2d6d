//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<operation>`), a start and an end, the
//! span it ran under, and a group id: every span of one serving tick
//! shares the tick's id. Spans stay in memory while the benchmark runs
//! and are written out once it ends. A disabled tracer records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, group: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open` (and any span left open inside it). Returns the span's
    /// duration in nanoseconds, or 0 when the tracer was disabled at
    /// `enter`.
    pub fn exit(&mut self, open: Open) -> u64 {
        let Some(index) = open.0 else { return 0 };
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
            if top == index {
                break;
            }
        }
        self.spans[index].duration_ns()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, group);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children of one parent never overlap
/// when recorded on one thread, but the union is computed anyway so that
/// the result stays correct if they do.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor).max(s.start_ns);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in nanoseconds, sorted by layer name.
pub fn layer_self_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *totals.entry(s.layer()).or_default() += own;
    }
    totals.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            group: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.tick", None, 0, 100),
            span("serve.tick", Some(0), 10, 60),
            span("core.score", Some(1), 20, 50),
            span("data.sync", Some(0), 70, 80),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
        assert_eq!(
            layer_self_ns(&spans),
            vec![("bench", 40), ("core", 30), ("data", 10), ("serve", 20)]
        );
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let spans = vec![
            span("a.root", None, 0, 100),
            span("b.x", Some(0), 10, 40),
            span("b.y", Some(0), 30, 60),
            span("b.z", Some(0), 90, 120),
        ];
        // Covered: [10, 60) and [90, 100) = 60 ns.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans_and_shares_group_ids() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("serve.tick", 7);
        let inner = tracer.enter("core.score", 7);
        tracer.exit(inner);
        tracer.exit(outer);
        tracer.span("data.sync", 8, || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[0].group, spans[1].group, spans[2].group), (7, 7, 8));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let open = tracer.enter("serve.tick", 1);
        assert_eq!(tracer.exit(open), 0);
        assert_eq!(tracer.span("x.y", 1, || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
