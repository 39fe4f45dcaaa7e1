//! In-memory spans around every call into a layer, written out when the
//! run ends. Spans are recorded by the benchmark, from outside the engine;
//! parents follow the nesting workload → round → phase → op.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed interval of work. `parent` is 0 for the root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans on one thread. Switched off it costs one branch per call,
/// so the same code path serves the traced and the untraced run.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(id as usize - 1))
    }

    pub fn exit(&mut self, open: Open) {
        if let Open(Some(index)) = open {
            self.spans[index].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.enter(name);
        let out = f(self);
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: `{id, parent, workload, name, start_ns, end_ns}` each.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"workload\": ");
        out.push_str(&json::string(workload));
        out.push_str(", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"workload\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}\n",
                s.id,
                s.parent,
                json::string(workload),
                json::string(s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval that its child spans cover (children are
/// clipped to the parent and their union is taken, so overlapping children
/// are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut cursor = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time and span count per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut by_name: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(s.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    rows.sort_by_key(|&(_, t, _)| std::cmp::Reverse(t));
    rows
}

/// Share of the root span's duration spent inside some named descendant —
/// wall time the trace can attribute to a layer or a benchmark phase.
pub fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    match spans.iter().position(|s| s.parent == 0) {
        Some(root) if spans[root].end_ns > spans[root].start_ns => {
            let total = (spans[root].end_ns - spans[root].start_ns) as f64;
            1.0 - own[root] as f64 / total
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60), // overlaps a by 10
            span(4, 2, "leaf", 15, 20),
            span(5, 1, "late", 90, 120), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 5, 30]);
        assert!((coverage(&spans) - 0.6).abs() < 1e-12);
        let rows = self_time_by_name(&spans);
        assert_eq!(rows[0], ("root", 40, 1));
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            let open = t.enter("inner");
            t.exit(open);
            t.span("inner", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let text = t.to_json("w");
        assert!(text.starts_with("{\"workload\": \"w\", \"spans\": ["));
        assert_eq!(text.matches("\"name\": \"inner\"").count(), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
