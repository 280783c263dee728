//! Spans recorded by the benchmark around calls into the product's public
//! functions. Kept in memory, written out once when the traced run ends.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval. `parent` links a child to the span that caused
/// it; spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log on one monotonic clock.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op_id: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op_id,
        });
        id
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, start, end, parent, op_id))
    }

    /// Lays measured durations end to end under `parent`, starting at the
    /// parent's start. Used when the parts of an operation were measured by
    /// replaying them one by one (in-process, after the wire call) rather
    /// than while the parent ran.
    pub fn lay_children(&mut self, parent: u32, parts: &[(&'static str, u64)]) {
        let Span {
            start_ns, op_id, ..
        } = self.spans[parent as usize];
        let mut at = start_ns;
        for (name, dur_ns) in parts {
            self.record(name, at, at + dur_ns, Some(parent), op_id);
            at += dur_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of its interval that
    /// its child spans cover (overlapping children are not counted twice,
    /// and a child reaching past the parent is clipped).
    pub fn self_time_ns(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration_ns() - covered
    }

    /// Share of the time under the spans named `root` that no child span
    /// accounts for.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        for span in self.spans.iter().filter(|s| s.name == root) {
            total += span.duration_ns();
            own += self.self_time_ns(span.id);
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// The whole log as a JSON array of `{id,name,start_ns,end_ns,parent,op_id}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Int(u64::from(s.id))),
                        ("name", Json::Str(s.name.into())),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(u64::from(p))),
                        ),
                        ("op_id", Json::Int(s.op_id)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new();
        let root = t.record("root", 100, 1_100, None, 1);
        // Two overlapping children cover [200, 600); one more covers
        // [800, 900); a grandchild must not count against the root.
        let a = t.record("a", 200, 500, Some(root), 1);
        t.record("b", 400, 600, Some(root), 1);
        t.record("c", 800, 900, Some(root), 1);
        t.record("grandchild", 250, 300, Some(a), 1);
        assert_eq!(t.self_time_ns(root), 1_000 - 400 - 100);
        assert_eq!(t.self_time_ns(a), 300 - 50);
        // A child reaching past its parent is clipped to the parent.
        let other = t.record("root", 2_000, 2_100, None, 2);
        t.record("late", 2_050, 9_000, Some(other), 2);
        assert_eq!(t.self_time_ns(other), 50);
        // Both roots together: (500 + 50) of (1000 + 100).
        assert!((t.unattributed_frac("root") - 0.5).abs() < 1e-12);
        assert_eq!(t.unattributed_frac("absent"), 0.0);
    }

    #[test]
    fn laid_children_run_end_to_end_from_the_parent_start() {
        let mut t = Tracer::new();
        let root = t.record("wire", 1_000, 2_000, None, 9);
        t.lay_children(root, &[("encode", 100), ("execute", 600)]);
        let spans = t.spans();
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1_000, 1_100));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1_100, 1_700));
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == Some(root) && s.op_id == 9));
        assert_eq!(t.self_time_ns(root), 300);
    }

    #[test]
    fn timed_spans_nest_and_serialise() {
        let mut t = Tracer::new();
        let ((), outer) = t.time("outer", None, 3, || {});
        let (value, inner) = t.time("inner", Some(outer), 3, || 41 + 1);
        assert_eq!(value, 42);
        assert!(t.spans()[inner as usize].end_ns >= t.spans()[inner as usize].start_ns);
        let json = t.to_json().write();
        assert!(json.starts_with(r#"[{"id": 0, "name": "outer", "start_ns": "#));
        assert!(json.contains(r#""parent": null, "op_id": 3}"#));
        assert!(json.contains(r#""parent": 0, "op_id": 3}"#));
    }
}
