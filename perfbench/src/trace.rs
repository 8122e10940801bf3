//! Spans recorded from the benchmark's side of each call into the
//! program: name, start, end, parent span and request id, plus counts
//! taken at the same boundary. Kept in memory, written as JSON at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// 0 for set-up, 1.. for the query phase's requests.
    pub request: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub spans: usize,
    pub total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns the result and the span's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Adds a span the program measured itself (a stage total from its
    /// per-query stats), placed under `parent` starting at `start_ns`.
    pub fn reported(&mut self, parent: usize, name: &'static str, start_ns: u64, dur_ns: u64) {
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            request,
            counts: Vec::new(),
        });
    }

    pub fn count(&mut self, span: usize, name: &'static str, value: f64) {
        self.spans[span].counts.push((name, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            let layer = out.entry(s.name).or_default();
            layer.spans += 1;
            layer.total_ns += s.dur_ns();
            layer.self_ns += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"counts\":{{",
                s.name, s.start_ns, s.end_ns, s.request
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{}", json_number(*v));
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// A finite number as JSON (non-finite values become `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let (_, root) = t.span("root", 0, |_| ());
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        // Overlapping children [10, 40) and [30, 50) cover 40 ns; one
        // sticking out past the end is clipped to [90, 100).
        t.reported(root, "a", 10, 30);
        t.reported(root, "a", 30, 20);
        t.reported(root, "b", 90, 50);
        let layers = t.layers();
        assert_eq!(layers["root"].self_ns, 50);
        assert_eq!(layers["a"].spans, 2);
        assert_eq!(layers["a"].total_ns, 50);
        assert_eq!(layers["b"].self_ns, 50);
    }

    #[test]
    fn nested_spans_record_parents_and_valid_json() {
        let mut t = Tracer::new();
        let ((_, inner), outer) = t.span("outer", 3, |t| t.span("inner", 3, |_| ()));
        t.count(inner, "items", 2.0);
        assert_eq!(t.spans()[inner].parent, Some(outer));
        assert_eq!(t.spans()[outer].parent, None);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"counts\":{\"items\":2}"));
    }
}
