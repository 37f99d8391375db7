//! The benchmark's own in-memory spans, recorded around each call into a
//! layer and written out when the traced run ends.
//!
//! A layer can only be timed from outside here, so what runs *inside* a
//! call (the engine under `Server::submit`, the VM under
//! `CompiledFn::call`) is timed again by calling the inner layer directly
//! on the same arguments and recording that span as a child of the outer
//! one: parent links are explicit, not inferred from time containment.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Disabled, it takes no timestamps and
/// records nothing — the untraced half of the tracing-overhead comparison.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span and return its index, for [`Recorder::end`] and for
    /// children to name as parent. Disabled, nothing is recorded and the
    /// index is meaningless.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        if let Some(s) = self.spans.get_mut(span) {
            s.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span of its own.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, request);
        let out = f();
        self.end(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line inside an array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Each span's self time — its duration minus its children's — in
/// nanoseconds, as samples per span name. Signed: a child timed on a
/// separate call can outlast its parent by noise, and that is reported,
/// not clamped.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(children) {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 - child_ns as f64);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("serve", 0, 100, None),
            span("api", 200, 260, Some(0)),
            span("vm", 300, 345, Some(1)),
            span("encode", 400, 410, None),
        ];
        let st = self_times(&spans);
        assert_eq!(st["serve"], vec![40.0]);
        assert_eq!(st["api"], vec![15.0]);
        assert_eq!(st["vm"], vec![45.0]);
        assert_eq!(st["encode"], vec![10.0]);
        let total: f64 = st.values().flatten().sum();
        assert_eq!(total, 110.0, "self times of a tree sum to its roots");
    }

    #[test]
    fn self_time_is_signed_when_a_child_outlasts_its_parent() {
        let spans = [span("outer", 0, 10, None), span("inner", 20, 32, Some(0))];
        assert_eq!(self_times(&spans)["outer"], vec![-2.0]);
    }

    #[test]
    fn disabled_recorder_runs_the_closure_and_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.time("x", None, 0, || 41 + 1), 42);
        let ghost = r.begin("y", None, 0);
        r.end(ghost);
        assert!(r.spans().is_empty());
        r.set_enabled(true);
        let outer = r.begin("outer", None, 7);
        r.time("inner", Some(outer), 7, || ());
        r.end(outer);
        let (o, i) = (&r.spans()[0], &r.spans()[1]);
        assert_eq!((i.name, i.parent, i.request), ("inner", Some(outer), 7));
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        assert!(r.to_json().contains("\"name\":\"inner\""));
    }
}
