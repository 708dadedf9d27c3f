//! Spans recorded by the harness around its calls into the program.
//!
//! Spans stay in memory and are written as JSON lines when the run ends. A
//! span's parent is the span that was open on the same thread when it
//! began; its self time is its duration minus the part its children cover
//! (children of one parent never overlap: a thread opens one at a time).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub attrs: Vec<(&'static str, Value)>,
}

/// Handle to an open span; `SpanId::NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// One thread's recorder. Threads of one run share `epoch` (so their
/// timestamps line up) and take disjoint `id_base`s.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are recorded right now. A traced run switches this per
    /// operation to measure what tracing itself costs.
    pub enabled: bool,
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            id_base: thread << 40,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let index = self.spans.len();
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_us = self.now_us();
        self.spans.push(Span {
            id: self.id_base + index as u64,
            parent,
            name,
            start_us,
            end_us: start_us,
            attrs: Vec::new(),
        });
        self.open.push(index);
        SpanId(index)
    }

    pub fn attr(&mut self, span: SpanId, key: &'static str, value: Value) {
        if let Some(s) = self.spans.get_mut(span.0) {
            s.attrs.push((key, value));
        }
    }

    /// Close `span` and every span opened inside it that is still open.
    pub fn end(&mut self, span: SpanId) {
        if span == SpanId::NONE {
            return;
        }
        let now = self.now_us();
        while let Some(index) = self.open.pop() {
            self.spans[index].end_us = now;
            if index == span.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in the order given.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut index = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert(s.id, i);
    }
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|id| index.get(&id)) {
            own[p] -= s.end_us - s.start_us;
        }
    }
    own
}

/// Write one JSON object per span: id, parent, name, start, duration, self
/// time (all in microseconds) and the span's attributes.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_us) in spans.iter().zip(self_times_us(spans)) {
        let mut fields = vec![
            ("id", Value::Num(span.id as f64)),
            (
                "parent",
                span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
            ),
            ("name", Value::str(span.name)),
            ("start_us", Value::Num(span.start_us)),
            ("dur_us", Value::Num(span.end_us - span.start_us)),
            ("self_us", Value::Num(self_us)),
        ];
        fields.extend(span.attrs.iter().map(|(k, v)| (*k, v.clone())));
        writeln!(out, "{}", Value::obj(fields))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0);
        let s = t.begin("op");
        t.attr(s, "k", Value::Num(1.0));
        t.end(s);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn children_point_at_their_parent_and_self_time_excludes_them() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.enabled = true;
        let root = t.begin("op");
        let child = t.begin("call");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.within("call2", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.attr(root, "seq", Value::Num(7.0));
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[0].id));
        assert_eq!(spans[0].id >> 40, 1);
        let own = self_times_us(&spans);
        let children =
            (spans[1].end_us - spans[1].start_us) + (spans[2].end_us - spans[2].start_us);
        let total = spans[0].end_us - spans[0].start_us;
        assert!((own[0] - (total - children)).abs() < 1e-6);
        assert!(own[0] >= 0.0 && own[0] < total);
        assert_eq!(own[1], spans[1].end_us - spans[1].start_us);
    }

    #[test]
    fn ending_a_parent_closes_what_is_open_inside_it() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.enabled = true;
        let root = t.begin("op");
        let _leaked = t.begin("call");
        t.end(root);
        let next = t.begin("op");
        t.end(next);
        let spans = t.into_spans();
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].end_us >= spans[1].start_us);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_attributes() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.enabled = true;
        let s = t.begin("op");
        t.attr(s, "workload", Value::str("w"));
        t.end(s);
        let dir = crate::harness::Scratch::new("trace-test").unwrap();
        let path = dir.path().join("trace.jsonl");
        write_jsonl(&path, &t.into_spans()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("name").unwrap().as_str(), Some("op"));
        assert_eq!(line.get("workload").unwrap().as_str(), Some("w"));
        assert!(line.get("self_us").unwrap().as_f64().is_some());
    }
}
