//! In-memory span recorder for traced benchmark runs.
//!
//! A span covers one harness call into a layer of the system (dataset
//! generation, open, create, `load_edges`, checkpoint, run, readback, reopen,
//! oracle). Each span keeps its name, start and end (seconds since the
//! tracer was created), its parent span and the run id, plus numeric
//! attributes (counter deltas taken at the same boundaries) and raw JSON
//! attachments (the per-superstep stats under a run span). Nothing is written
//! until [`Tracer::write`] runs at the end of the process, so the recorder
//! itself adds one lock and one `Instant::now()` per boundary.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use vertexica_common::sync::Mutex;

use crate::report::json_number;

struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: Option<f64>,
    attrs: Vec<(String, f64)>,
    attachments: Vec<(String, String)>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records nested spans for one benchmark process.
pub struct Tracer {
    epoch: Instant,
    run_id: String,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(run_id: String) -> Tracer {
        Tracer { epoch: Instant::now(), run_id, state: Mutex::new(State::default()) }
    }

    /// Opens a span as a child of the innermost open span; returns its id.
    pub fn enter(&self, name: &str) -> usize {
        let start_s = self.epoch.elapsed().as_secs_f64();
        let mut st = self.state.lock();
        let parent = st.open.last().copied();
        let id = st.spans.len();
        st.spans.push(Span {
            name: name.to_string(),
            parent,
            start_s,
            end_s: None,
            attrs: Vec::new(),
            attachments: Vec::new(),
        });
        st.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn exit(&self, id: usize) {
        let end_s = self.epoch.elapsed().as_secs_f64();
        let mut st = self.state.lock();
        while let Some(top) = st.open.pop() {
            st.spans[top].end_s = Some(end_s);
            if top == id {
                break;
            }
        }
    }

    /// Adds a numeric attribute to span `id`.
    pub fn attr(&self, id: usize, key: &str, value: f64) {
        self.state.lock().spans[id].attrs.push((key.to_string(), value));
    }

    /// Attaches a pre-rendered JSON value to span `id` under `key`.
    pub fn attach(&self, id: usize, key: &str, json: String) {
        self.state.lock().spans[id].attachments.push((key.to_string(), json));
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.state.lock().spans.len()
    }

    /// Renders every span as a JSON document.
    pub fn to_json(&self) -> String {
        let st = self.state.lock();
        let mut out = String::new();
        let _ = write!(out, "{{\"run_id\": \"{}\", \"spans\": [", self.run_id);
        for (id, s) in st.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end_s.map_or("null".to_string(), json_number);
            let _ = write!(
                out,
                "\n  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"run_id\": \"{}\", \
                 \"start_s\": {}, \"end_s\": {end}, \"attrs\": {{",
                s.name,
                self.run_id,
                json_number(s.start_s)
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i > 0 { ", " } else { "" };
                let _ = write!(out, "{sep}\"{k}\": {}", json_number(*v));
            }
            out.push('}');
            for (k, json) in &s.attachments {
                let _ = write!(out, ", \"{k}\": {json}");
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the spans to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Runs `f` inside a span named `name` when tracing is on; plain call
/// otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let id = t.enter(name);
            let out = f();
            t.exit(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let t = Tracer::new("r1".into());
        let outer = t.enter("run");
        span(Some(&t), "inner", || ());
        t.attr(outer, "wal.records", 3.0);
        t.attach(outer, "supersteps", "[{\"superstep\": 0}]".into());
        t.exit(outer);
        assert_eq!(t.len(), 2);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"inner\", \"parent\": 0"), "{json}");
        assert!(json.contains("\"wal.records\": 3"), "{json}");
        assert!(json.contains("\"supersteps\": [{\"superstep\": 0}]"), "{json}");
        assert!(!json.contains("\"end_s\": null"), "{json}");
    }
}
