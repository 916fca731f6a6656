//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public API:
//! name, layer, start, end, parent span, and the request the span works
//! for. They stay in memory and are written out once, when the run ends,
//! as Chrome trace-event JSON (loadable in `chrome://tracing` or
//! Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request index within the workload trace, when the span serves one.
    pub request: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span store plus the stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, request: Option<usize>) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.dur_ns() as f64 * 1e-9
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.enter(layer, name, request);
        let r = f();
        (r, self.exit())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of `layer`, seconds: each of its spans' duration minus
    /// the part its direct children cover (children never overlap one
    /// another, since the recorder is single-threaded).
    pub fn self_time_s(&self, layer: &str) -> f64 {
        let mut own_ns: i128 = 0;
        for s in &self.spans {
            if s.layer == layer {
                own_ns += i128::from(s.dur_ns());
            }
            if let Some(p) = s.parent {
                if self.spans[p].layer == layer {
                    own_ns -= i128::from(s.dur_ns());
                }
            }
        }
        own_ns.max(0) as f64 * 1e-9
    }

    /// Chrome trace-event JSON of every span; `meta` is a JSON object
    /// embedded verbatim under `"metadata"`.
    pub fn to_chrome_json(&self, meta: &str) -> String {
        let mut s = String::with_capacity(self.spans.len() * 128 + meta.len() + 64);
        s.push_str("{\"metadata\":");
        s.push_str(meta);
        s.push_str(",\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                sp.name,
                sp.layer,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                i,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.request.map_or("null".to_string(), |r| r.to_string()),
            );
        }
        s.push_str("]}\n");
        s
    }
}
