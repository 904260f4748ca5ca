//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written once, as JSON lines, when the run
//! ends. A disabled recorder runs the same closures and records nothing,
//! so a traced and an untraced repetition execute the same code.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use bci_telemetry::{obj, Json};

/// Index of a recorded span; the parent link of its children.
pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span recorder.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from now.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the following calls.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (`None` when recording is off) to parent nested spans.
    pub fn span<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Spans, Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, None);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_us,
            end_us: start_us,
        });
        let out = f(self, Some(id));
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", Json::UInt(id as u64)),
                ("name", Json::str(&s.name)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
