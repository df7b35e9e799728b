//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Boundary calls (an epoch close, a solve, a batch push, a DP)
//! each get a span. Per-access calls are too frequent and too short for
//! a span each: they are counted on every call and timed on a random
//! sample (single calls inside the stage wrappers while [`set_sampling`]
//! is on, blocks of calls in the replay loop), and the layer's busy time
//! is estimated as calls × mean sampled time.
//!
//! A layer is the span name's prefix before the first `.`; spans named
//! `run.*` are roots whose duration is the wall time being accounted.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    static SAMPLE: Cell<bool> = const { Cell::new(false) };
}

/// Marks whether the calls made on this thread until the next change
/// belong to a sampled iteration.
pub fn set_sampling(on: bool) {
    SAMPLE.with(|s| s.set(on));
}

/// True inside a sampled iteration.
pub fn sampling() -> bool {
    SAMPLE.with(|s| s.get())
}

/// One finished span; times are nanoseconds since the tracer began.
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Sampled per-call timings of one call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sampled {
    pub calls: u64,
    pub samples: u64,
    pub sampled_ns: u64,
}

impl Sampled {
    /// Mean nanoseconds per sampled call.
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sampled_ns as f64 / self.samples as f64
        }
    }

    /// Mean nanoseconds per sampled call, net of what timing one call
    /// adds (`clock_ns`).
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            (self.mean_ns() - clock_ns).max(0.0)
        }
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    sampled: BTreeMap<&'static str, Sampled>,
    counts: BTreeMap<&'static str, u64>,
}

/// Shared span recorder. Cloning shares the same record.
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    state: Arc<Mutex<State>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        let mut state = self.tracer.lock();
        state.spans[self.index].end_ns = end;
        state.stack.pop();
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Arc::new(Mutex::new(State::default())),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("no span holder panics")
    }

    /// Opens a span, child of the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.now();
        let mut state = self.lock();
        let index = state.spans.len();
        let parent = state.stack.last().copied();
        state.spans.push(Span {
            parent,
            name,
            start_ns: start,
            end_ns: start,
        });
        state.stack.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Runs `f` inside a span and returns the span's duration.
    pub fn timed(&self, name: &'static str, f: impl FnOnce()) -> u64 {
        let index = {
            let guard = self.enter(name);
            f();
            guard.index
        };
        self.lock().spans[index].duration_ns()
    }

    pub fn add_sampled(&self, name: &'static str, calls: u64, samples: u64, sampled_ns: u64) {
        let mut state = self.lock();
        let s = state.sampled.entry(name).or_default();
        s.calls += calls;
        s.samples += samples;
        s.sampled_ns += sampled_ns;
    }

    pub fn add_count(&self, name: &'static str, n: u64) {
        *self.lock().counts.entry(name).or_default() += n;
    }

    /// Everything recorded so far.
    pub fn data(&self) -> TraceData {
        let state = self.lock();
        TraceData {
            spans: state.spans.clone(),
            sampled: state.sampled.clone(),
            counts: state.counts.clone(),
        }
    }
}

/// A snapshot of a tracer's record, with the derived self times.
pub struct TraceData {
    pub spans: Vec<Span>,
    pub sampled: BTreeMap<&'static str, Sampled>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl TraceData {
    /// Each span's duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self times of every span named `name`, in nanoseconds.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Summed self time of the spans of each layer, roots excluded.
    pub fn span_self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_ns()) {
            if s.parent.is_some() {
                *out.entry(s.layer()).or_insert(0.0) += t as f64;
            }
        }
        out
    }

    /// Summed duration of the root spans: the wall time accounted.
    pub fn wall_ns(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64)
            .sum()
    }

    pub fn sampled(&self, name: &str) -> Sampled {
        self.sampled.get(name).copied().unwrap_or_default()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
