//! In-memory span recording and the small statistics the report needs.
//!
//! A span covers one call from the benchmark into a layer of the program.
//! Spans are kept in memory while the run measures and written out once it
//! ends; a layer's self time is its span's duration minus the part covered by
//! its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `rsn_model.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one operation or request.
    pub request: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), state: Mutex::new(State::default()) }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation: later spans carry the returned id.
    pub fn next_request(&self) -> u64 {
        let mut st = self.state.lock().expect("tracer lock is never poisoned");
        st.request += 1;
        st.request
    }

    /// Runs `f` inside a span named `name`. Spans nest by call order, so
    /// this is meant for one thread at a time.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.state.lock().expect("tracer lock is never poisoned");
            let parent = st.open.last().copied();
            let request = st.request;
            let start_ns = self.now_ns();
            st.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
            let idx = st.spans.len() - 1;
            st.open.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut st = self.state.lock().expect("tracer lock is never poisoned");
        st.spans[idx].end_ns = end;
        st.open.pop();
        out
    }

    /// Adds spans recorded elsewhere (another thread's client spans).
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            let mut st = self.state.lock().expect("tracer lock is never poisoned");
            let base = st.spans.len();
            st.spans.extend(spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn span_count(&self) -> usize {
        self.state.lock().expect("tracer lock is never poisoned").spans.len()
    }

    /// Self time per layer name in milliseconds, over every span so far.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let st = self.state.lock().expect("tracer lock is never poisoned");
        let mut child_ns = vec![0u64; st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in st.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line: name, start, end, parent, request.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.state.lock().expect("tracer lock is never poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &st.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// A span recorder for one client thread, merged into a [`Tracer`] later.
pub struct LocalSpans {
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl LocalSpans {
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: u64) {
        if self.enabled {
            self.spans.push(Span { name, start_ns, end_ns, parent: None, request });
        }
    }
}

/// A uniform sample of at most [`Samples::CAP`] values out of a stream
/// (reservoir sampling with a fixed-seed generator), so that memory, and
/// with it the peak RSS the benchmark reports, does not grow with the
/// number of operations a run completes.
pub struct Samples {
    seen: u64,
    kept: Vec<f64>,
    state: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Self { seen: 0, kept: Vec::with_capacity(Self::CAP), state: 0x5EED }
    }
}

impl Samples {
    pub const CAP: usize = 1 << 16;

    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.kept.len() < Self::CAP {
            self.kept.push(value);
            return;
        }
        self.state = crate::splitmix(self.state);
        let j = self.state % self.seen;
        if let Some(slot) = self.kept.get_mut(j as usize) {
            *slot = value;
        }
    }

    /// How many values were pushed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn values(&self) -> &[f64] {
        &self.kept
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the listed percentiles that leaves at least ten samples
/// above it, with that percentile; `None` below forty samples, where a tail
/// would be no tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 40 {
        return None;
    }
    let n = values.len() as f64;
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, quantile(values, p / 100.0)))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
