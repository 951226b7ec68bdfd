//! In-memory span recording for the traced replay.
//!
//! Each span names the layer it times, a tag (scheme label, environment
//! or workload name), its parent span, its start and end on one
//! monotonic clock, and the oracle time spent inside it (read off the
//! shared [`OracleLog`]), so a layer's self time is its duration minus
//! its oracle children. Spans stay in memory until the run ends; then
//! [`Recorder::write_jsonl`] writes them out in one go.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::oracle::OracleLog;

/// The layer a span times. Names follow the crates they call into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole replay.
    Replay,
    /// One chip's share of the replay.
    Chip,
    /// `eval_uarch::profile_workload`.
    Profile,
    /// `ChipFactory::new` / `chip` / `no_variation`.
    Fab,
    /// `teacher::sample_bank` for one bank, through the timed oracle.
    /// A measurement pass: the training call that follows labels and
    /// fits the same bank again, as one opaque call.
    Label,
    /// Fitting one bank's three fuzzy controllers (`Freq`, `Vdd`, `Vbb`)
    /// to the labeled examples. A measurement pass, like [`Layer::Label`].
    FitFuzzy,
    /// Fitting one bank of each learned family (nn-table, tree, MLP). A
    /// measurement pass, like [`Layer::Label`].
    FitLearned,
    /// `FuzzyOptimizer::train` as the campaign runs it.
    Train,
    /// `ControllerZoo::train`.
    TrainZoo,
    /// `decide_phase`.
    Decide,
    /// Fixed-point `CoreModel::evaluate` sweeps: the Baseline/NoVar
    /// reference cells and the static scheme's held configuration.
    Eval,
}

impl Layer {
    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Replay => "replay",
            Layer::Chip => "chip",
            Layer::Profile => "profile",
            Layer::Fab => "fab",
            Layer::Label => "label",
            Layer::FitFuzzy => "fit-fuzzy",
            Layer::FitLearned => "fit-learned",
            Layer::Train => "train",
            Layer::TrainZoo => "train-zoo",
            Layer::Decide => "decide",
            Layer::Eval => "eval",
        }
    }

    /// Whether the span re-does work only to measure a layer; such spans
    /// are left out of the traced wall time the layers must add up to.
    pub fn measure_only(self) -> bool {
        matches!(self, Layer::Label | Layer::FitFuzzy | Layer::FitLearned)
    }

    /// Whether the span is a leaf layer (as opposed to a grouping span).
    pub fn is_layer(self) -> bool {
        !matches!(self, Layer::Replay | Layer::Chip)
    }
}

/// One completed (or open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer timed.
    pub layer: Layer,
    /// Scheme label, environment or workload name.
    pub tag: &'static str,
    /// Whether the span ran under an adaptive-body-bias environment.
    pub abb: bool,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Oracle time inside the span, ns.
    pub oracle_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        self.ns() as f64 * 1e-9
    }
}

/// Records spans against one clock origin.
pub struct Recorder<'a> {
    origin: Instant,
    log: &'a OracleLog,
    spans: Vec<Span>,
    stack: Vec<(usize, u64)>,
}

impl<'a> Recorder<'a> {
    /// A recorder reading oracle time from `log`.
    pub fn new(log: &'a OracleLog) -> Self {
        Self {
            origin: Instant::now(),
            log,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, layer: Layer, tag: &'static str, abb: bool) {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            tag,
            abb,
            parent: self.stack.last().map(|&(p, _)| p),
            start_ns: self.now_ns(),
            end_ns: 0,
            oracle_ns: 0,
        });
        self.stack.push((id, self.log.total_ns()));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let (id, oracle_at_start) = self.stack.pop().expect("end() matches a begin()");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.oracle_ns = self.log.total_ns() - oracle_at_start;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        layer: Layer,
        tag: &'static str,
        abb: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        self.begin(layer, tag, abb);
        let out = f();
        self.end();
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"span\":\"{}\",\"tag\":\"{}\",\"abb\":{},\"start_ns\":{},\"end_ns\":{},\"oracle_ns\":{}}}",
                s.layer.name(),
                s.tag,
                s.abb,
                s.start_ns,
                s.end_ns,
                s.oracle_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Nearest-rank percentile `q` (0..=1) of `samples`, which it sorts.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// The p99 of `samples`, reported only when at least ten samples lie
/// beyond it (n ≥ 1000); below that a p99 is a maximum in disguise.
pub fn p99(samples: &mut [u64]) -> Option<u64> {
    if samples.len() < 1000 {
        return None;
    }
    percentile(samples, 0.99)
}
