//! A timing wrapper around the exhaustive oracle.
//!
//! [`TimedOracle`] implements the public [`Optimizer`] trait by
//! forwarding every call to an owned [`ExhaustiveOptimizer`] and logging
//! the wall time of each `freq_max` / `power_settings` call into a shared
//! [`OracleLog`]. `decide_phase` and `teacher::sample_bank` both take
//! `&dyn Optimizer`, so the benchmark can time the oracle layer without
//! any change to the program. The wrapper is transparent: it returns
//! exactly what the wrapped oracle returns (pinned by
//! `tests/transparency.rs`).

use std::cell::{Cell, RefCell};
use std::time::Instant;

use eval_adapt::{ExhaustiveOptimizer, Optimizer, SubsystemScene};
use eval_core::EvalConfig;
use eval_trace::Tracer;

/// Which oracle algorithm a call ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleCall {
    /// The `Freq` algorithm.
    FreqMax,
    /// The `Power` algorithm.
    Power,
}

/// Per-call durations of every oracle call made through any
/// [`TimedOracle`] sharing this log, split by algorithm and by whether
/// the scene's environment has adaptive body bias (ABB multiplies the
/// `(Vdd, Vbb)` grid by 21).
#[derive(Debug, Default)]
pub struct OracleLog {
    /// Nanoseconds per call, indexed by [`OracleLog::slot`].
    calls: RefCell<[Vec<u64>; 4]>,
    total_ns: Cell<u64>,
}

impl OracleLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(call: OracleCall, abb: bool) -> usize {
        (call as usize) * 2 + usize::from(abb)
    }

    fn push(&self, call: OracleCall, abb: bool, ns: u64) {
        self.calls.borrow_mut()[Self::slot(call, abb)].push(ns);
        self.total_ns.set(self.total_ns.get() + ns);
    }

    /// Total nanoseconds spent inside oracle calls so far.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.get()
    }

    /// The per-call durations (ns) of `call`, restricted to ABB scenes
    /// (`Some(true)`), non-ABB scenes (`Some(false)`), or all (`None`).
    pub fn durations(&self, call: OracleCall, abb: Option<bool>) -> Vec<u64> {
        let calls = self.calls.borrow();
        match abb {
            Some(abb) => calls[Self::slot(call, abb)].clone(),
            None => {
                let mut all = calls[Self::slot(call, false)].clone();
                all.extend_from_slice(&calls[Self::slot(call, true)]);
                all
            }
        }
    }
}

/// An [`ExhaustiveOptimizer`] whose calls are timed into an [`OracleLog`].
#[derive(Debug)]
pub struct TimedOracle<'a> {
    inner: ExhaustiveOptimizer,
    log: &'a OracleLog,
}

impl<'a> TimedOracle<'a> {
    /// Wraps a fresh exhaustive oracle (empty solve cache, exactly like
    /// the `ExhaustiveOptimizer::new()` the program builds per unit).
    pub fn new(log: &'a OracleLog) -> Self {
        Self {
            inner: ExhaustiveOptimizer::new(),
            log,
        }
    }
}

impl Optimizer for TimedOracle<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn freq_max(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        let start = Instant::now();
        let f = self.inner.freq_max(config, scene);
        let ns = start.elapsed().as_nanos() as u64;
        self.log.push(OracleCall::FreqMax, scene.env.abb, ns);
        f
    }

    fn power_settings(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64) {
        let start = Instant::now();
        let out = self.inner.power_settings(config, scene, f_core);
        let ns = start.elapsed().as_nanos() as u64;
        self.log.push(OracleCall::Power, scene.env.abb, ns);
        out
    }

    fn flush_metrics(&self, tracer: Tracer<'_>) {
        self.inner.flush_metrics(tracer);
    }
}
