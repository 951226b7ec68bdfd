//! Turns a traced replay, the untraced entry call it mirrors, and the
//! program's own spans into the per-layer metrics.

use eval_trace::{names, Collector};

use crate::oracle::{OracleCall, OracleLog};
use crate::record::{p99, percentile, Layer, Span};
use crate::replay::Replay;

/// Scheme labels whose decisions get their own latency metrics.
pub const DECIDE_SCHEMES: [&str; 6] = ["static", "exhaustive", "fuzzy", "nn-table", "tree", "mlp"];

/// The `orch.unattributed_frac` above which the run is flagged: more
/// than this share of the traced time belongs to no named layer.
pub const UNATTRIBUTED_BOUND: f64 = 0.05;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Total seconds over every span path of `collector` whose last segment
/// is `name` (paths depend on which thread opened the span).
pub fn span_secs(collector: &Collector, name: &str) -> f64 {
    let ns: u128 = collector
        .spans()
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(name))
        .map(|(_, stat)| stat.total_ns)
        .sum();
    ns as f64 * 1e-9
}

/// Timings of the untraced entry call a traced run is compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Untraced {
    /// Wall seconds.
    pub run_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Worker threads the entry call could use.
    pub threads: usize,
}

fn sum_secs<'s>(spans: impl Iterator<Item = &'s Span>) -> f64 {
    spans.map(Span::secs).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in report order. `primary` and `timing` hold
/// the program's own trace of the same entry call, run with
/// `Tracer::with_timing(primary, timing)`.
pub fn layer_metrics(
    replay: &Replay<'_>,
    log: &OracleLog,
    untraced: Untraced,
    primary: &Collector,
    timing: &Collector,
) -> Vec<Metric> {
    let spans = replay.rec.spans();
    let counts = replay.counts;
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
    let secs = |layer: Layer| sum_secs(of(layer));
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    };

    put("uarch.profile_s", secs(Layer::Profile), "s");
    put("uarch.phases", counts.phases as f64, "count");
    put("core.fab_s", secs(Layer::Fab), "s");
    put("core.chips", counts.chips as f64, "count");

    let label_s = secs(Layer::Label);
    put("teacher.label_s", label_s, "s");
    put(
        "teacher.label_s.abb",
        sum_secs(of(Layer::Label).filter(|s| s.abb)),
        "s",
    );
    put("teacher.examples", counts.examples as f64, "count");
    put(
        "teacher.us_per_example",
        ratio(label_s * 1e6, counts.examples as f64),
        "us",
    );

    put("fit.fuzzy_s", secs(Layer::FitFuzzy), "s");
    put("fit.learned_s", secs(Layer::FitLearned), "s");
    put("fit.banks", counts.banks as f64, "count");

    for (call, call_name) in [
        (OracleCall::FreqMax, "freq_max"),
        (OracleCall::Power, "power"),
    ] {
        for (abb, suffix) in [(None, ""), (Some(true), ".abb"), (Some(false), ".no_abb")] {
            let mut d = log.durations(call, abb);
            put(
                &format!("oracle.{call_name}.calls{suffix}"),
                d.len() as f64,
                "count",
            );
            let p50 = percentile(&mut d, 0.5).map_or(0.0, |ns| ns as f64 * 1e-3);
            put(&format!("oracle.{call_name}.us_p50{suffix}"), p50, "us");
            let p99_us = p99(&mut d).map_or(0.0, |ns| ns as f64 * 1e-3);
            put(&format!("oracle.{call_name}.us_p99{suffix}"), p99_us, "us");
        }
    }

    let decide_s = secs(Layer::Decide);
    let decide_oracle_s: f64 = of(Layer::Decide).map(|s| s.oracle_ns as f64 * 1e-9).sum();
    put("decide.count", counts.decisions as f64, "count");
    put("decide.s", decide_s, "s");
    put("decide.self_s", decide_s - decide_oracle_s, "s");
    for scheme in DECIDE_SCHEMES {
        let mut d: Vec<u64> = of(Layer::Decide)
            .filter(|s| s.tag == scheme)
            .map(Span::ns)
            .collect();
        put(&format!("decide.n.{scheme}"), d.len() as f64, "count");
        let p50 = percentile(&mut d, 0.5).map_or(0.0, |ns| ns as f64 * 1e-3);
        put(&format!("decide.us_p50.{scheme}"), p50, "us");
        let p99_us = p99(&mut d).map_or(0.0, |ns| ns as f64 * 1e-3);
        put(&format!("decide.us_p99.{scheme}"), p99_us, "us");
    }

    put("retune.steps", counts.retune_steps as f64, "count");
    put(
        "retune.probes",
        primary.registry().counter(names::RETUNE_PROBES) as f64,
        "count",
    );
    put(
        "retune.steps_per_decision",
        ratio(counts.retune_steps as f64, counts.decisions as f64),
        "count",
    );
    put("retune.eval_s", secs(Layer::Eval), "s");

    let solver = replay.solver.registry();
    let hits = solver.counter(names::SOLVER_CACHE_HITS) as f64;
    let misses = solver.counter(names::SOLVER_CACHE_MISSES) as f64;
    let iterations = solver.counter(names::SOLVER_ITERATIONS) as f64;
    let oracle_calls = (log.durations(OracleCall::FreqMax, None).len()
        + log.durations(OracleCall::Power, None).len()) as f64;
    put("solver.iterations", iterations, "count");
    put("solver.cache.hits", hits, "count");
    put("solver.cache.misses", misses, "count");
    put("solver.cache.hit_rate", ratio(hits, hits + misses), "ratio");
    put(
        "solver.batch.width",
        ratio(
            solver.counter(names::SOLVER_BATCH_LANES) as f64,
            solver.counter(names::SOLVER_BATCH_CALLS) as f64,
        ),
        "count",
    );
    put(
        "solver.iterations_per_oracle_call",
        ratio(iterations, oracle_calls),
        "count",
    );

    // The traced wall time the layers must add up to: the replay minus
    // the passes it makes only to measure a layer.
    let replay_s = sum_secs(spans.iter().filter(|s| s.layer == Layer::Replay));
    let measure_s = sum_secs(spans.iter().filter(|s| s.layer.measure_only()));
    let traced_s = replay_s - measure_s;
    let attributed_s = sum_secs(
        spans
            .iter()
            .filter(|s| s.layer.is_layer() && !s.layer.measure_only()),
    );
    put(
        "orch.parallel_eff",
        ratio(untraced.cpu_s, untraced.run_s * untraced.threads as f64),
        "ratio",
    );
    put(
        "orch.unattributed_frac",
        1.0 - ratio(attributed_s, traced_s),
        "ratio",
    );
    // The split adds up when labeling plus fitting, timed bank by bank,
    // matches the training calls that do both as one.
    let replay_train_s = secs(Layer::Train) + secs(Layer::TrainZoo);
    put(
        "orch.reconcile.split_ratio",
        ratio(
            label_s + secs(Layer::FitFuzzy) + secs(Layer::FitLearned),
            replay_train_s,
        ),
        "ratio",
    );
    let program_train_s = span_secs(timing, "train") + span_secs(timing, "train-zoo");
    put(
        "orch.reconcile.train_ratio",
        ratio(replay_train_s, program_train_s),
        "ratio",
    );
    put(
        "orch.reconcile.decide_ratio",
        ratio(decide_s, span_secs(timing, "decide")),
        "ratio",
    );
    put(
        "trace.overhead_frac",
        ratio(traced_s, untraced.cpu_s) - 1.0,
        "ratio",
    );
    out
}
