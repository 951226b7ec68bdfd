//! One benchmark process: sets up one workload and makes its entry call.
//!
//! ```text
//! perfbench setup <workload> --seed N    set up, then stop before the entry call
//! perfbench once  <workload> --seed N    set up, make the untraced entry call
//! perfbench trace <workload> --seed N --out DIR
//!                                        untraced call, traced replay, program trace
//! ```
//!
//! Each mode prints one JSON object on its last stdout line. `run.py`
//! spawns these processes, aggregates them and checks the digests.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use eval_trace::Collector;
use eval_trace::Tracer;
use perfbench::report::{layer_metrics, Untraced, UNATTRIBUTED_BOUND};
use perfbench::{setup, Entry, OracleLog, Outcome, Replay};

/// Linux reports process CPU time in USER_HZ ticks, which is 100 on
/// every architecture Rust supports.
const TICKS_PER_S: f64 = 100.0;

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// User + system CPU seconds of this process, all threads included.
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // Fields 14 and 15 of stat(5); `fields[0]` is field 3.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / TICKS_PER_S
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the entry call can keep busy.
fn threads(entry: &Entry) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let widest = match entry {
        Entry::Campaign { campaign, .. } => campaign.chips,
        Entry::Tournament(t) => t.chips.max(t.holdout_chips),
    };
    cores.min(widest).max(1)
}

/// Runs `f` and returns its result with wall and CPU seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64(), cpu_s() - cpu0)
}

fn outcome_json(o: &Outcome) -> String {
    format!(
        "\"digest\":\"{:016x}\",\"chips\":{},\"failed\":{}",
        o.digest, o.chips, o.failed
    )
}

fn replay(entry: &Entry, replay: &mut Replay<'_>) -> Outcome {
    match entry {
        Entry::Campaign {
            campaign,
            envs,
            schemes,
        } => entry.campaign_outcome(replay.campaign(campaign, envs, schemes)),
        Entry::Tournament(t) => entry.tournament_outcome(&replay.tournament(t)),
    }
}

fn trace_mode(entry: &Entry, name: &str, seed: u64, out_dir: PathBuf) -> String {
    let threads = threads(entry);
    let (untraced, run_s, cpu_s) = timed(|| entry.run());

    let log = OracleLog::new();
    let mut rep = Replay::new(&log);
    let replayed = replay(entry, &mut rep);

    let primary = Collector::new();
    let timing = Collector::new();
    let programmed = entry.run_traced(Tracer::with_timing(&primary, &timing));

    let metrics = layer_metrics(
        &rep,
        &log,
        Untraced {
            run_s,
            cpu_s,
            threads,
        },
        &primary,
        &timing,
    );
    let program_decisions = primary
        .registry()
        .counter(eval_trace::names::DECISION_COUNT);

    let span_file = out_dir.join(format!("spans-{name}-seed{seed}.jsonl"));
    if let Err(e) = rep.rec.write_jsonl(&span_file) {
        eprintln!("perfbench: cannot write {}: {e}", span_file.display());
    }
    eprintln!(
        "# reconcile: replay/program train {:.3}, replay/program decide {:.3}, \
         (label + fit)/train {:.3}",
        metric(&metrics, "orch.reconcile.train_ratio"),
        metric(&metrics, "orch.reconcile.decide_ratio"),
        metric(&metrics, "orch.reconcile.split_ratio"),
    );
    let unattributed = metric(&metrics, "orch.unattributed_frac");
    if unattributed > UNATTRIBUTED_BOUND {
        eprintln!(
            "# FLAG: orch.unattributed_frac = {unattributed:.4} exceeds {UNATTRIBUTED_BOUND}: \
             part of the traced time belongs to no named layer"
        );
    }

    let mut json = format!(
        "{{{},\"replay_digest\":\"{:016x}\",\"traced_digest\":\"{:016x}\",\"replay_failed\":{},\
         \"decisions\":{},\"program_decisions\":{},\"spans\":\"{}\",\"metrics\":{{",
        outcome_json(&untraced),
        replayed.digest,
        programmed.digest,
        replayed.failed,
        rep.counts.decisions,
        program_decisions,
        span_file.display(),
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    json
}

fn metric(metrics: &[perfbench::report::Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

fn usage() -> ! {
    eprintln!("usage: perfbench <setup|once|trace> <workload> [--seed N] [--out DIR]");
    eprintln!("workloads: {}", perfbench::NAMES.join(", "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(mode), Some(name)) = (args.first(), args.get(1)) else {
        usage()
    };
    let mut seed = perfbench::DEFAULT_SEED;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--out" => out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }

    let Some(entry) = setup(name, seed) else {
        usage()
    };
    let entry_unix_ns = unix_ns();
    let line = match mode.as_str() {
        "setup" => format!("{{\"entry_unix_ns\":{entry_unix_ns}}}"),
        "once" => {
            let (outcome, run_s, cpu_s) = timed(|| entry.run());
            format!(
                "{{\"entry_unix_ns\":{entry_unix_ns},\"run_s\":{run_s},\"cpu_s\":{cpu_s},\
                 \"peak_rss_mb\":{},{}}}",
                peak_rss_mb(),
                outcome_json(&outcome)
            )
        }
        "trace" => trace_mode(&entry, name, seed, out_dir),
        _ => usage(),
    };
    println!("{line}");
}
