//! The `Exhaustive` algorithm (§4.3.1): grid search over the actuator
//! ladders. Too slow to run on-the-fly in a real processor — here it is
//! both the oracle the fuzzy controllers are trained against and the
//! `Exh-Dyn` comparison scheme of Figures 10–12.
//!
//! The search runs on the operating-point fast path: scene invariants are
//! hoisted once per query ([`SceneEval`]), thermal solves are memoized and
//! warm-started through a per-optimizer [`SolveCache`], and the frequency
//! search probes the pruning floor, its successor and the ladder top in
//! one batch before falling back to bisection.
//!
//! Constraints are checked lazily: every probe lane is solved, so the
//! cache and its counters see the same lookups, but a solved lane is
//! admitted (the `TMAX` test plus the error-rate evaluation, see
//! `SceneEval::admit`) only when the search reads its answer. The power
//! search also leaves unchecked a solved pair whose power cannot beat the
//! best pair so far.
//!
//! Both searches also skip candidates that a cheap, solve-free bound
//! proves cannot beat the best pair so far (DESIGN §11). The power
//! search skips a pair whose `Pdyn + Psta(T = TH)` exceeds the best
//! power, and stops at the first supply whose `Pdyn` alone does. Under
//! ABB the frequency search rejects a whole `Vbb` row on one error-rate
//! test (`SceneEval::row_infeasible_from`). Every bound is admissible
//! and compared with a relative slack, so answers are unchanged bit for
//! bit; only the work done and the cache hit counts move.
//
// lint:hot-path — this module is on the operating-point fast path; the
// no-alloc-in-check rule forbids Vec construction outside tests here.

use std::cell::{Cell, RefCell};

use eval_core::{EvalConfig, FREQ_LADDER};
use eval_power::{BatchScratch, SolveCache, ThermalRunaway, ThermalSolution, MAX_BATCH};
use eval_trace::{names, Tracer};

use crate::optimizer::{bound_exceeds, Optimizer, SceneEval, SubsystemScene};

/// Work the admissible bounds saved, flushed as the
/// `oracle.pruned.rows` / `oracle.pruned.pairs` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PruneStats {
    /// Whole `Vbb` rows skipped without evaluating any pair.
    rows: u64,
    /// `(Vdd, Vbb)` pairs skipped, those of skipped rows included.
    pairs: u64,
}

impl PruneStats {
    fn skip_rows(&mut self, rows: usize, row_len: usize) {
        self.rows += rows as u64;
        self.pairs += (rows * row_len) as u64;
    }
}

/// Work of the frequency probe and of lazy admission, flushed as the
/// `oracle.probe.*` / `oracle.admit.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ProbeStats {
    /// `(Vdd, Vbb)` pairs that reached `fmax_index_at`.
    pairs: u64,
    /// Scalar checks run by the bisection fallback.
    bisect_steps: u64,
    /// Error-rate evaluations run by `SceneEval::admit`.
    admit_pe: u64,
    /// Solved lanes never admitted, because no answer read them.
    admit_skipped: u64,
}

/// A solved probe batch whose lanes are admitted on first read: lanes the
/// branch logic never reads keep their solve (and so the cache and its
/// counters) but skip the constraint checks.
struct LazyProbe<'e, 'a, const N: usize> {
    eval: &'e SceneEval<'a>,
    lanes: [(usize, f64, f64); N],
    solved: [Result<ThermalSolution, ThermalRunaway>; N],
    read: [bool; N],
}

impl<'e, 'a, const N: usize> LazyProbe<'e, 'a, N> {
    fn solve(
        eval: &'e SceneEval<'a>,
        cache: &mut SolveCache,
        scratch: &mut BatchScratch,
        lanes: [(usize, f64, f64); N],
    ) -> Self {
        let mut solved = [Err(ThermalRunaway { t_c: 0.0 }); N];
        eval.solve_batch(cache, &lanes, scratch, &mut solved);
        Self {
            eval,
            lanes,
            solved,
            read: [false; N],
        }
    }

    /// Whether lane `k` is feasible, admitting it now.
    fn feasible(&mut self, k: usize) -> bool {
        self.read[k] = true;
        let (f_idx, vdd, vbb) = self.lanes[k];
        self.eval
            .admit(FREQ_LADDER.at(f_idx), vdd, vbb, self.solved[k])
            .is_some()
    }

    /// Solved lanes left unchecked.
    fn skipped(&self) -> u64 {
        self.solved
            .iter()
            .zip(self.read)
            .filter(|(solved, read)| solved.is_ok() && !read)
            .count() as u64
    }
}

/// Exhaustive grid search over `(f, Vdd, Vbb)`.
///
/// For each `(Vdd, Vbb)` pair the feasible frequency set is an interval
/// (both the error rate and the temperature grow with `f`), so the scan
/// over the frequency ladder is one batched probe above the pruning
/// floor, falling back to binary search.
///
/// Each optimizer instance owns a [`SolveCache`] and a struct-of-arrays
/// [`BatchScratch`]; cached values are pure functions of the operating
/// point, so sharing or not sharing an instance cannot change any result
/// — only the hit rate. The `RefCell`s keep the query methods `&self`;
/// instances are per-thread by construction (one per campaign sweep unit
/// or training run). `Cell`s accumulate the pruning and probe counts
/// until [`Optimizer::flush_metrics`] drains them.
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveOptimizer {
    cache: RefCell<SolveCache>,
    scratch: RefCell<BatchScratch>,
    pruned: Cell<PruneStats>,
    probed: Cell<ProbeStats>,
}

impl ExhaustiveOptimizer {
    /// Creates the optimizer with an empty solve cache and a preplanned
    /// batch scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bisects for the feasibility frontier given the invariant that `lo`
    /// is feasible and `hi` is infeasible.
    fn bisect(
        eval: &SceneEval<'_>,
        cache: &mut SolveCache,
        vdd: f64,
        vbb: f64,
        mut lo: usize,
        mut hi: usize,
        probed: &mut ProbeStats,
    ) -> usize {
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            probed.bisect_steps += 1;
            if eval.check_at(cache, mid, vdd, vbb).is_some() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Largest feasible ladder index at fixed `(vdd, vbb)` that is at least
    /// `floor_idx`, or `None`. Exploits monotonicity: error rate and
    /// temperature both grow with `f`, so feasibility is a prefix of the
    /// ladder. Callers prune by passing the best index found so far as
    /// the floor.
    ///
    /// The probe set `[floor, h, h + 1, top]` is solved as *one*
    /// struct-of-arrays batch, where `h` is the previous pair's answer
    /// `hint` clamped to the floor. A previous answer never exceeds the
    /// best index, which lies below the floor, so `h` is always the floor
    /// itself and the batch holds the floor twice; the duplicate costs one
    /// memo lookup. The lanes are then admitted only as the branches read
    /// them: `h`, then `h + 1`, then the top. The floor lane is read only
    /// when `h` differs from it, so in practice never. In the common case
    /// a failing floor decides the pair on one error-rate evaluation, and
    /// only a frontier above `h + 1` and below the top falls back to
    /// scalar bisection.
    #[allow(clippy::too_many_arguments)]
    fn fmax_index_at(
        eval: &SceneEval<'_>,
        cache: &mut SolveCache,
        scratch: &mut BatchScratch,
        vdd: f64,
        vbb: f64,
        floor_idx: usize,
        hint: Option<usize>,
        probed: &mut ProbeStats,
    ) -> Option<usize> {
        probed.pairs += 1;
        let last = FREQ_LADDER.len() - 1;
        if let Some(h) = hint {
            let h = h.clamp(floor_idx, last);
            let h1 = (h + 1).min(last);
            let lanes = [
                (floor_idx, vdd, vbb),
                (h, vdd, vbb),
                (h1, vdd, vbb),
                (last, vdd, vbb),
            ];
            let mut probe = LazyProbe::solve(eval, cache, scratch, lanes);
            let idx = if probe.feasible(1) {
                // Feasible guess: the frontier is at or above `h`.
                if h == last || !probe.feasible(2) {
                    Some(h)
                } else if probe.feasible(3) {
                    Some(last)
                } else {
                    Some(Self::bisect(eval, cache, vdd, vbb, h1, last, probed))
                }
            } else if h == floor_idx || !probe.feasible(0) {
                // Infeasible guess: the frontier (if any) is below `h`.
                None
            } else {
                Some(Self::bisect(eval, cache, vdd, vbb, floor_idx, h, probed))
            };
            probed.admit_skipped += probe.skipped();
            return idx;
        }
        let mut probe = LazyProbe::solve(
            eval,
            cache,
            scratch,
            [(floor_idx, vdd, vbb), (last, vdd, vbb)],
        );
        let idx = if !probe.feasible(0) {
            None
        } else if probe.feasible(1) {
            Some(last)
        } else {
            Some(Self::bisect(eval, cache, vdd, vbb, floor_idx, last, probed))
        };
        probed.admit_skipped += probe.skipped();
        idx
    }

    /// [`Optimizer::freq_max`] computed with the original uncached,
    /// cold-start reference check — the "before" implementation, kept for
    /// the grid equivalence test and the hot-path benchmarks.
    pub fn freq_max_reference(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        let n = FREQ_LADDER.len();
        let mut best: Option<usize> = None;
        for &vdd in scene.vdd_options() {
            for &vbb in scene.vbb_options() {
                let floor = best.map_or(0, |b| (b + 1).min(n - 1));
                let feasible =
                    |i: usize| scene.check_reference(config, FREQ_LADDER.at(i), vdd, vbb).is_some();
                if !feasible(floor) {
                    continue;
                }
                let (mut lo, mut hi) = (floor, n - 1);
                let idx = if feasible(hi) {
                    hi
                } else {
                    while hi - lo > 1 {
                        let mid = (lo + hi) / 2;
                        if feasible(mid) {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                };
                if best.is_none_or(|b| idx > b) {
                    best = Some(idx);
                }
            }
        }
        FREQ_LADDER.at(best.unwrap_or(0))
    }
}

impl Optimizer for ExhaustiveOptimizer {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn freq_max(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        let eval = SceneEval::new(config, scene);
        let cache = &mut *self.cache.borrow_mut();
        let scratch = &mut *self.scratch.borrow_mut();
        let n = FREQ_LADDER.len();
        let vbbs = scene.vbb_options();
        // Single-Vbb rows (no ABB) have no range to bound over and skip
        // the row bound. Ladders are ascending.
        let vt0_max = (vbbs.len() > 1).then(|| eval.max_cell_vt0());
        let mut pruned = self.pruned.get();
        let mut probed = self.probed.get();
        let mut best: Option<usize> = None;
        let mut hint: Option<usize> = None;
        // Scan both ladders from the top: the highest Vdd and Vbb usually
        // hold the highest feasible frequency, so the first pairs set a
        // `best` that rejects most remaining rows on one solve-free bound
        // and most remaining pairs on a single bounded floor probe. The
        // result is a max over all pairs either way — scan order only
        // affects how much work pruning saves.
        for &vdd in scene.vdd_options().iter().rev() {
            let floor = best.map_or(0, |b| (b + 1).min(n - 1));
            if vt0_max.is_some_and(|vt0| {
                eval.row_infeasible_from(floor, vdd, vbbs[0], vbbs[vbbs.len() - 1], vt0)
            }) {
                pruned.skip_rows(1, vbbs.len());
                continue;
            }
            for &vbb in vbbs.iter().rev() {
                let floor = best.map_or(0, |b| (b + 1).min(n - 1));
                if let Some(idx) =
                    Self::fmax_index_at(&eval, cache, scratch, vdd, vbb, floor, hint, &mut probed)
                {
                    hint = Some(idx);
                    if best.is_none_or(|b| idx > b) {
                        best = Some(idx);
                    }
                }
            }
        }
        probed.admit_pe += eval.pe_evals();
        self.pruned.set(pruned);
        self.probed.set(probed);
        FREQ_LADDER.at(best.unwrap_or(0))
    }

    fn power_settings(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64) {
        let eval = SceneEval::new(config, scene);
        let cache = &mut *self.cache.borrow_mut();
        let scratch = &mut *self.scratch.borrow_mut();
        let f_idx = FREQ_LADDER.index_of(f_core);
        let f_ghz = f_idx.map_or(f_core, |i| FREQ_LADDER.at(i));
        let vdds = scene.vdd_options();
        let vbbs = scene.vbb_options();
        let mut pruned = self.pruned.get();
        let mut probed = self.probed.get();
        // A pair is skipped when its solve-free power lower bound already
        // exceeds the best power found so far (see
        // `SceneEval::power_lower_bound`); such a pair cannot replace it.
        let beaten = |best: Option<(f64, f64, f64)>, bound: f64| {
            best.is_some_and(|(bp, _, _)| bound_exceeds(bound, bp))
        };
        let mut best: Option<(f64, f64, f64)> = None; // (power, vdd, vbb)

        // A solved pair replaces the best only if it is cheaper and
        // feasible. Its power is known from the solve, so a pair that
        // cannot be cheaper is never admitted.
        let mut consider =
            |best: &mut Option<(f64, f64, f64)>,
             vdd: f64,
             vbb: f64,
             solved: Result<ThermalSolution, ThermalRunaway>| {
                let Ok(sol) = solved else { return };
                if best.is_none_or(|(bp, _, _)| sol.total_w() < bp) {
                    if let Some((p, _t)) = eval.admit(f_ghz, vdd, vbb, solved) {
                        *best = Some((p, vdd, vbb));
                    }
                } else {
                    probed.admit_skipped += 1;
                }
            };
        for (row, &vdd) in vdds.iter().enumerate() {
            // Dynamic power alone rises with Vdd: once it exceeds the
            // best power, no higher supply can win either.
            if beaten(best, eval.pdyn_w(f_ghz, vdd)) {
                pruned.skip_rows(vdds.len() - row, vbbs.len());
                break;
            }
            match f_idx {
                // On-ladder core frequency: solve the surviving lanes of
                // this supply setting's Vbb row as one struct-of-arrays
                // batch.
                Some(i) => {
                    let mut lanes = [(0usize, 0.0, 0.0); MAX_BATCH];
                    let mut width = 0;
                    for &vbb in vbbs {
                        if beaten(best, eval.power_lower_bound(f_ghz, vdd, vbb)) {
                            pruned.pairs += 1;
                        } else {
                            lanes[width] = (i, vdd, vbb);
                            width += 1;
                        }
                    }
                    if width == 0 {
                        continue;
                    }
                    let mut solved = [Err(ThermalRunaway { t_c: 0.0 }); MAX_BATCH];
                    eval.solve_batch(cache, &lanes[..width], scratch, &mut solved);
                    for (&(_, _, vbb), solved) in lanes[..width].iter().zip(solved) {
                        consider(&mut best, vdd, vbb, solved);
                    }
                }
                None => {
                    for &vbb in vbbs {
                        if beaten(best, eval.power_lower_bound(f_ghz, vdd, vbb)) {
                            pruned.pairs += 1;
                            continue;
                        }
                        consider(&mut best, vdd, vbb, eval.solve_free(f_core, vdd, vbb));
                    }
                }
            }
        }
        probed.admit_pe += eval.pe_evals();
        self.pruned.set(pruned);
        self.probed.set(probed);
        match best {
            Some((_, vdd, vbb)) => (vdd, vbb),
            // Nothing feasible at f_core: fall back to the nominal setting
            // (always electrically safe) and let retuning walk the
            // frequency down. Aggressive voltages would only deepen the
            // leakage/temperature feedback that made f_core infeasible.
            None => (1.0, 0.0),
        }
    }

    fn flush_metrics(&self, tracer: Tracer<'_>) {
        let pruned = self.pruned.take();
        if pruned.rows > 0 {
            tracer.count_n(names::ORACLE_PRUNED_ROWS, pruned.rows);
        }
        if pruned.pairs > 0 {
            tracer.count_n(names::ORACLE_PRUNED_PAIRS, pruned.pairs);
        }
        let probed = self.probed.take();
        for (name, n) in [
            (names::ORACLE_PROBE_PAIRS, probed.pairs),
            (names::ORACLE_PROBE_BISECT_STEPS, probed.bisect_steps),
            (names::ORACLE_ADMIT_PE, probed.admit_pe),
            (names::ORACLE_ADMIT_SKIPPED, probed.admit_skipped),
        ] {
            if n > 0 {
                tracer.count_n(name, n);
            }
        }
        let stats = self.cache.borrow_mut().take_stats();
        if stats.hits + stats.misses == 0 {
            return;
        }
        tracer.count_n(names::SOLVER_CACHE_HITS, stats.hits);
        tracer.count_n(names::SOLVER_CACHE_MISSES, stats.misses);
        tracer.count_n(names::SOLVER_CACHE_HITS_SAME_POINT, stats.same_point);
        tracer.count_n(names::SOLVER_CACHE_HITS_CROSS_CANDIDATE, stats.cross_candidate);
        tracer.count_n(names::SOLVER_CACHE_HITS_CROSS_PHASE, stats.cross_phase);
        tracer.count_n(names::SOLVER_ITERATIONS, stats.iterations);
        if stats.slow_convergence > 0 {
            tracer.count_n(names::SOLVER_SLOW_CONVERGENCE, stats.slow_convergence);
        }
        if stats.batch_calls > 0 {
            tracer.count_n(names::SOLVER_BATCH_CALLS, stats.batch_calls);
            tracer.count_n(names::SOLVER_BATCH_LANES, stats.batch_lanes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_core::{
        ChipFactory, Environment, EvalConfig, SubsystemId, VariantSelection, N_SUBSYSTEMS,
    };
    use std::sync::OnceLock;

    fn factory() -> &'static ChipFactory {
        static F: OnceLock<ChipFactory> = OnceLock::new();
        F.get_or_init(|| ChipFactory::new(EvalConfig::micro08()))
    }

    fn scene<'a>(
        state: &'a eval_core::SubsystemState,
        env: Environment,
    ) -> SubsystemScene<'a> {
        SubsystemScene {
            state,
            variants: VariantSelection::default(),
            th_c: 60.0,
            alpha_f: 0.5,
            rho: 0.6,
            pe_budget: 1e-4 / N_SUBSYSTEMS as f64,
            env,
        }
    }

    #[test]
    fn asv_raises_fmax_over_ts() {
        let cfg = factory().config().clone();
        let chip = factory().chip(1);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let f_ts = opt.freq_max(&cfg, &scene(state, Environment::TS));
        let f_asv = opt.freq_max(&cfg, &scene(state, Environment::TS_ASV));
        assert!(f_asv > f_ts, "ASV {f_asv} should beat TS {f_ts}");
    }

    #[test]
    fn fast_freq_max_matches_reference_search() {
        let cfg = factory().config().clone();
        for chip_seed in [1, 2, 3] {
            let chip = factory().chip(chip_seed);
            let opt = ExhaustiveOptimizer::new();
            for id in [SubsystemId::IntAlu, SubsystemId::Dcache, SubsystemId::IntQueue] {
                let state = chip.core(0).subsystem(id);
                for env in [Environment::TS, Environment::TS_ASV, Environment::TS_ABB_ASV] {
                    let sc = scene(state, env);
                    let fast = opt.freq_max(&cfg, &sc);
                    let reference = opt.freq_max_reference(&cfg, &sc);
                    assert_eq!(
                        fast, reference,
                        "chip {chip_seed} {id} {}: fast {fast} vs reference {reference}",
                        env.name
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let cfg = factory().config().clone();
        let chip = factory().chip(2);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let sc = scene(state, Environment::TS_ASV);
        let f1 = opt.freq_max(&cfg, &sc);
        let after_first = opt.cache.borrow().stats();
        let f2 = opt.freq_max(&cfg, &sc);
        let after_second = opt.cache.borrow().stats();
        assert_eq!(f1, f2);
        assert_eq!(
            after_second.misses, after_first.misses,
            "second identical query must not solve anything new"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn freq_result_is_on_the_ladder_and_feasible() {
        let cfg = factory().config().clone();
        let chip = factory().chip(2);
        let opt = ExhaustiveOptimizer::new();
        for id in [SubsystemId::Dcache, SubsystemId::FpUnit, SubsystemId::IntQueue] {
            let state = chip.core(0).subsystem(id);
            let sc = scene(state, Environment::TS_ASV);
            let f = opt.freq_max(&cfg, &sc);
            assert!(FREQ_LADDER.contains(f), "{id}: off-ladder {f}");
            // Feasible at some voltage setting.
            let feasible = sc
                .vdd_options()
                .iter()
                .any(|&vdd| sc.check(&cfg, f, vdd, 0.0).is_some());
            assert!(feasible, "{id}: fmax {f} infeasible everywhere");
        }
    }

    #[test]
    fn power_settings_meet_constraints_when_feasible() {
        let cfg = factory().config().clone();
        let chip = factory().chip(3);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntQueue);
        let sc = scene(state, Environment::TS_ASV);
        let fmax = opt.freq_max(&cfg, &sc);
        // At a core frequency below this subsystem's max, the power
        // algorithm must pick something feasible.
        let f_core = (fmax - 0.3).max(FREQ_LADDER.min);
        let (vdd, vbb) = opt.power_settings(&cfg, &sc, f_core);
        assert!(sc.check(&cfg, f_core, vdd, vbb).is_some());
    }

    #[test]
    fn power_algorithm_relaxes_voltage_at_lower_frequency() {
        // At a low core frequency the subsystem should not need the
        // highest supply.
        let cfg = factory().config().clone();
        let chip = factory().chip(4);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let sc = scene(state, Environment::TS_ASV);
        let (vdd_low, _) = opt.power_settings(&cfg, &sc, 2.4);
        let fmax = opt.freq_max(&cfg, &sc);
        let (vdd_high, _) = opt.power_settings(&cfg, &sc, fmax);
        assert!(
            vdd_low <= vdd_high,
            "low-f vdd {vdd_low} vs max-f vdd {vdd_high}"
        );
        assert!(vdd_low <= 0.95, "2.4 GHz should not need {vdd_low} V");
    }

    #[test]
    fn no_voltage_control_means_nominal_settings() {
        let cfg = factory().config().clone();
        let chip = factory().chip(5);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::Decode);
        let sc = scene(state, Environment::TS);
        let (vdd, vbb) = opt.power_settings(&cfg, &sc, 3.0);
        assert_eq!((vdd, vbb), (1.0, 0.0));
    }

    #[test]
    fn abb_searches_prune_and_flush_their_counts() {
        let cfg = factory().config().clone();
        let chip = factory().chip(2);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let sc = scene(state, Environment::TS_ABB_ASV);
        let fmax = opt.freq_max(&cfg, &sc);
        let after_freq = opt.pruned.get();
        assert!(after_freq.rows > 0, "no Vbb row rejected: {after_freq:?}");
        assert_eq!(after_freq.pairs, after_freq.rows * 21);
        opt.power_settings(&cfg, &sc, (fmax - 0.35).max(FREQ_LADDER.min));
        opt.power_settings(&cfg, &sc, (fmax - 0.3).max(FREQ_LADDER.min));
        let total = opt.pruned.get();
        assert!(
            total.pairs > after_freq.pairs,
            "power search pruned nothing"
        );

        let collector = eval_trace::Collector::new();
        opt.flush_metrics(Tracer::new(&collector));
        let registry = collector.registry();
        assert_eq!(registry.counter(names::ORACLE_PRUNED_ROWS), total.rows);
        assert_eq!(registry.counter(names::ORACLE_PRUNED_PAIRS), total.pairs);
        assert_eq!(
            opt.pruned.get(),
            PruneStats::default(),
            "flush drains the counts"
        );
    }

    #[test]
    fn abb_searches_admit_lazily_and_flush_their_probe_counts() {
        let cfg = factory().config().clone();
        let chip = factory().chip(2);
        let opt = ExhaustiveOptimizer::new();
        let state = chip.core(0).subsystem(SubsystemId::IntAlu);
        let sc = scene(state, Environment::TS_ABB_ASV);
        let fmax = opt.freq_max(&cfg, &sc);
        let after_freq = opt.probed.get();
        assert!(after_freq.pairs > 0, "no pair probed: {after_freq:?}");
        // Every hinted probe holds the floor twice and reads at most one
        // copy, so solved lanes are left unchecked.
        assert!(after_freq.admit_pe > 0, "{after_freq:?}");
        assert!(after_freq.admit_skipped > 0, "{after_freq:?}");
        for step in [0.35, 0.3] {
            opt.power_settings(&cfg, &sc, (fmax - step).max(FREQ_LADDER.min));
        }
        // The off-ladder path admits through the same step.
        let off_ladder = fmax - 0.33;
        assert!(FREQ_LADDER.index_of(off_ladder).is_none() && off_ladder > FREQ_LADDER.min);
        opt.power_settings(&cfg, &sc, off_ladder);
        let total = opt.probed.get();
        assert_eq!(total.pairs, after_freq.pairs, "power search probes no pair");
        assert!(total.admit_pe > after_freq.admit_pe, "{total:?}");

        let collector = eval_trace::Collector::new();
        opt.flush_metrics(Tracer::new(&collector));
        let registry = collector.registry();
        assert_eq!(registry.counter(names::ORACLE_PROBE_PAIRS), total.pairs);
        assert_eq!(
            registry.counter(names::ORACLE_PROBE_BISECT_STEPS),
            total.bisect_steps
        );
        assert_eq!(registry.counter(names::ORACLE_ADMIT_PE), total.admit_pe);
        assert_eq!(
            registry.counter(names::ORACLE_ADMIT_SKIPPED),
            total.admit_skipped
        );
        assert_eq!(
            opt.probed.get(),
            ProbeStats::default(),
            "flush drains the counts"
        );
    }

    mod proptests {
        use super::*;
        use crate::teacher::{variant_selection_for, ALPHA_RANGE, RHO_RANGE, TH_RANGE};
        use eval_core::ChipModel;
        use eval_power::{solve_thermal, OperatingPoint, ThermalEnvironment};
        use eval_units::Volts;
        use proptest::prelude::*;

        /// A scene over the teacher's sampling domain with every ladder
        /// enabled.
        fn abb_scene(
            chip: &ChipModel,
            sub: usize,
            alt: bool,
            th: f64,
            alpha: f64,
            rho: f64,
        ) -> SubsystemScene<'_> {
            let id = SubsystemId::ALL[sub];
            SubsystemScene {
                state: chip.core(0).subsystem(id),
                variants: variant_selection_for(id, alt),
                th_c: th,
                alpha_f: alpha,
                rho: rho.max(1e-3),
                pe_budget: 1e-4 / N_SUBSYSTEMS as f64,
                env: Environment::TS_ABB_ASV,
            }
        }

        /// Largest ladder frequency feasible at any pair under the
        /// uncached reference check, every grid point visited.
        fn freq_max_by_full_scan(cfg: &EvalConfig, sc: &SubsystemScene<'_>) -> f64 {
            let mut best = 0;
            for &vdd in sc.vdd_options() {
                for &vbb in sc.vbb_options() {
                    for i in best + 1..FREQ_LADDER.len() {
                        if sc
                            .check_reference(cfg, FREQ_LADDER.at(i), vdd, vbb)
                            .is_some()
                        {
                            best = i;
                        }
                    }
                }
            }
            FREQ_LADDER.at(best)
        }

        /// Lowest-power feasible pair at `f_core`, every pair checked
        /// with a cold `check_free` solve (nominal when none is).
        fn power_settings_by_full_grid(
            cfg: &EvalConfig,
            sc: &SubsystemScene<'_>,
            f_core: f64,
        ) -> (f64, f64) {
            let eval = SceneEval::new(cfg, sc);
            let mut best: Option<(f64, f64, f64)> = None;
            for &vdd in sc.vdd_options() {
                for &vbb in sc.vbb_options() {
                    if let Some((p, _)) = eval.check_free(f_core, vdd, vbb) {
                        if best.is_none_or(|(bp, _, _)| p < bp) {
                            best = Some((p, vdd, vbb));
                        }
                    }
                }
            }
            best.map_or((1.0, 0.0), |(_, vdd, vbb)| (vdd, vbb))
        }

        /// A factory whose device model has `mu_exp < alpha`: the delay
        /// of a hot cell may then fall with temperature, so the row
        /// bound's delay-temperature guard can never hold.
        fn slow_mobility_factory() -> &'static ChipFactory {
            static F: OnceLock<ChipFactory> = OnceLock::new();
            F.get_or_init(|| {
                let mut cfg = EvalConfig::micro08();
                cfg.device.mu_exp = 1.2;
                assert!(cfg.device.mu_exp < cfg.device.alpha);
                ChipFactory::new(cfg)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The cached, batched, anchor-seeded `freq_max` lands on
            /// exactly the frequency the uncached cold-start reference
            /// search finds, for any sensed environment — i.e. turning
            /// the cache on cannot move an answer.
            #[test]
            fn prop_cached_freq_max_matches_uncached_reference(
                th in 45.0f64..68.0,
                alpha in 0.05f64..0.95,
                chip_seed in 1u64..5,
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let opt = ExhaustiveOptimizer::new();
                let state = chip.core(0).subsystem(SubsystemId::Dcache);
                let sc = SubsystemScene {
                    state,
                    variants: VariantSelection::default(),
                    th_c: th,
                    alpha_f: alpha,
                    rho: 0.6,
                    pe_budget: 1e-4 / N_SUBSYSTEMS as f64,
                    env: Environment::TS_ABB_ASV,
                };
                let fast = opt.freq_max(&cfg, &sc);
                let reference = opt.freq_max_reference(&cfg, &sc);
                prop_assert_eq!(fast, reference);
            }

            /// The power bounds are admissible: neither `Pdyn` (which
            /// must rise with Vdd) nor `Pdyn + Psta(TH)` exceeds, beyond
            /// the pruning slack, the power any solve of the pair
            /// returns — cold at an off-ladder frequency or cached at a
            /// ladder index, feasible or not.
            #[test]
            fn prop_power_lower_bound_is_below_every_solved_power(
                chip_seed in 1u64..32,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in ALPHA_RANGE.0..ALPHA_RANGE.1,
                f in FREQ_LADDER.min..FREQ_LADDER.max,
                f_idx in 0usize..FREQ_LADDER.len(),
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let sc = abb_scene(&chip, sub, alt, th, alpha, 1.0);
                let eval = SceneEval::new(&cfg, &sc);
                let params = sc.state.power_params(&sc.variants);
                let tenv = ThermalEnvironment { th_c: th, alpha_f: alpha };
                let mut cache = SolveCache::new();
                let f_ladder = FREQ_LADDER.at(f_idx);
                let vdds = sc.vdd_options();
                for pair in vdds.windows(2) {
                    prop_assert!(eval.pdyn_w(f, pair[0]) <= eval.pdyn_w(f, pair[1]));
                }
                for &vdd in vdds {
                    for &vbb in sc.vbb_options() {
                        let op = OperatingPoint::raw(f, vdd, vbb);
                        if let Ok(sol) = solve_thermal(&params, &tenv, &op, &cfg.device) {
                            prop_assert!(!bound_exceeds(eval.pdyn_w(f, vdd), sol.total_w()));
                            let bound = eval.power_lower_bound(f, vdd, vbb);
                            prop_assert!(!bound_exceeds(bound, sol.total_w()),
                                "cold f={} vdd={} vbb={}: bound {} > power {}",
                                f, vdd, vbb, bound, sol.total_w());
                        }
                        let cached = cache.solve_ladder(
                            &params, &tenv, &cfg.device, f_idx, Volts::raw(vdd), Volts::raw(vbb));
                        if let Ok(sol) = cached {
                            let bound = eval.power_lower_bound(f_ladder, vdd, vbb);
                            prop_assert!(!bound_exceeds(bound, sol.total_w()),
                                "cached f={} vdd={} vbb={}: bound {} > power {}",
                                f_ladder, vdd, vbb, bound, sol.total_w());
                        }
                    }
                }
            }

            /// The row bound is admissible: a `Vbb` row it rejects at a
            /// floor index has no pair feasible at that index or above
            /// under the independent reference check. Besides a random
            /// floor, each row is tested at its own highest feasible
            /// index, where any overestimate in the bound shows first.
            #[test]
            fn prop_rejected_rows_have_no_feasible_pair(
                chip_seed in 1u64..32,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in ALPHA_RANGE.0..ALPHA_RANGE.1,
                rho in RHO_RANGE.0..RHO_RANGE.1,
                floor in 0usize..FREQ_LADDER.len(),
            ) {
                let cfg = factory().config().clone();
                let chip = factory().chip(chip_seed);
                let sc = abb_scene(&chip, sub, alt, th, alpha, rho);
                let eval = SceneEval::new(&cfg, &sc);
                let vt0_max = eval.max_cell_vt0();
                let vbbs = sc.vbb_options();
                for &vdd in sc.vdd_options() {
                    let row_best = vbbs
                        .iter()
                        .filter_map(|&vbb| {
                            (0..FREQ_LADDER.len()).rev().find(|&i| {
                                sc.check_reference(&cfg, FREQ_LADDER.at(i), vdd, vbb).is_some()
                            })
                        })
                        .max();
                    for at in [Some(floor), row_best].into_iter().flatten() {
                        let rejected = eval.row_infeasible_from(
                            at, vdd, vbbs[0], vbbs[vbbs.len() - 1], vt0_max);
                        prop_assert!(
                            !rejected || row_best.is_none_or(|b| b < at),
                            "row vdd={} rejected at index {} but feasible up to {:?}",
                            vdd, at, row_best
                        );
                    }
                }
            }

            /// With `mu_exp < alpha` the row bound never fires, and the
            /// search (power bounds still on) still matches the
            /// brute-force oracles.
            #[test]
            fn prop_mu_exp_below_alpha_disables_row_pruning(
                chip_seed in 1u64..8,
                sub in 0usize..N_SUBSYSTEMS,
                alt in proptest::bool::ANY,
                th in TH_RANGE.0..TH_RANGE.1,
                alpha in ALPHA_RANGE.0..ALPHA_RANGE.1,
                rho in RHO_RANGE.0..RHO_RANGE.1,
                floor in 0usize..FREQ_LADDER.len(),
                f_frac in 0.0f64..1.0,
            ) {
                let cfg = slow_mobility_factory().config().clone();
                let chip = slow_mobility_factory().chip(chip_seed);
                let sc = abb_scene(&chip, sub, alt, th, alpha, rho);
                let eval = SceneEval::new(&cfg, &sc);
                let vt0_max = eval.max_cell_vt0();
                let vbbs = sc.vbb_options();
                for &vdd in sc.vdd_options() {
                    let rejected = eval.row_infeasible_from(
                        floor, vdd, vbbs[0], vbbs[vbbs.len() - 1], vt0_max);
                    prop_assert!(!rejected, "row vdd={} rejected with mu_exp < alpha", vdd);
                }
                let opt = ExhaustiveOptimizer::new();
                let fmax = opt.freq_max(&cfg, &sc);
                prop_assert_eq!(fmax, freq_max_by_full_scan(&cfg, &sc));
                prop_assert_eq!(opt.pruned.get().rows, 0);
                let f_core = FREQ_LADDER.min + f_frac * (fmax - FREQ_LADDER.min);
                prop_assert_eq!(
                    opt.power_settings(&cfg, &sc, f_core),
                    power_settings_by_full_grid(&cfg, &sc, f_core)
                );
            }
        }
    }
}
