//! The optimizer interface shared by the exhaustive oracle and the fuzzy
//! controller, plus [`SceneEval`] — the hoisted, cache-backed evaluation
//! of one scene that forms the operating-point fast path.
//
// lint:hot-path — this module is on the operating-point fast path; the
// no-alloc-in-check rule forbids Vec construction outside tests here.

use std::cell::Cell;

use eval_core::{
    Environment, EvalConfig, OperatingConditions, SubsystemState, VariantSelection,
};
use eval_power::{
    solve_thermal, solve_thermal_reference, BatchScratch, OperatingPoint, SolveCache,
    SubsystemPowerParams, ThermalEnvironment, ThermalRunaway, ThermalSolution, FREQ_LADDER,
    MAX_BATCH,
};
use eval_timing::StageTiming;
use eval_trace::Tracer;
use eval_units::{GHz, Volts};
use eval_variation::device::{KELVIN, Q_OVER_K};
use eval_variation::{leakage_factor, DeviceParams};

/// Relative slack of every pruning comparison in the exhaustive oracle: a
/// solve-free bound must beat the incumbent by this factor before a
/// candidate is skipped. It absorbs the rounding in the bound and in the
/// solve it stands in for, so pruning never changes an answer.
pub(crate) const PRUNE_SLACK: f64 = 1e-9;

/// Whether the lower bound `bound` proves a candidate cannot undercut
/// `best`, with [`PRUNE_SLACK`] in the safe direction.
pub(crate) fn bound_exceeds(bound: f64, best: f64) -> bool {
    bound > best * (1.0 + PRUNE_SLACK)
}

/// Everything the per-subsystem `Freq`/`Power` algorithms see about one
/// subsystem in one phase (the paper's `{TH, Rth, Kdyn, alpha_f, Ksta,
/// Vt0}` inputs of Figure 3, carried alongside the subsystem's timing
/// model and error budget).
#[derive(Debug, Clone)]
pub struct SubsystemScene<'a> {
    /// The subsystem's per-chip state (timing + power parameters).
    pub state: &'a SubsystemState,
    /// Structure variants currently enabled.
    pub variants: VariantSelection,
    /// Heat-sink temperature, Celsius (sensed).
    pub th_c: f64,
    /// Activity factor, accesses/cycle (sensed via counters).
    pub alpha_f: f64,
    /// Exercise rate, accesses/instruction (weights PE into err/inst).
    pub rho: f64,
    /// This subsystem's share of `PEMAX` (errors/instruction).
    pub pe_budget: f64,
    /// The environment's capability set (which ladders are usable).
    pub env: Environment,
}

impl<'a> SubsystemScene<'a> {
    /// Whether `(f, vdd, vbb)` meets the temperature and error-rate
    /// constraints for this subsystem, and if so at what cost.
    /// Returns `Some((power_w, t_c))` when feasible.
    pub fn check(&self, config: &EvalConfig, f_ghz: f64, vdd: f64, vbb: f64) -> Option<(f64, f64)> {
        // Candidates come off the actuator ladders (validated once at
        // construction), so the unchecked constructor is safe here.
        let op = OperatingPoint::raw(f_ghz, vdd, vbb);
        let env = ThermalEnvironment {
            th_c: self.th_c,
            alpha_f: self.alpha_f,
        };
        let params = self.state.power_params(&self.variants);
        let sol = solve_thermal(&params, &env, &op, &config.device).ok()?;
        if sol.t_c > config.constraints.t_max_c {
            return None;
        }
        let cond = OperatingConditions {
            vdd: Volts::raw(vdd),
            vbb: Volts::raw(vbb),
            t_c: sol.t_c,
        };
        let pe = self.rho * self.state.timing(&self.variants).pe_access(GHz::raw(f_ghz), &cond);
        if pe > self.pe_budget {
            return None;
        }
        Some((sol.total_w(), sol.t_c))
    }

    /// [`check`] evaluated with the original damped reference solver and
    /// the unbounded error-rate evaluation: the independent "before"
    /// implementation kept for equivalence tests and benchmarks.
    ///
    /// [`check`]: SubsystemScene::check
    pub fn check_reference(
        &self,
        config: &EvalConfig,
        f_ghz: f64,
        vdd: f64,
        vbb: f64,
    ) -> Option<(f64, f64)> {
        let op = OperatingPoint::raw(f_ghz, vdd, vbb);
        let env = ThermalEnvironment {
            th_c: self.th_c,
            alpha_f: self.alpha_f,
        };
        let params = self.state.power_params(&self.variants);
        let sol = solve_thermal_reference(&params, &env, &op, &config.device).ok()?;
        if sol.t_c > config.constraints.t_max_c {
            return None;
        }
        let cond = OperatingConditions {
            vdd: Volts::raw(vdd),
            vbb: Volts::raw(vbb),
            t_c: sol.t_c,
        };
        let pe = self.rho * self.state.timing(&self.variants).pe_access(GHz::raw(f_ghz), &cond);
        if pe > self.pe_budget {
            return None;
        }
        Some((sol.total_w(), sol.t_c))
    }

    /// The supply-voltage settings this environment may use.
    pub fn vdd_options(&self) -> &'static [f64] {
        if self.env.asv {
            eval_power::vdd_steps()
        } else {
            &[1.0]
        }
    }

    /// The body-bias settings this environment may use.
    pub fn vbb_options(&self) -> &'static [f64] {
        if self.env.abb {
            eval_power::vbb_steps()
        } else {
            &[0.0]
        }
    }
}

/// One scene with its per-candidate invariants hoisted: the
/// variant-resolved power parameters, the timing model, the thermal
/// environment, and the constraint thresholds are all resolved once per
/// scene instead of once per `(f, Vdd, Vbb)` candidate. Ladder-indexed
/// candidates additionally route through a [`SolveCache`] for memoized,
/// warm-started thermal solves.
#[derive(Debug, Clone)]
pub struct SceneEval<'a> {
    params: SubsystemPowerParams,
    timing: &'a StageTiming,
    tenv: ThermalEnvironment,
    device: &'a DeviceParams,
    t_max_c: f64,
    rho: f64,
    pe_budget: f64,
    /// Error-rate evaluations run by [`admit`](SceneEval::admit).
    pe_evals: Cell<u64>,
}

impl<'a> SceneEval<'a> {
    /// Hoists the scene's invariants out of the candidate loops.
    pub fn new(config: &'a EvalConfig, scene: &SubsystemScene<'a>) -> Self {
        SceneEval {
            params: scene.state.power_params(&scene.variants),
            timing: scene.state.timing(&scene.variants),
            tenv: ThermalEnvironment {
                th_c: scene.th_c,
                alpha_f: scene.alpha_f,
            },
            device: &config.device,
            t_max_c: config.constraints.t_max_c,
            rho: scene.rho,
            pe_budget: scene.pe_budget,
            pe_evals: Cell::new(0),
        }
    }

    /// Error-rate evaluations [`admit`](SceneEval::admit) has run so far.
    pub(crate) fn pe_evals(&self) -> u64 {
        self.pe_evals.get()
    }

    /// The constraint checks of one solved candidate `(f, vdd, vbb)`: a
    /// runaway or a temperature over `TMAX` fails, then the error rate
    /// must stay within the budget. Returns `(power_w, t_c)` when the
    /// candidate is feasible. Every check of this scene, batched or not,
    /// admits through here, so callers may skip a lane whose answer they
    /// would not read without changing any answer they do read.
    pub(crate) fn admit(
        &self,
        f_ghz: f64,
        vdd: f64,
        vbb: f64,
        solved: Result<ThermalSolution, ThermalRunaway>,
    ) -> Option<(f64, f64)> {
        let sol = solved.ok()?;
        if sol.t_c > self.t_max_c {
            return None;
        }
        let cond = OperatingConditions {
            vdd: Volts::raw(vdd),
            vbb: Volts::raw(vbb),
            t_c: sol.t_c,
        };
        self.pe_evals.set(self.pe_evals.get() + 1);
        self.timing
            .pe_access_bounded(GHz::raw(f_ghz), &cond, self.rho, self.pe_budget)?;
        Some((sol.total_w(), sol.t_c))
    }

    /// [`SubsystemScene::check`] for the frequency-ladder point `f_idx`,
    /// memoized through `cache`. Feasibility classification matches the
    /// uncached check; the returned `(power_w, t_c)` are the cache's
    /// canonical values (a pure function of the operating point — see
    /// `eval_power::cache`).
    pub fn check_at(
        &self,
        cache: &mut SolveCache,
        f_idx: usize,
        vdd: f64,
        vbb: f64,
    ) -> Option<(f64, f64)> {
        let solved = cache.solve_ladder(
            &self.params,
            &self.tenv,
            self.device,
            f_idx,
            Volts::raw(vdd),
            Volts::raw(vbb),
        );
        self.admit(FREQ_LADDER.at(f_idx), vdd, vbb, solved)
    }

    /// [`check_at`] for a whole slice of ladder candidates
    /// `(f_idx, vdd, vbb)` at once: [`solve_batch`] runs the thermal
    /// solves as one struct-of-arrays batch through the cache, then
    /// [`admit`] checks the constraints per lane. `out[i]` receives
    /// exactly what [`check_at`] would have returned for lane `i`, in
    /// lane order.
    ///
    /// [`check_at`]: SceneEval::check_at
    /// [`solve_batch`]: SceneEval::solve_batch
    /// [`admit`]: SceneEval::admit
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len() > MAX_BATCH` or `out` is shorter than
    /// `lanes`.
    pub fn check_batch(
        &self,
        cache: &mut SolveCache,
        lanes: &[(usize, f64, f64)],
        scratch: &mut BatchScratch,
        out: &mut [Option<(f64, f64)>],
    ) {
        assert!(out.len() >= lanes.len(), "output slice too short");
        let mut solved = [Err(ThermalRunaway { t_c: 0.0 }); MAX_BATCH];
        self.solve_batch(cache, lanes, scratch, &mut solved);
        for (i, &(f_idx, vdd, vbb)) in lanes.iter().enumerate() {
            out[i] = self.admit(FREQ_LADDER.at(f_idx), vdd, vbb, solved[i]);
        }
    }

    /// The thermal solves of ladder candidates `(f_idx, vdd, vbb)` as one
    /// struct-of-arrays batch through `cache`, with no constraint check:
    /// `solved[i]` is lane `i`'s solve. Pass each lane to [`admit`] to
    /// check it; lanes whose answer is never read need not be.
    ///
    /// [`admit`]: SceneEval::admit
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len() > MAX_BATCH` or `solved` is shorter than
    /// `lanes`.
    pub(crate) fn solve_batch(
        &self,
        cache: &mut SolveCache,
        lanes: &[(usize, f64, f64)],
        scratch: &mut BatchScratch,
        solved: &mut [Result<ThermalSolution, ThermalRunaway>],
    ) {
        assert!(lanes.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
        let mut typed = [(0usize, Volts::raw(0.0), Volts::raw(0.0)); MAX_BATCH];
        for (i, &(f_idx, vdd, vbb)) in lanes.iter().enumerate() {
            typed[i] = (f_idx, Volts::raw(vdd), Volts::raw(vbb));
        }
        cache.solve_ladder_batch(
            &self.params,
            &self.tenv,
            self.device,
            &typed[..lanes.len()],
            scratch,
            solved,
        );
    }

    /// Dynamic power at `(f, vdd)`: the `Pdyn` term of every solve of this
    /// scene, bit for bit. It rises with `vdd`.
    pub(crate) fn pdyn_w(&self, f_ghz: f64, vdd: f64) -> f64 {
        self.params
            .pdyn_w(self.tenv.alpha_f, Volts::raw(vdd), GHz::raw(f_ghz))
    }

    /// Leakage at `(vdd, vbb)` and temperature `t_c`, as the solver
    /// evaluates it.
    fn psta_w(&self, vdd: f64, vbb: f64, t_c: f64) -> f64 {
        let vt = self.device.vt_at(self.params.vt0, t_c, vdd, vbb);
        self.params.ksta_nom_w * leakage_factor(self.device, vt, vdd, t_c)
    }

    /// Whether leakage at `(vdd, vbb)` cannot fall as the temperature
    /// rises from `t_c` upward. `d ln Psta / dT >= 0` reduces to
    /// `2*n*T/(q/k) + Vt(T) - k1*T >= 0` (T in kelvin); `Vt - k1*T` does
    /// not depend on `T`, so with `n > 0` the left side only grows and
    /// one test at `t_c` covers every hotter point.
    fn leakage_rises_with_t(&self, vdd: f64, vbb: f64, t_c: f64) -> bool {
        let d = self.device;
        let t_k = t_c + KELVIN;
        d.n_sub > 0.0
            && 2.0 * d.n_sub * t_k / Q_OVER_K + d.vt_at(self.params.vt0, t_c, vdd, vbb)
                - d.k1_vt_per_kelvin * t_k
                >= 0.0
    }

    /// A solve-free lower bound on the power any check of `(f, vdd, vbb)`
    /// returns: `Pdyn + Psta(T = TH)`. Every solve's fixed point is at
    /// least as hot as the heat sink, so when leakage rises with
    /// temperature the leakage term can only be larger there. When it
    /// provably does not, the bound falls back to `Pdyn` alone.
    pub(crate) fn power_lower_bound(&self, f_ghz: f64, vdd: f64, vbb: f64) -> f64 {
        let pdyn = self.pdyn_w(f_ghz, vdd);
        let th = self.tenv.th_c;
        if self.leakage_rises_with_t(vdd, vbb, th) {
            pdyn + self.psta_w(vdd, vbb, th)
        } else {
            pdyn
        }
    }

    /// The largest reference threshold voltage over the subsystem's grid
    /// cells: the cell with the least gate overdrive, which
    /// [`row_infeasible_from`] needs for its delay-temperature guard.
    ///
    /// [`row_infeasible_from`]: SceneEval::row_infeasible_from
    pub(crate) fn max_cell_vt0(&self) -> f64 {
        self.timing
            .cell_params()
            .map(|(vt0, _)| vt0)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Whether no body bias in `[vbb_min, vbb_max]` at supply `vdd` can
    /// be feasible at ladder index `floor_idx` or above, decided by one
    /// error-rate evaluation and no thermal solve. `vt0_max` is
    /// [`max_cell_vt0`].
    ///
    /// The test runs at `(floor, vdd, vbb_max, T_lb)`, where `T_lb` is one
    /// ascending step of the thermal map from `TH` at `vbb_min` and the
    /// floor frequency. Every pair of the row, at any index from the
    /// floor up, runs at least that hot, and its error rate is at least
    /// the tested one, because:
    ///
    /// * delay and `Pdyn` rise with `f`;
    /// * delay falls and leakage rises as `Vbb` rises (`k3 <= 0`);
    /// * leakage rises with `T` (checked at `TH`, see
    ///   `leakage_rises_with_t`), so the map is increasing;
    /// * delay rises with `T`. The alpha-power law gives
    ///   `d ln Tg / dT = mu_exp/T + alpha*k1/(Vdd - Vt)`, which is
    ///   non-negative while `mu_exp*(Vdd - Vt) >= alpha*|k1|*T`. With
    ///   `mu_exp >= alpha` the left side grows at least as fast as the
    ///   right as `T` rises, so one test at `T_lb` on the slowest cell
    ///   covers every hotter point.
    ///
    /// When any condition fails the row is never rejected. The error-rate
    /// cap carries [`PRUNE_SLACK`] so rounding cannot reject a row that a
    /// full scan would accept.
    ///
    /// [`max_cell_vt0`]: SceneEval::max_cell_vt0
    pub(crate) fn row_infeasible_from(
        &self,
        floor_idx: usize,
        vdd: f64,
        vbb_min: f64,
        vbb_max: f64,
        vt0_max: f64,
    ) -> bool {
        let d = self.device;
        let th = self.tenv.th_c;
        if d.k3_vt_per_vbb > 0.0
            || d.mu_exp < d.alpha
            || !self.leakage_rises_with_t(vdd, vbb_max, th)
        {
            return false;
        }
        let f_ghz = FREQ_LADDER.at(floor_idx);
        let p_lb = self.pdyn_w(f_ghz, vdd) + self.psta_w(vdd, vbb_min, th);
        let t_lb = th + self.params.rth_c_per_w * p_lb;
        let overdrive = vdd - d.vt_at(vt0_max, t_lb, vdd, vbb_max);
        if !(overdrive > 0.0
            && d.mu_exp * overdrive >= d.alpha * d.k1_vt_per_kelvin.abs() * (t_lb + KELVIN))
        {
            return false;
        }
        let cond = OperatingConditions {
            vdd: Volts::raw(vdd),
            vbb: Volts::raw(vbb_max),
            t_c: t_lb,
        };
        self.timing
            .pe_access_bounded(
                GHz::raw(f_ghz),
                &cond,
                self.rho,
                self.pe_budget * (1.0 + PRUNE_SLACK),
            )
            .is_none()
    }

    /// [`SubsystemScene::check`] for an arbitrary (possibly off-ladder)
    /// frequency: a direct canonical cold-start solve, no memoization.
    pub fn check_free(&self, f_ghz: f64, vdd: f64, vbb: f64) -> Option<(f64, f64)> {
        self.admit(f_ghz, vdd, vbb, self.solve_free(f_ghz, vdd, vbb))
    }

    /// The thermal solve of [`check_free`] alone, with no constraint
    /// check; pass it to [`admit`] to check it.
    ///
    /// [`check_free`]: SceneEval::check_free
    /// [`admit`]: SceneEval::admit
    pub(crate) fn solve_free(
        &self,
        f_ghz: f64,
        vdd: f64,
        vbb: f64,
    ) -> Result<ThermalSolution, ThermalRunaway> {
        let op = OperatingPoint::raw(f_ghz, vdd, vbb);
        solve_thermal(&self.params, &self.tenv, &op, self.device)
    }
}

/// A `Freq`/`Power` algorithm backend (Figure 3): one box per subsystem.
pub trait Optimizer {
    /// Stable label for traces and span names (`exhaustive`, `fuzzy`, …).
    fn name(&self) -> &'static str {
        "optimizer"
    }

    /// The `Freq` algorithm for one subsystem: the maximum ladder frequency
    /// at which the subsystem can cycle using any permitted `(Vdd, Vbb)`
    /// without violating its temperature or error-rate constraints.
    fn freq_max(&self, config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64;

    /// The `Power` algorithm for one subsystem: the `(Vdd, Vbb)` that
    /// minimizes subsystem power at core frequency `f_core` without
    /// violating constraints. When no permitted pair is feasible, the
    /// exhaustive oracle returns the nominal setting `(1.0, 0.0)`, which
    /// is always electrically safe, and retuning then lowers `f`. Learned
    /// and global-DVFS optimizers return their own setting without
    /// checking feasibility.
    fn power_settings(
        &self,
        config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64);

    /// Drains any accumulated solver/cache counters into eval-trace
    /// metrics. Drivers call this at natural boundaries (end of a
    /// campaign cell, end of training); the default does nothing.
    fn flush_metrics(&self, _tracer: Tracer<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_core::{ChipFactory, SubsystemId, N_SUBSYSTEMS};
    use eval_power::{vbb_steps, vdd_steps};

    fn result_bits(r: Option<(f64, f64)>) -> Option<(u64, u64)> {
        r.map(|(p, t)| (p.to_bits(), t.to_bits()))
    }

    /// `check_batch` equals `solve_batch` followed by `admit` on every
    /// lane, bit for bit, with the same cache counters. The
    /// lanes repeat points within a batch and across batches, and the hot
    /// scenes push the top lanes into thermal runaway.
    #[test]
    fn check_batch_is_solve_batch_then_admit_per_lane() {
        let factory = ChipFactory::new(EvalConfig::micro08());
        let cfg = factory.config().clone();
        let chip = factory.chip(3);
        let (vdds, vbbs) = (vdd_steps(), vbb_steps());
        let (vdd_top, vbb_top) = (vdds[vdds.len() - 1], vbbs[vbbs.len() - 1]);
        let top = FREQ_LADDER.len() - 1;
        let lanes = [
            (0, vdds[0], vbbs[0]),
            (top / 2, 1.0, 0.0),
            (top, vdd_top, vbb_top),
            (top / 2, 1.0, 0.0),
            (top - 1, vdd_top, vbb_top),
            (top, vdd_top, 0.0),
            (top / 3, vdds[vdds.len() / 2], vbbs[vbbs.len() / 2]),
            (top, vdd_top, vbb_top),
        ];
        let (mut runaway, mut feasible, mut infeasible) = (0, 0, 0);
        for id in SubsystemId::ALL {
            let state = chip.core(0).subsystem(id);
            let (mut cache_a, mut cache_b) = (SolveCache::new(), SolveCache::new());
            let (mut scratch_a, mut scratch_b) = (BatchScratch::new(), BatchScratch::new());
            for th_c in [50.0, 85.0, 120.0, 85.0] {
                let scene = SubsystemScene {
                    state,
                    variants: VariantSelection::default(),
                    th_c,
                    alpha_f: 1.0,
                    rho: 0.6,
                    pe_budget: 1e-4 / N_SUBSYSTEMS as f64,
                    env: Environment::ALL,
                };
                let eval = SceneEval::new(&cfg, &scene);
                let mut out = [None; MAX_BATCH];
                eval.check_batch(&mut cache_a, &lanes, &mut scratch_a, &mut out);
                let mut solved = [Err(ThermalRunaway { t_c: 0.0 }); MAX_BATCH];
                eval.solve_batch(&mut cache_b, &lanes, &mut scratch_b, &mut solved);
                for (i, &(f_idx, vdd, vbb)) in lanes.iter().enumerate() {
                    let split = eval.admit(FREQ_LADDER.at(f_idx), vdd, vbb, solved[i]);
                    assert_eq!(
                        result_bits(out[i]),
                        result_bits(split),
                        "{id} TH {th_c} lane {i}"
                    );
                    match (solved[i], split) {
                        (Err(_), _) => runaway += 1,
                        (Ok(_), Some(_)) => feasible += 1,
                        (Ok(_), None) => infeasible += 1,
                    }
                }
                assert_eq!(
                    cache_a.stats(),
                    cache_b.stats(),
                    "{id} TH {th_c}: cache counters"
                );
            }
        }
        assert!(
            runaway > 0 && feasible > 0 && infeasible > 0,
            "lanes must cover every outcome: {runaway} runaway, {feasible} feasible, {infeasible} infeasible"
        );
    }
}
