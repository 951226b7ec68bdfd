//! Hot-path equivalence: the memoized, warm-started operating-point
//! evaluator (`SceneEval::check_at` over a `SolveCache`) must be
//! bit-identical to a cold evaluation of the same ladder point, must agree
//! with the damped reference solver path to physical tolerance, and must
//! return values that do not depend on query order.

use eval::adapt::teacher::{ALPHA_RANGE, RHO_RANGE, TH_RANGE};
use eval::adapt::SceneEval;
use eval::power::{
    freq_steps, solve_thermal, solve_thermal_reference, vbb_steps, vdd_steps, OperatingPoint,
    SolveCache, SubsystemPowerParams, ThermalEnvironment,
};
use eval::prelude::*;
use std::sync::OnceLock;

fn factory() -> &'static ChipFactory {
    static F: OnceLock<ChipFactory> = OnceLock::new();
    F.get_or_init(|| ChipFactory::new(EvalConfig::micro08()))
}

fn scene(state: &eval::core::chip::SubsystemState, env: Environment) -> SubsystemScene<'_> {
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

/// A grid point's `(f_idx, vdd bits, vbb bits)` key with its result bits.
type KeyedBits = ((usize, u64, u64), (u64, u64, bool));

fn result_bits(r: Option<(f64, f64)>) -> (u64, u64, bool) {
    match r {
        Some((p, t)) => (p.to_bits(), t.to_bits(), true),
        None => (0, 0, false),
    }
}

/// Warm shared-cache evaluation over the full `(f, Vdd, Vbb)` grid is
/// bitwise identical to evaluating each point with its own fresh cache, on
/// four different chips.
#[test]
fn warm_cache_matches_fresh_cache_bitwise_across_the_grid() {
    let cfg = factory().config().clone();
    let cases = [
        (1u64, SubsystemId::IntAlu),
        (2, SubsystemId::Dcache),
        (3, SubsystemId::IntQueue),
        (4, SubsystemId::FpUnit),
    ];
    for (seed, id) in cases {
        let chip = factory().chip(seed);
        let state = chip.core(0).subsystem(id);
        let sc = scene(state, Environment::TS_ABB_ASV);
        let eval = SceneEval::new(&cfg, &sc);
        let mut warm = SolveCache::new();
        for f_idx in 0..freq_steps().len() {
            for &vdd in vdd_steps() {
                for &vbb in vbb_steps() {
                    let shared = eval.check_at(&mut warm, f_idx, vdd, vbb);
                    let mut fresh = SolveCache::new();
                    let cold = eval.check_at(&mut fresh, f_idx, vdd, vbb);
                    assert_eq!(
                        result_bits(shared),
                        result_bits(cold),
                        "chip {seed} {id} f_idx={f_idx} vdd={vdd} vbb={vbb}"
                    );
                }
            }
        }
    }
}

/// The fast path agrees with the independent reference implementation
/// (damped solver + unbounded error-rate evaluation): identical
/// feasibility classification away from constraint boundaries, and tight
/// numeric agreement whenever both sides are feasible.
#[test]
fn fast_path_matches_reference_solver_across_the_grid() {
    let cfg = factory().config().clone();
    let chip = factory().chip(2);
    let state = chip.core(0).subsystem(SubsystemId::IntAlu);
    let sc = scene(state, Environment::TS_ABB_ASV);
    let eval = SceneEval::new(&cfg, &sc);
    let params = state.power_params(&sc.variants);
    let timing = state.timing(&sc.variants);
    let tenv = ThermalEnvironment {
        th_c: sc.th_c,
        alpha_f: sc.alpha_f,
    };
    let mut cache = SolveCache::new();
    let mut compared = 0usize;
    for f_idx in 0..freq_steps().len() {
        let f_ghz = freq_steps()[f_idx];
        for &vdd in vdd_steps() {
            for &vbb in vbb_steps() {
                let fast = eval.check_at(&mut cache, f_idx, vdd, vbb);
                let reference = sc.check_reference(&cfg, f_ghz, vdd, vbb);
                // Near a constraint boundary the two solvers' tolerance
                // difference (1e-7 vs 1e-6) may legitimately flip the
                // classification; skip only those points.
                let op = OperatingPoint::raw(f_ghz, vdd, vbb);
                let boundary = match solve_thermal_reference(&params, &tenv, &op, &cfg.device) {
                    Err(_) => false,
                    Ok(sol) => {
                        let cond = OperatingConditions {
                            vdd: eval::units::Volts::raw(vdd),
                            vbb: eval::units::Volts::raw(vbb),
                            t_c: sol.t_c,
                        };
                        let pe = sc.rho * timing.pe_access(eval::units::GHz::raw(f_ghz), &cond);
                        (sol.t_c - cfg.constraints.t_max_c).abs() < 1e-3
                            || (pe - sc.pe_budget).abs() < 0.01 * sc.pe_budget
                    }
                };
                if boundary {
                    continue;
                }
                compared += 1;
                assert_eq!(
                    fast.is_some(),
                    reference.is_some(),
                    "classification differs at f={f_ghz} vdd={vdd} vbb={vbb}: \
                     fast {fast:?} vs reference {reference:?}"
                );
                if let (Some((p_f, t_f)), Some((p_r, t_r))) = (fast, reference) {
                    assert!(
                        (p_f - p_r).abs() < 1e-3 && (t_f - t_r).abs() < 1e-3,
                        "fast ({p_f}, {t_f}) vs reference ({p_r}, {t_r}) \
                         at f={f_ghz} vdd={vdd} vbb={vbb}"
                    );
                }
            }
        }
    }
    assert!(compared > 1000, "only {compared} grid points compared");
}

/// `freq_max` via the cached guess-verify search equals the uncached
/// reference bisection for every environment that exposes a ladder.
#[test]
fn freq_max_fast_equals_reference() {
    let cfg = factory().config().clone();
    for seed in [1u64, 4] {
        let chip = factory().chip(seed);
        let opt = ExhaustiveOptimizer::new();
        for id in [SubsystemId::Dcache, SubsystemId::LdStQueue] {
            let state = chip.core(0).subsystem(id);
            for env in [Environment::TS, Environment::TS_ASV, Environment::TS_ABB_ASV] {
                let sc = scene(state, env);
                assert_eq!(
                    opt.freq_max(&cfg, &sc),
                    opt.freq_max_reference(&cfg, &sc),
                    "chip {seed} {id} {}",
                    env.name
                );
            }
        }
    }
}

/// Cached values are a pure function of the key: sweeping the grid
/// forward, backward, or frequency-major vs voltage-major returns the same
/// bits for every point.
#[test]
fn query_order_does_not_change_cached_answers() {
    let cfg = factory().config().clone();
    let chip = factory().chip(3);
    let state = chip.core(0).subsystem(SubsystemId::IntReg);
    let sc = scene(state, Environment::TS_ABB_ASV);
    let eval = SceneEval::new(&cfg, &sc);

    let mut points = Vec::new();
    for f_idx in 0..freq_steps().len() {
        for &vdd in vdd_steps() {
            for &vbb in vbb_steps() {
                points.push((f_idx, vdd, vbb));
            }
        }
    }
    let sweep = |order: &[(usize, f64, f64)]| -> Vec<KeyedBits> {
        let mut cache = SolveCache::new();
        let mut out: Vec<_> = order
            .iter()
            .map(|&(f_idx, vdd, vbb)| {
                (
                    (f_idx, vdd.to_bits(), vbb.to_bits()),
                    result_bits(eval.check_at(&mut cache, f_idx, vdd, vbb)),
                )
            })
            .collect();
        out.sort_by_key(|a| a.0);
        out
    };

    let forward = sweep(&points);
    let mut reversed = points.clone();
    reversed.reverse();
    assert_eq!(forward, sweep(&reversed), "reverse order changed answers");
    // A deterministic interleave: odd indices first, then even.
    let mut interleaved: Vec<_> = points.iter().copied().skip(1).step_by(2).collect();
    interleaved.extend(points.iter().copied().step_by(2));
    assert_eq!(forward, sweep(&interleaved), "interleaved order changed answers");
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For random thermal environments and operating points, the fast
        /// solver's fixed point sits within 1e-4 of the reference
        /// solver's whenever both converge.
        #[test]
        fn prop_fast_solver_tracks_reference_over_random_environments(
            kdyn in 0.1f64..1.2,
            ksta in 0.02f64..0.6,
            rth in 1.0f64..8.0,
            th in 40.0f64..75.0,
            alpha in 0.0f64..1.0,
            f in 2.4f64..5.6,
            vdd in 0.8f64..1.2,
            vbb in -0.5f64..0.5,
        ) {
            let device = eval::variation::DeviceParams::micro08();
            let params = SubsystemPowerParams {
                kdyn_w: kdyn,
                ksta_nom_w: ksta,
                rth_c_per_w: rth,
                vt0: device.vt_nominal,
            };
            let env = ThermalEnvironment { th_c: th, alpha_f: alpha };
            let op = OperatingPoint::raw(f, vdd, vbb);
            let fast = solve_thermal(&params, &env, &op, &device);
            let reference = solve_thermal_reference(&params, &env, &op, &device);
            if let (Ok(fast), Ok(reference)) = (fast, reference) {
                prop_assert!(
                    (fast.t_c - reference.t_c).abs() < 1e-4,
                    "fast {} vs reference {}", fast.t_c, reference.t_c
                );
                prop_assert!((fast.total_w() - reference.total_w()).abs() < 1e-4);
            }
        }
    }

    /// Largest ladder frequency feasible at *any* `(Vdd, Vbb)` pair, by
    /// checking every grid point with the uncached reference check: no
    /// bisection, no hint, no pruning, and no prefix assumption.
    fn freq_max_by_full_scan(cfg: &EvalConfig, sc: &SubsystemScene<'_>) -> f64 {
        let mut best = 0;
        for &vdd in sc.vdd_options() {
            for &vbb in sc.vbb_options() {
                for i in 0..FREQ_LADDER.len() {
                    if i > best
                        && sc
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

    /// The lowest-power feasible `(Vdd, Vbb)` at ladder index `f_idx`,
    /// checking every pair one at a time on a fresh cache (first minimum
    /// in `Vdd`-major order; nominal when nothing is feasible).
    fn power_settings_by_full_grid(
        cfg: &EvalConfig,
        sc: &SubsystemScene<'_>,
        f_idx: usize,
    ) -> (f64, f64) {
        let eval = SceneEval::new(cfg, sc);
        let mut cache = SolveCache::new();
        let mut best: Option<(f64, f64, f64)> = None;
        for &vdd in sc.vdd_options() {
            for &vbb in sc.vbb_options() {
                if let Some((p, _)) = eval.check_at(&mut cache, f_idx, vdd, vbb) {
                    if best.is_none_or(|(bp, _, _)| p < bp) {
                        best = Some((p, vdd, vbb));
                    }
                }
            }
        }
        best.map_or((1.0, 0.0), |(_, vdd, vbb)| (vdd, vbb))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The exhaustive optimizer's pruned, hinted, batched search
        /// agrees with brute-force oracles over random scenes in every
        /// Figure 10 environment (ABB and ALL included).
        #[test]
        fn prop_exhaustive_matches_brute_force_oracles_in_every_environment(
            chip_seed in 1u64..64,
            sub in 0usize..N_SUBSYSTEMS,
            th in 45.0f64..68.0,
            alpha in 0.05f64..0.95,
            rho in 0.2f64..1.0,
            f_idx in 0usize..FREQ_LADDER.len(),
        ) {
            let cfg = factory().config().clone();
            let chip = factory().chip(chip_seed);
            let id = SubsystemId::ALL[sub];
            for env in Environment::FIGURE10 {
                let sc = SubsystemScene {
                    state: chip.core(0).subsystem(id),
                    variants: VariantSelection::default(),
                    th_c: th,
                    alpha_f: alpha,
                    rho,
                    pe_budget: 1e-4 / N_SUBSYSTEMS as f64,
                    env,
                };
                let opt = ExhaustiveOptimizer::new();
                prop_assert_eq!(
                    opt.freq_max(&cfg, &sc),
                    freq_max_by_full_scan(&cfg, &sc),
                    "freq_max: chip {} {} {}", chip_seed, id, env.name
                );
                prop_assert_eq!(
                    opt.power_settings(&cfg, &sc, FREQ_LADDER.at(f_idx)),
                    power_settings_by_full_grid(&cfg, &sc, f_idx),
                    "power_settings: chip {} {} {} f_idx {}", chip_seed, id, env.name, f_idx
                );
            }
        }
    }

    /// The lowest-power feasible `(Vdd, Vbb)` at an arbitrary (possibly
    /// off-ladder) core frequency, checking every pair with a cold
    /// `check_free` solve (first minimum in `Vdd`-major order; nominal
    /// when nothing is feasible).
    fn power_settings_free_by_full_grid(
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

    /// The alternate structure of subsystem `id` (low-slope FU replica or
    /// small issue queue), or the default selection when it has none.
    fn alternate_variants(id: SubsystemId) -> VariantSelection {
        let mut v = VariantSelection::default();
        match id {
            SubsystemId::IntAlu => v.int_fu = FuChoice::LowSlope,
            SubsystemId::FpUnit => v.fp_fu = FuChoice::LowSlope,
            SubsystemId::IntQueue => v.int_queue = QueueChoice::Small,
            SubsystemId::FpQueue => v.fp_queue = QueueChoice::Small,
            _ => {}
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The same brute-force agreement over the teacher's whole
        /// sampling domain (`teacher::TH_RANGE`, `ALPHA_RANGE`,
        /// `RHO_RANGE`), with the alternate FU/queue structures, and at
        /// the continuous off-ladder core frequency the teacher labels
        /// `power_settings` with, drawn as `teacher::sample_bank` draws
        /// it. Off-ladder answers are checked against a full-grid
        /// `check_free` oracle.
        #[test]
        fn prop_exhaustive_matches_brute_force_oracles_over_the_teacher_domain(
            chip_seed in 1u64..64,
            sub in 0usize..N_SUBSYSTEMS,
            th in TH_RANGE.0..TH_RANGE.1,
            alpha in ALPHA_RANGE.0..ALPHA_RANGE.1,
            rho in RHO_RANGE.0..RHO_RANGE.1,
            alt in proptest::bool::ANY,
            f_idx in 0usize..FREQ_LADDER.len(),
            f_frac in 0.0f64..1.0,
        ) {
            let cfg = factory().config().clone();
            let chip = factory().chip(chip_seed);
            let id = SubsystemId::ALL[sub];
            let variants = if alt { alternate_variants(id) } else { VariantSelection::default() };
            for env in Environment::FIGURE10 {
                let sc = SubsystemScene {
                    state: chip.core(0).subsystem(id),
                    variants,
                    th_c: th,
                    alpha_f: alpha,
                    rho: rho.max(1e-3),
                    pe_budget: 1e-4 / N_SUBSYSTEMS as f64,
                    env,
                };
                let opt = ExhaustiveOptimizer::new();
                let fmax = opt.freq_max(&cfg, &sc);
                prop_assert_eq!(
                    fmax,
                    freq_max_by_full_scan(&cfg, &sc),
                    "freq_max: chip {} {} alt {} {}", chip_seed, id, alt, env.name
                );
                prop_assert_eq!(
                    opt.power_settings(&cfg, &sc, FREQ_LADDER.at(f_idx)),
                    power_settings_by_full_grid(&cfg, &sc, f_idx),
                    "power_settings: chip {} {} alt {} {} f_idx {}",
                    chip_seed, id, alt, env.name, f_idx
                );
                let f_core = FREQ_LADDER.min + f_frac * (fmax - FREQ_LADDER.min);
                prop_assert_eq!(
                    opt.power_settings(&cfg, &sc, f_core),
                    power_settings_free_by_full_grid(&cfg, &sc, f_core),
                    "power_settings: chip {} {} alt {} {} f_core {}",
                    chip_seed, id, alt, env.name, f_core
                );
            }
        }
    }
}
