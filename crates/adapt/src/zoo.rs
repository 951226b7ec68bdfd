//! The controller zoo: one-stop training of every learned per-phase
//! operating-point decision maker from a single teacher sweep.
//!
//! [`ControllerZoo::train_traced`] samples the exhaustive teacher once
//! per (subsystem, variant) bank and trains the fuzzy, nearest-neighbor,
//! tree, and MLP banks from the *same* examples — so every family sees
//! an identical curriculum and the fuzzy controllers stay bit-identical
//! to [`FuzzyOptimizer::train_traced`]. Every member is a
//! [`LearnedOptimizer`] (the fuzzy one over
//! [`FuzzyController`](eval_fuzzy::FuzzyController)), so all four
//! persist and fingerprint alike; decisions go through
//! [`decide_phase_traced`](crate::controller::decide_phase_traced) like
//! any other backend (the tournament's contestant table is
//! [`crate::tournament::contestants`]).

use eval_core::{ChipModel, Environment, EvalConfig, N_SUBSYSTEMS};
use eval_trace::Tracer;

use crate::fuzzy_ctl::{self, FuzzyOptimizer, TrainingBudget};
use crate::learned::{LearnedBank, LearnedOptimizer, MlpQ16, NnTable, RegressionTree};

/// Every trainable controller family for one core in one environment,
/// trained from one shared teacher sweep.
#[derive(Debug, Clone)]
pub struct ControllerZoo {
    /// The paper's fuzzy controller (bit-identical to
    /// [`FuzzyOptimizer::train_traced`] with the same budget).
    pub fuzzy: FuzzyOptimizer,
    /// Nearest-neighbor table over the teacher examples.
    pub nn: LearnedOptimizer<NnTable>,
    /// Greedy regression tree.
    pub tree: LearnedOptimizer<RegressionTree>,
    /// Fixed-point Q16.16 MLP.
    pub mlp: LearnedOptimizer<MlpQ16>,
}

impl ControllerZoo {
    /// [`ControllerZoo::train_traced`] without tracing.
    pub fn train(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        env: Environment,
        budget: &TrainingBudget,
    ) -> Self {
        Self::train_traced(config, chip, core_index, env, budget, Tracer::noop())
    }

    /// Trains all four families for `core` under `env`. The teacher
    /// sweep (RNG stream, oracle queries, bank order) is the same
    /// function [`FuzzyOptimizer::train_traced`] runs, so the fuzzy
    /// member is bit-identical to a standalone fuzzy training at the
    /// same budget; the learned families train from the same examples
    /// with per-bank seeds. Emits the fuzzy trainer's
    /// `ControllerTrained` events plus a `controller.zoo.trained`
    /// count of 3 learned banks per (subsystem, variant).
    pub fn train_traced(
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        env: Environment,
        budget: &TrainingBudget,
        tracer: Tracer<'_>,
    ) -> Self {
        let _span = tracer.span("train-zoo");
        let mut nn = empty_banks();
        let mut tree = empty_banks();
        let mut mlp = empty_banks();
        let fuzzy = fuzzy_ctl::teacher_sweep(
            config,
            chip,
            core_index,
            env,
            budget,
            tracer,
            |id, alt, ex| {
                // The learned families train from the same teacher
                // examples with a per-bank seed (models with no
                // stochastic training ignore it).
                let seed = budget.seed ^ ((id.index() as u64) << 8) ^ ((alt as u64) << 16);
                nn[id.index()][alt as usize] = Some(LearnedBank::train(ex, seed));
                tree[id.index()][alt as usize] = Some(LearnedBank::train(ex, seed));
                mlp[id.index()][alt as usize] = Some(LearnedBank::train(ex, seed));
                tracer.count_n(eval_trace::names::CONTROLLER_ZOO_TRAINED, 3);
            },
        );
        Self {
            fuzzy,
            nn: LearnedOptimizer::from_banks(env, nn),
            tree: LearnedOptimizer::from_banks(env, tree),
            mlp: LearnedOptimizer::from_banks(env, mlp),
        }
    }
}

/// One untrained `[normal, alt]` slot pair per subsystem.
fn empty_banks<M>() -> Vec<[Option<LearnedBank<M>>; 2]> {
    (0..N_SUBSYSTEMS).map(|_| [None, None]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzy_ctl::TrainingBudget;
    use eval_core::{
        ChipFactory, SubsystemId, FREQ_LADDER, VariantSelection, VBB_LADDER, VDD_LADDER,
    };
    use eval_fuzzy::TrainingConfig;
    use crate::exhaustive::ExhaustiveOptimizer;
    use crate::optimizer::{Optimizer, SubsystemScene};
    use std::sync::OnceLock;

    fn factory() -> &'static ChipFactory {
        static F: OnceLock<ChipFactory> = OnceLock::new();
        F.get_or_init(|| ChipFactory::new(EvalConfig::micro08()))
    }

    fn small_budget() -> TrainingBudget {
        TrainingBudget {
            examples: 160,
            config: TrainingConfig {
                epochs: 3,
                ..TrainingConfig::micro08()
            },
            seed: 7,
        }
    }

    #[test]
    fn zoo_fuzzy_is_bit_identical_to_standalone_fuzzy_training() {
        let cfg = factory().config().clone();
        let chip = factory().chip(5);
        let budget = small_budget();
        let zoo = ControllerZoo::train(&cfg, &chip, 0, Environment::TS_ASV, &budget);
        let standalone =
            FuzzyOptimizer::train(&cfg, &chip, 0, Environment::TS_ASV, &budget);
        // Identical RNG stream and training seeds mean identical
        // controllers, field for field and through inference on a grid
        // of scenes.
        assert_eq!(zoo.fuzzy, standalone);
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        for id in SubsystemId::ALL {
            for th in [48.0, 60.0, 70.0] {
                for alpha in [0.2, 0.8] {
                    let scene = SubsystemScene {
                        state: chip.core(0).subsystem(id),
                        variants: VariantSelection::default(),
                        th_c: th,
                        alpha_f: alpha,
                        rho: 0.7,
                        pe_budget,
                        env: Environment::TS_ASV,
                    };
                    assert_eq!(
                        zoo.fuzzy.freq_max(&cfg, &scene).to_bits(),
                        standalone.freq_max(&cfg, &scene).to_bits()
                    );
                    let a = zoo.fuzzy.power_settings(&cfg, &scene, 4.0);
                    let b = standalone.power_settings(&cfg, &scene, 4.0);
                    assert_eq!((a.0.to_bits(), a.1.to_bits()), (b.0.to_bits(), b.1.to_bits()));
                }
            }
        }
    }

    #[test]
    fn learned_members_land_on_ladders_and_track_the_oracle() {
        let cfg = factory().config().clone();
        let chip = factory().chip(6);
        let zoo = ControllerZoo::train(&cfg, &chip, 0, Environment::TS_ASV, &small_budget());
        let oracle = ExhaustiveOptimizer::new();
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let members: [(&str, &dyn Optimizer); 3] =
            [("nn-table", &zoo.nn), ("tree", &zoo.tree), ("mlp", &zoo.mlp)];
        for (label, opt) in members {
            let mut err_sum = 0.0;
            let mut scenes = 0u32;
            for id in [SubsystemId::Dcache, SubsystemId::IntAlu] {
                for th in [50.0, 58.0, 66.0] {
                    for alpha in [0.3, 0.7] {
                        let scene = SubsystemScene {
                            state: chip.core(0).subsystem(id),
                            variants: VariantSelection::default(),
                            th_c: th,
                            alpha_f: alpha,
                            rho: 0.8,
                            pe_budget,
                            env: Environment::TS_ASV,
                        };
                        let f = opt.freq_max(&cfg, &scene);
                        assert!(FREQ_LADDER.contains(f), "{label} off ladder: {f}");
                        let (vdd, vbb) = opt.power_settings(&cfg, &scene, f);
                        assert!(VDD_LADDER.contains(vdd), "{label} vdd off ladder");
                        assert!(VBB_LADDER.contains(vbb), "{label} vbb off ladder");
                        err_sum += (f - oracle.freq_max(&cfg, &scene)).abs();
                        scenes += 1;
                    }
                }
            }
            let mean_err = err_sum / f64::from(scenes);
            assert!(
                mean_err <= 0.8,
                "{label} mean oracle gap {mean_err} GHz over tolerance"
            );
        }
    }

    #[test]
    fn out_of_range_inputs_saturate_onto_the_ladders() {
        let cfg = factory().config().clone();
        let chip = factory().chip(8);
        let env = Environment::TS_ASV_ABB;
        let budget = TrainingBudget {
            examples: 60,
            ..small_budget()
        };
        let zoo = ControllerZoo::train(&cfg, &chip, 0, env, &budget);
        let members: [(&str, &dyn Optimizer); 4] = [
            ("fuzzy", &zoo.fuzzy),
            ("nn-table", &zoo.nn),
            ("tree", &zoo.tree),
            ("mlp", &zoo.mlp),
        ];
        let pe_budget = cfg.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let sane = SubsystemScene {
            state: chip.core(0).subsystem(SubsystemId::IntAlu),
            variants: VariantSelection::default(),
            th_c: 60.0,
            alpha_f: 0.5,
            rho: 0.7,
            pe_budget,
            env,
        };
        for (label, opt) in members {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e12] {
                // One out-of-range input at a time; the last scene is sane
                // and `f_core` is out of range instead.
                let mut scenes = [sane.clone(), sane.clone(), sane.clone(), sane.clone()];
                scenes[0].th_c = bad;
                scenes[1].alpha_f = bad;
                scenes[2].rho = bad;
                for (k, scene) in scenes.iter().enumerate() {
                    let f_core = if k == 3 { bad } else { 4.0 };
                    let f = opt.freq_max(&cfg, scene);
                    assert!(FREQ_LADDER.contains(f), "{label} freq {f} at input {bad}");
                    let (vdd, vbb) = opt.power_settings(&cfg, scene, f_core);
                    assert!(VDD_LADDER.contains(vdd), "{label} vdd {vdd} at input {bad}");
                    assert!(VBB_LADDER.contains(vbb), "{label} vbb {vbb} at input {bad}");
                }
            }
        }
    }

    #[test]
    fn learned_optimizers_persist_and_fingerprint() {
        let cfg = factory().config().clone();
        let chip = factory().chip(9);
        let zoo = ControllerZoo::train(&cfg, &chip, 0, Environment::TS_ASV, &small_budget());
        let text = zoo.mlp.to_text();
        let back = LearnedOptimizer::<MlpQ16>::from_text(Environment::TS_ASV, &text)
            .expect("parses");
        assert_eq!(zoo.mlp, back);
        assert_eq!(zoo.mlp.fingerprint(), back.fingerprint());
        // Environment mismatch is an error, not a silent reinterpretation.
        assert!(LearnedOptimizer::<MlpQ16>::from_text(Environment::TS, &text).is_err());
        // Wrong model family is caught by the scheme header.
        assert!(LearnedOptimizer::<NnTable>::from_text(Environment::TS_ASV, &text).is_err());
        // The fuzzy member persists through the same generic path.
        let f = zoo.fuzzy.to_text();
        let back = FuzzyOptimizer::from_text(Environment::TS_ASV, &f).expect("parses");
        assert_eq!(zoo.fuzzy, back);
        assert_eq!(zoo.fuzzy.fingerprint(), back.fingerprint());
        assert!(LearnedOptimizer::<NnTable>::from_text(Environment::TS_ASV, &f).is_err());
        // And the tree round-trips too.
        let t = zoo.tree.to_text();
        assert_eq!(
            LearnedOptimizer::<RegressionTree>::from_text(Environment::TS_ASV, &t)
                .expect("parses"),
            zoo.tree
        );
    }
}
