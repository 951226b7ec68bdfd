//! The benchmark's instruments must not change what they measure.
//!
//! * The timing wrapper returns exactly what the bare oracle returns:
//!   bit-identical `PhaseDecision`s from `decide_phase` and identical
//!   `TeacherExamples` from `sample_bank`, across every adapted
//!   environment (ABB included) and both provisioning temperatures.
//! * The traced replay reproduces the entry call's simulated result, bit
//!   for bit, on small campaign and tournament configurations.

use eval_adapt::{
    decide_phase, sample_bank, Campaign, ExhaustiveOptimizer, Optimizer, Scheme, Tournament,
    TrainingBudget,
};
use eval_core::{ChipFactory, Environment, EvalConfig, SubsystemId, N_SUBSYSTEMS};
use eval_fuzzy::TrainingConfig;
use eval_rng::ChaCha12Rng;
use eval_uarch::{profile_workload, Workload};
use perfbench::replay::{bank_variants, variant_selection_for};
use perfbench::workload::{campaign_digest, tournament_digest};
use perfbench::{setup, Entry, OracleLog, Replay, TimedOracle, DEFAULT_SEED};

fn workloads(names: &[&str]) -> Vec<Workload> {
    names
        .iter()
        .map(|n| Workload::by_name(n).expect("known workload"))
        .collect()
}

#[test]
fn decide_phase_is_bit_identical_through_the_timing_wrapper() {
    let config = EvalConfig::micro08();
    let factory = ChipFactory::new(config.clone());
    let chip = factory.chip(11);
    let core = chip.core(0);
    let profiles: Vec<_> = workloads(&["gzip", "swim"])
        .iter()
        .map(|w| profile_workload(w, 3_000, 3))
        .collect();
    let log = OracleLog::new();
    let mut calls = 0;
    for env in Environment::FIGURE10 {
        // Fresh oracles per environment, as the program builds them; each
        // keeps its solve cache across phases, so cache reuse is covered.
        let bare = ExhaustiveOptimizer::new();
        let timed = TimedOracle::new(&log);
        for profile in &profiles {
            for phase in &profile.phases {
                for th in [config.th_c, config.constraints.th_max_c] {
                    let decide = |opt: &dyn Optimizer| {
                        decide_phase(
                            &config,
                            core,
                            opt,
                            env,
                            phase,
                            profile.class,
                            profile.rp_cycles,
                            th,
                        )
                    };
                    let a = decide(&bare);
                    let b = decide(&timed);
                    assert_eq!(a, b, "{} {} phase {}", env.name, profile.name, phase.index);
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "bits differ");
                    assert_eq!(a.f_ghz.to_bits(), b.f_ghz.to_bits());
                    assert_eq!(a.perf_bips.to_bits(), b.perf_bips.to_bits());
                    assert_eq!(
                        a.evaluation.total_power_w.to_bits(),
                        b.evaluation.total_power_w.to_bits()
                    );
                    calls += 1;
                }
            }
        }
    }
    assert!(calls > 0);
    // Every decision asks the oracle at least once per subsystem.
    let logged = log
        .durations(perfbench::oracle::OracleCall::FreqMax, None)
        .len();
    assert!(
        logged >= calls * N_SUBSYSTEMS,
        "{logged} freq_max calls logged"
    );
}

#[test]
fn sample_bank_is_identical_through_the_timing_wrapper() {
    let config = EvalConfig::micro08();
    let factory = ChipFactory::new(config.clone());
    let chip = factory.chip(12);
    let core = chip.core(0);
    let pe_budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
    let log = OracleLog::new();
    for env in [
        Environment::TS_ASV,
        Environment::TS_ASV_ABB,
        Environment::TS_ASV_Q_FU,
    ] {
        let bare = ExhaustiveOptimizer::new();
        let timed = TimedOracle::new(&log);
        let mut rng_a = ChaCha12Rng::seed_from_u64(0xF022 ^ chip.seed());
        let mut rng_b = ChaCha12Rng::seed_from_u64(0xF022 ^ chip.seed());
        for id in SubsystemId::ALL {
            for &alt in bank_variants(id, env) {
                let vsel = variant_selection_for(id, alt);
                let state = core.subsystem(id);
                let a = sample_bank(&bare, &config, state, vsel, env, pe_budget, 12, &mut rng_a);
                let b = sample_bank(&timed, &config, state, vsel, env, pe_budget, 12, &mut rng_b);
                assert_eq!(a, b, "{} {id} alt={alt}", env.name);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "bits differ");
            }
        }
    }
}

fn small_budget() -> TrainingBudget {
    TrainingBudget {
        examples: 40,
        config: TrainingConfig {
            epochs: 3,
            ..TrainingConfig::micro08()
        },
        seed: 7,
    }
}

#[test]
fn replay_reproduces_a_campaign_bit_for_bit() {
    let mut c = Campaign::new(2);
    c.workloads = workloads(&["gzip", "swim"]);
    c.profile_budget = 3_000;
    c.training = small_budget();
    let envs = [
        Environment::TS_ASV,
        Environment::TS_ASV_Q_FU,
        Environment::TS_ASV_ABB,
    ];
    let direct = c.run(&envs, &Scheme::ALL).expect("campaign runs");
    let log = OracleLog::new();
    let mut replay = Replay::new(&log);
    let replayed = replay
        .campaign(&c, &envs, &Scheme::ALL)
        .expect("replay runs");
    assert_eq!(campaign_digest(&direct), campaign_digest(&replayed));
    assert_eq!(format!("{direct:?}"), format!("{replayed:?}"));
    assert!(replay.counts.examples > 0 && replay.counts.decisions > 0);
}

#[test]
fn replay_reproduces_a_tournament_bit_for_bit() {
    let mut t = Tournament::new(2);
    t.holdout_chips = 3;
    t.workloads = workloads(&["gzip", "swim"]);
    t.profile_budget = 3_000;
    t.training = small_budget();
    let direct = t.run();
    let log = OracleLog::new();
    let mut replay = Replay::new(&log);
    let replayed = replay.tournament(&t);
    assert_eq!(tournament_digest(&direct), tournament_digest(&replayed));
    assert_eq!(format!("{direct:?}"), format!("{replayed:?}"));
}

#[test]
fn the_default_seed_is_the_library_default_configuration() {
    let Some(Entry::Campaign { campaign, .. }) = setup("exhdyn-sweep", DEFAULT_SEED) else {
        panic!("exhdyn-sweep is a campaign");
    };
    assert_eq!(campaign.base_seed, Campaign::new(1).base_seed);
    let Some(Entry::Tournament(t)) = setup("tournament-holdout", DEFAULT_SEED) else {
        panic!("tournament-holdout is a tournament");
    };
    let defaults = Tournament::new(1);
    assert_eq!(t.profile_seed, defaults.profile_seed);
    assert_eq!(t.training.seed, defaults.training.seed);
    let Some(Entry::Tournament(other)) = setup("tournament-holdout", DEFAULT_SEED + 1) else {
        panic!("tournament-holdout is a tournament");
    };
    assert_ne!(other.profile_seed, t.profile_seed);
    assert!(setup("no-such-workload", 1).is_none());
}
