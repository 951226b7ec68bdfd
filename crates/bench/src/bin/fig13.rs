//! Figure 13: outcomes of the fuzzy-controller system — for each of the
//! four voltage environments (A: TS, B: TS+ABB, C: TS+ASV, D: TS+ABB+ASV)
//! and each microarchitecture-technique set (no opt / FU opt / Queue opt /
//! FU+Queue opt), the fraction of controller invocations ending in
//! NoChange, LowFreq, Error, Temp or Power.
//!
//! Protocol knobs: `EVAL_CHIPS` (default 8) and `EVAL_WORKLOADS`. All
//! 16 variants run as one campaign (each chip is fabricated and its
//! references computed once), so `--trace`, `--checkpoint` and
//! `--resume` behave as in every other campaign binary.

use eval_adapt::{Campaign, Outcome, Scheme};
use eval_bench::{
    chips_from_env, fail_chip_from_env, run_campaign, workloads_from_env, TraceSession,
};
use eval_core::Environment;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_env()?;
    let mut campaign = Campaign::new(chips_from_env(8));
    campaign.workloads = workloads_from_env();
    campaign.fail_chip = fail_chip_from_env();
    eprintln!(
        "# campaign: {} chips x {} workloads x 16 environment variants (Fuzzy-Dyn)",
        campaign.chips,
        campaign.workloads.len()
    );

    let technique_sets: [(&str, bool, bool); 4] = [
        ("No opt", false, false),
        ("FU opt", true, false),
        ("Queue opt", false, true),
        ("FU+Queue opt", true, true),
    ];
    let variants: Vec<(&str, Environment)> = technique_sets
        .iter()
        .flat_map(|&(label, fu, queue)| {
            Environment::TABLE2.into_iter().map(move |base| {
                let env = Environment {
                    fu_replication: fu,
                    queue,
                    ..base
                };
                (label, env)
            })
        })
        .collect();
    let envs: Vec<Environment> = variants.iter().map(|&(_, env)| env).collect();
    let result = run_campaign(&campaign, &envs, &[Scheme::FuzzyDyn], &trace)?;

    println!("# Figure 13: controller outcome mix (percent of invocations)");
    println!(
        "{:<14} {:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "techniques", "environment", "NoChange", "LowFreq", "Error", "Temp", "Power"
    );
    println!("csv,techniques,environment,nochange,lowfreq,error,temp,power");
    for &(label, env) in &variants {
        let cell = result.cell(env, Scheme::FuzzyDyn).expect("cell exists");
        let frac = |o: Outcome| 100.0 * cell.outcomes.fraction(o);
        println!(
            "{:<14} {:<12} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            label,
            env.name,
            frac(Outcome::NoChange),
            frac(Outcome::LowFreq),
            frac(Outcome::Error),
            frac(Outcome::Temp),
            frac(Outcome::Power)
        );
        println!(
            "csv,{label},{},{:.3},{:.3},{:.3},{:.3},{:.3}",
            env.name,
            frac(Outcome::NoChange),
            frac(Outcome::LowFreq),
            frac(Outcome::Error),
            frac(Outcome::Temp),
            frac(Outcome::Power)
        );
    }
    println!();
    println!("# paper shape: NoChange dominates for TS; NoChange+LowFreq cover ~50%+");
    println!("# of invocations everywhere; Temp cases are infrequent.");
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
