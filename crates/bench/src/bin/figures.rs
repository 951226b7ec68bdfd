//! Figures 10–12: runs the shared campaign **once** and prints all three
//! views — relative frequency, performance relative to `NoVar`, and power
//! per processor (core + L1 + L2, plus checker where one exists).
//!
//! Protocol knobs: `EVAL_CHIPS` (default 10) and `EVAL_WORKLOADS`;
//! `--trace <path>` / `EVAL_TRACE` dumps the JSONL event stream;
//! `--checkpoint <path>` / `--resume` make the campaign restartable.

use eval_bench::{
    print_environment_csv, print_environment_matrix, run_figure10_campaign, TraceSession,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = TraceSession::from_env()?;
    let result = run_figure10_campaign(10, &trace)?;
    print_environment_matrix(
        "Figure 10: relative frequency (NoVar = 1.0)",
        "x NoVar",
        &result,
        |c| c.freq_rel,
    );
    println!();
    print_environment_matrix(
        "Figure 11: relative performance (NoVar = 1.0)",
        "x NoVar",
        &result,
        |c| c.perf_rel,
    );
    println!();
    print_environment_matrix(
        "Figure 12: processor power (watts)",
        "W",
        &result,
        |c| c.power_w,
    );
    println!();
    print_environment_csv("freq_rel", &result, |c| c.freq_rel);
    print_environment_csv("perf_rel", &result, |c| c.perf_rel);
    print_environment_csv("power_w", &result, |c| c.power_w);
    println!();
    println!("# paper shape (Fig 11): same ordering as Figure 10 with smaller magnitudes;");
    println!("# their preferred scheme (TS+ASV+Q+FU, Fuzzy-Dyn) gains 14% over NoVar.");
    println!("# paper shape (Fig 12): NoVar ~25 W, Baseline ~17 W (it runs slower); power");
    println!("# grows as techniques are added; the best dynamic scheme rides PMAX = 30 W.");
    if let Some(session) = trace {
        session.finish()?;
    }
    Ok(())
}
