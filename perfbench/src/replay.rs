//! The traced replay: re-issues a workload's work one layer at a time,
//! in the order the entry call runs it (fabricate, profile, label then
//! fit per bank, decide per phase), with a span around every call into a
//! layer and the exhaustive oracle behind a [`TimedOracle`].
//!
//! Only public API is called. What the program keeps crate-private is
//! re-derived here and kept bit-exact: the teacher's bank enumeration,
//! the static scheme's worst-case phase and held queue size, and the
//! campaign/tournament merge arithmetic. The replay therefore returns
//! the same `CampaignResult` / `TournamentResult` as the entry call, and
//! the benchmark checks that the two digests agree.

use std::hint::black_box;

use eval_adapt::tournament::SCHEMES;
use eval_adapt::{
    decide_phase, sample_bank, AdaptationTimeline, Campaign, CampaignError, CampaignResult,
    CellResult, ChipFailure, ControllerZoo, FuzzyOptimizer, LearnedBank, MlpQ16, NnTable,
    Optimizer, PhaseDecision, RegressionTree, Scheme, SchemeScore, TeacherExamples, Tournament,
    TournamentResult, TrainingBudget,
};
use eval_core::{
    ChipFactory, ChipModel, CoreModel, Environment, EvalConfig, FuChoice, GHz, PerfModel,
    QueueChoice, SubsystemId, VariantSelection, N_SUBSYSTEMS,
};
use eval_fuzzy::{FuzzyController, Normalizer};
use eval_rng::ChaCha12Rng;
use eval_trace::{Collector, Tracer};
use eval_uarch::{profile_workload, PhaseProfile, QueueSize, WorkloadClass, WorkloadProfile};

use crate::oracle::{OracleLog, TimedOracle};
use crate::record::{Layer, Recorder};

/// Work counted during the replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Phases profiled.
    pub phases: u64,
    /// Population chips fabricated.
    pub chips: u64,
    /// Teacher examples labeled.
    pub examples: u64,
    /// (subsystem, variant) banks labeled and fitted.
    pub banks: u64,
    /// `decide_phase` calls.
    pub decisions: u64,
    /// Retune frequency steps over all decisions.
    pub retune_steps: u64,
}

/// Replay state: spans, the oracle log, solver counters and work counts.
pub struct Replay<'a> {
    /// The span recorder.
    pub rec: Recorder<'a>,
    log: &'a OracleLog,
    /// Solver counters drained from every timed oracle through the
    /// program's own `Optimizer::flush_metrics` export.
    pub solver: Collector,
    /// Work counts.
    pub counts: Counts,
}

impl<'a> Replay<'a> {
    /// A replay logging oracle calls into `log`.
    pub fn new(log: &'a OracleLog) -> Self {
        Self {
            rec: Recorder::new(log),
            log,
            solver: Collector::new(),
            counts: Counts::default(),
        }
    }

    /// Replays `Campaign::run(envs, schemes)`.
    ///
    /// # Errors
    ///
    /// The errors `Campaign::run` would return for the same inputs.
    pub fn campaign(
        &mut self,
        c: &Campaign,
        envs: &[Environment],
        schemes: &[Scheme],
    ) -> Result<CampaignResult, CampaignError> {
        self.rec.begin(Layer::Replay, "campaign", false);
        let out = self.campaign_inner(c, envs, schemes);
        self.rec.end();
        out
    }

    fn campaign_inner(
        &mut self,
        c: &Campaign,
        envs: &[Environment],
        schemes: &[Scheme],
    ) -> Result<CampaignResult, CampaignError> {
        let config = &c.config;
        let pairs: Vec<(Environment, Scheme)> = envs
            .iter()
            .flat_map(|e| schemes.iter().map(move |s| (*e, *s)))
            .collect();
        let factory = self.rec.time(Layer::Fab, "factory", false, || {
            ChipFactory::new(config.clone())
        });
        let profiles = self.profiles(c.workloads.as_slice(), c.profile_budget, c.base_seed);
        let novar_perf: Vec<f64> = profiles.iter().map(|p| novar_perf(config, p)).collect();
        let novar_chip = self
            .rec
            .time(Layer::Fab, "novar", false, || factory.no_variation());
        let novar = self.rec.time(Layer::Eval, "novar", false, || {
            reference_cell(
                config,
                novar_chip.core(0),
                GHz::raw(config.f_nominal_ghz),
                &profiles,
                &novar_perf,
            )
        })?;

        let mut baseline = CellResult::default();
        let mut cells: Vec<(Environment, Scheme, CellResult)> = pairs
            .iter()
            .map(|(e, s)| (*e, *s, CellResult::default()))
            .collect();
        let mut chips_failed = Vec::new();
        let mut ok_chips = 0usize;
        for chip_idx in 0..c.chips {
            self.rec.begin(Layer::Chip, "chip", false);
            let chip = self.rec.time(Layer::Fab, "chip", false, || {
                factory.chip(c.chip_seed(chip_idx))
            });
            self.counts.chips += 1;
            let result = self.campaign_chip(c, &chip, &pairs, &profiles, &novar_perf);
            self.rec.end();
            match result {
                Ok((chip_baseline, chip_cells)) => {
                    accumulate(&mut baseline, &chip_baseline);
                    for ((_, _, acc), cell) in cells.iter_mut().zip(chip_cells) {
                        accumulate(acc, &cell);
                    }
                    ok_chips += 1;
                }
                Err(error) => chips_failed.push(ChipFailure {
                    chip: chip_idx,
                    error: error.to_string(),
                }),
            }
        }
        if ok_chips == 0 {
            return Err(CampaignError::AllChipsFailed {
                first: chips_failed
                    .first()
                    .map(|f: &ChipFailure| f.error.clone())
                    .unwrap_or_default(),
            });
        }
        let samples = ok_chips * c.cores_per_chip;
        normalize(&mut baseline, samples);
        for (_, _, cell) in cells.iter_mut() {
            normalize(cell, samples);
        }
        Ok(CampaignResult {
            baseline,
            novar,
            cells,
            chips_failed,
        })
    }

    fn profiles(
        &mut self,
        workloads: &[eval_uarch::Workload],
        budget: u64,
        seed: u64,
    ) -> Vec<WorkloadProfile> {
        let mut out = Vec::with_capacity(workloads.len());
        for w in workloads {
            let p = self.rec.time(Layer::Profile, w.name, false, || {
                profile_workload(w, budget, seed)
            });
            self.counts.phases += p.phases.len() as u64;
            out.push(p);
        }
        out
    }

    /// One chip of the campaign: per-core baselines, then every
    /// (core, environment, scheme) unit in core-major order.
    fn campaign_chip(
        &mut self,
        c: &Campaign,
        chip: &ChipModel,
        pairs: &[(Environment, Scheme)],
        profiles: &[WorkloadProfile],
        novar_perf: &[f64],
    ) -> Result<(CellResult, Vec<CellResult>), CampaignError> {
        let config = &c.config;
        let mut baseline = CellResult::default();
        for core_idx in 0..c.cores_per_chip {
            let core = chip.core(core_idx);
            let fvar = core.fvar_nominal(config);
            let cell = self.rec.time(Layer::Eval, "baseline", false, || {
                reference_cell(config, core, fvar, profiles, novar_perf)
            })?;
            accumulate(&mut baseline, &cell);
        }
        let mut cells = vec![CellResult::default(); pairs.len()];
        for unit in 0..c.cores_per_chip * pairs.len() {
            let core_idx = unit / pairs.len();
            let (env, scheme) = pairs[unit % pairs.len()];
            let core = chip.core(core_idx);
            let cell = match scheme {
                Scheme::Static => self.campaign_static(config, core, env, profiles, novar_perf)?,
                Scheme::FuzzyDyn => {
                    self.teach_banks(config, chip, core_idx, env, &c.training, false);
                    let fuzzy = self.rec.time(Layer::Train, env.name, env.abb, || {
                        FuzzyOptimizer::train(config, chip, core_idx, env, &c.training)
                    });
                    self.dynamic(config, core, env, &fuzzy, "fuzzy", profiles, novar_perf)
                }
                Scheme::ExhDyn => {
                    let exh = TimedOracle::new(self.log);
                    let cell =
                        self.dynamic(config, core, env, &exh, "exhaustive", profiles, novar_perf);
                    exh.flush_metrics(Tracer::new(&self.solver));
                    cell
                }
            };
            accumulate(&mut cells[unit % pairs.len()], &cell);
        }
        Ok((baseline, cells))
    }

    /// Labels, then fits, every (subsystem, variant) bank of one
    /// training sweep, with the RNG stream, bank order and fitting seeds
    /// the program's trainers use: one `label` span per bank through a
    /// timed oracle, one `fit-fuzzy` span, and with `learned` one
    /// `fit-learned` span for the zoo's other three families.
    fn teach_banks(
        &mut self,
        config: &EvalConfig,
        chip: &ChipModel,
        core_index: usize,
        env: Environment,
        budget: &TrainingBudget,
        learned: bool,
    ) {
        let oracle = TimedOracle::new(self.log);
        let core = chip.core(core_index);
        let pe_budget = config.constraints.pe_budget_per_subsystem(N_SUBSYSTEMS);
        let mut rng = ChaCha12Rng::seed_from_u64(budget.seed ^ chip.seed());
        for id in SubsystemId::ALL {
            let state = core.subsystem(id);
            for &alt in bank_variants(id, env) {
                let vsel = variant_selection_for(id, alt);
                let ex = self.rec.time(Layer::Label, env.name, env.abb, || {
                    sample_bank(
                        &oracle,
                        config,
                        state,
                        vsel,
                        env,
                        pe_budget,
                        budget.examples,
                        &mut rng,
                    )
                });
                self.counts.examples += budget.examples as u64;
                self.counts.banks += 1;
                self.rec.time(Layer::FitFuzzy, env.name, env.abb, || {
                    fit_fuzzy_bank(&ex, budget, id)
                });
                if learned {
                    let seed = budget.seed ^ ((id.index() as u64) << 8) ^ ((alt as u64) << 16);
                    self.rec.time(Layer::FitLearned, env.name, env.abb, || {
                        black_box(LearnedBank::<NnTable>::train(&ex, seed));
                        black_box(LearnedBank::<RegressionTree>::train(&ex, seed));
                        black_box(LearnedBank::<MlpQ16>::train(&ex, seed));
                    });
                }
            }
        }
        oracle.flush_metrics(Tracer::new(&self.solver));
    }

    #[allow(clippy::too_many_arguments)]
    fn decide(
        &mut self,
        config: &EvalConfig,
        core: &CoreModel,
        optimizer: &dyn Optimizer,
        env: Environment,
        phase: &PhaseProfile,
        profile: &WorkloadProfile,
        th_c: f64,
        scheme: &'static str,
    ) -> PhaseDecision {
        let d = self.rec.time(Layer::Decide, scheme, env.abb, || {
            decide_phase(
                config,
                core,
                optimizer,
                env,
                phase,
                profile.class,
                profile.rp_cycles,
                th_c,
            )
        });
        self.counts.decisions += 1;
        self.counts.retune_steps += u64::from(d.retune_steps);
        d
    }

    /// The campaign's dynamic scheme: decide every phase.
    #[allow(clippy::too_many_arguments)]
    fn dynamic(
        &mut self,
        config: &EvalConfig,
        core: &CoreModel,
        env: Environment,
        optimizer: &dyn Optimizer,
        scheme: &'static str,
        profiles: &[WorkloadProfile],
        novar_perf: &[f64],
    ) -> CellResult {
        let timeline = AdaptationTimeline::micro08();
        let mut cell = CellResult::default();
        for (profile, &ref_perf) in profiles.iter().zip(novar_perf) {
            for ph in &profile.phases {
                let weight = ph.weight / profiles.len() as f64;
                let d = self.decide(
                    config,
                    core,
                    optimizer,
                    env,
                    ph,
                    profile,
                    config.th_c,
                    scheme,
                );
                let overhead = timeline.overhead_fraction(d.retune_steps);
                cell.freq_rel += weight * d.f_ghz / config.f_nominal_ghz;
                cell.perf_rel += weight * d.perf_bips * (1.0 - overhead) / ref_perf;
                cell.power_w += weight * billed_power(config, env, d.evaluation.total_power_w);
                cell.outcomes.add(d.outcome);
            }
        }
        cell
    }

    /// The campaign's static scheme: decide once per workload on its
    /// worst-case phase at `TH_MAX`, then hold that configuration.
    fn campaign_static(
        &mut self,
        config: &EvalConfig,
        core: &CoreModel,
        env: Environment,
        profiles: &[WorkloadProfile],
        novar_perf: &[f64],
    ) -> Result<CellResult, CampaignError> {
        let exh = TimedOracle::new(self.log);
        let mut cell = CellResult::default();
        for (profile, &ref_perf) in profiles.iter().zip(novar_perf) {
            let worst = synthetic_worst_phase(profile);
            let d = self.decide(
                config,
                core,
                &exh,
                env,
                &worst,
                profile,
                config.constraints.th_max_c,
                "static",
            );
            self.rec.time(Layer::Eval, "static", env.abb, || {
                for ph in &profile.phases {
                    let weight = ph.weight / profiles.len() as f64;
                    let eval = core
                        .evaluate(
                            config,
                            config.th_c,
                            GHz::raw(d.f_ghz),
                            &d.settings,
                            &ph.activity.alpha_f,
                            &ph.activity.rho,
                            &d.variants,
                        )
                        .map_err(|source| CampaignError::Infeasible {
                            context: "worst-case-provisioned static configuration",
                            source,
                        })?;
                    let perf = PerfModel::new(
                        ph.cpi_comp(static_queue_size(profile, &d)),
                        ph.mr,
                        ph.mp_ns,
                        profile.rp_cycles,
                    )
                    .perf(d.f_ghz, eval.pe_per_instruction.clamp(0.0, 1.0));
                    cell.freq_rel += weight * d.f_ghz / config.f_nominal_ghz;
                    cell.perf_rel += weight * perf / ref_perf;
                    cell.power_w += weight * billed_power(config, env, eval.total_power_w);
                }
                Ok::<(), CampaignError>(())
            })?;
        }
        exh.flush_metrics(Tracer::new(&self.solver));
        Ok(cell)
    }

    /// Replays `Tournament::run()`.
    pub fn tournament(&mut self, t: &Tournament) -> TournamentResult {
        self.rec.begin(Layer::Replay, "tournament", false);
        let config = &t.config;
        let env = t.env;
        let factory = self.rec.time(Layer::Fab, "factory", false, || {
            ChipFactory::new(config.clone())
        });
        let profiles = self.profiles(t.workloads.as_slice(), t.profile_budget, t.profile_seed);

        let mut train_total = [Acc::default(); SCHEMES.len()];
        let mut zoos = Vec::with_capacity(t.chips);
        for i in 0..t.chips {
            self.rec.begin(Layer::Chip, "train", false);
            let chip = self
                .rec
                .time(Layer::Fab, "chip", false, || factory.chip(i as u64));
            self.counts.chips += 1;
            self.teach_banks(config, &chip, 0, env, &t.training, true);
            let zoo = self.rec.time(Layer::TrainZoo, env.name, env.abb, || {
                ControllerZoo::train(config, &chip, 0, env, &t.training)
            });
            let accs = self.score_chip(t, &chip, &zoo, &profiles);
            self.rec.end();
            for (total, acc) in train_total.iter_mut().zip(&accs) {
                total.add(acc);
            }
            zoos.push(zoo);
        }

        let mut holdout_total = [Acc::default(); SCHEMES.len()];
        if !zoos.is_empty() {
            for h in 0..t.holdout_chips {
                self.rec.begin(Layer::Chip, "holdout", false);
                let chip = self.rec.time(Layer::Fab, "chip", false, || {
                    factory.chip((t.chips + h) as u64)
                });
                self.counts.chips += 1;
                let accs = self.score_chip(t, &chip, &zoos[h % zoos.len()], &profiles);
                self.rec.end();
                for (total, acc) in holdout_total.iter_mut().zip(&accs) {
                    total.add(acc);
                }
            }
        }
        self.rec.end();

        let scores = SCHEMES
            .iter()
            .enumerate()
            .map(|(k, &scheme)| SchemeScore {
                scheme,
                decisions: train_total[k].decisions,
                mean_abs_fdelta_ghz: train_total[k].mean_fdelta(),
                exact_rate: train_total[k].exact_rate(),
                mean_perf_rel: train_total[k].mean_perf_rel(),
                holdout_decisions: holdout_total[k].decisions,
                holdout_mean_abs_fdelta_ghz: holdout_total[k].mean_fdelta(),
                holdout_exact_rate: holdout_total[k].exact_rate(),
            })
            .collect();
        TournamentResult { scores }
    }

    /// Scores the six contestants on every phase of `chip`'s core 0; the
    /// exhaustive decision is the reference.
    fn score_chip(
        &mut self,
        t: &Tournament,
        chip: &ChipModel,
        zoo: &ControllerZoo,
        profiles: &[WorkloadProfile],
    ) -> [Acc; SCHEMES.len()] {
        const REF: usize = 1;
        let config = &t.config;
        let exh = TimedOracle::new(self.log);
        let sensed = config.th_c;
        // (scheme, optimizer, provisioned heat-sink temperature), in
        // SCHEMES order; static provisions for TH_MAX.
        let contestants: [(&'static str, &dyn Optimizer, f64); SCHEMES.len()] = [
            (SCHEMES[0], &exh, config.constraints.th_max_c),
            (SCHEMES[1], &exh, sensed),
            (SCHEMES[2], &zoo.fuzzy, sensed),
            (SCHEMES[3], &zoo.nn, sensed),
            (SCHEMES[4], &zoo.tree, sensed),
            (SCHEMES[5], &zoo.mlp, sensed),
        ];
        let core = chip.core(0);
        let mut accs = [Acc::default(); SCHEMES.len()];
        for profile in profiles {
            for ph in &profile.phases {
                let (scheme, opt, th) = contestants[REF];
                let reference = self.decide(config, core, opt, t.env, ph, profile, th, scheme);
                for (k, &(scheme, opt, th)) in contestants.iter().enumerate() {
                    let d = if k == REF {
                        reference.clone()
                    } else {
                        self.decide(config, core, opt, t.env, ph, profile, th, scheme)
                    };
                    let acc = &mut accs[k];
                    acc.decisions += 1;
                    acc.fdelta_sum += (d.f_ghz - reference.f_ghz).abs();
                    acc.exact += u64::from(d.f_ghz.to_bits() == reference.f_ghz.to_bits());
                    acc.perf_rel_sum += d.perf_bips / reference.perf_bips;
                }
            }
        }
        exh.flush_metrics(Tracer::new(&self.solver));
        accs
    }
}

/// The tournament's per-scheme accuracy accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Acc {
    decisions: u64,
    fdelta_sum: f64,
    exact: u64,
    perf_rel_sum: f64,
}

impl Acc {
    fn add(&mut self, other: &Acc) {
        self.decisions += other.decisions;
        self.fdelta_sum += other.fdelta_sum;
        self.exact += other.exact;
        self.perf_rel_sum += other.perf_rel_sum;
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            sum / self.decisions as f64
        }
    }

    fn mean_fdelta(&self) -> f64 {
        self.mean(self.fdelta_sum)
    }

    fn exact_rate(&self) -> f64 {
        self.mean(self.exact as f64)
    }

    fn mean_perf_rel(&self) -> f64 {
        self.mean(self.perf_rel_sum)
    }
}

/// The banks a trainer builds for subsystem `id` under `env`: the
/// alternate structure gets its own bank only where the environment can
/// select it.
pub fn bank_variants(id: SubsystemId, env: Environment) -> &'static [bool] {
    let has_variant = id.is_replicable_fu() || id.is_issue_queue();
    if has_variant && (env.fu_replication || env.queue) {
        &[false, true]
    } else {
        &[false]
    }
}

/// The variant selection that enables (or not) `id`'s alternate
/// structure.
pub fn variant_selection_for(id: SubsystemId, alt: bool) -> VariantSelection {
    let mut v = VariantSelection::default();
    if alt {
        match id {
            SubsystemId::IntAlu => v.int_fu = FuChoice::LowSlope,
            SubsystemId::FpUnit => v.fp_fu = FuChoice::LowSlope,
            SubsystemId::IntQueue => v.int_queue = QueueChoice::Small,
            SubsystemId::FpQueue => v.fp_queue = QueueChoice::Small,
            _ => {}
        }
    }
    v
}

/// Fits one bank's `Freq`, `Vdd` and `Vbb` fuzzy controllers exactly as
/// the program's fuzzy trainer does (normalize, then train with the
/// per-role seed).
fn fit_fuzzy_bank(ex: &TeacherExamples, budget: &TrainingBudget, id: SubsystemId) {
    for (examples, salt) in [(&ex.freq, 0x11u64), (&ex.vdd, 0x22), (&ex.vbb, 0x33)] {
        let norm = Normalizer::fit(examples);
        let normalized = norm.apply(examples);
        let seed = budget.seed ^ salt ^ ((id.index() as u64) << 8);
        black_box(FuzzyController::train(&normalized, &budget.config, seed).ok());
    }
}

fn novar_perf(config: &EvalConfig, profile: &WorkloadProfile) -> f64 {
    profile.weighted(|ph| {
        PerfModel::new(
            ph.cpi_comp(QueueSize::Full),
            ph.mr,
            ph.mp_ns,
            profile.rp_cycles,
        )
        .perf(config.f_nominal_ghz, 0.0)
    })
}

/// A non-adaptive reference cell (Baseline or NoVar).
fn reference_cell(
    config: &EvalConfig,
    core: &CoreModel,
    f: GHz,
    profiles: &[WorkloadProfile],
    novar_perf: &[f64],
) -> Result<CellResult, CampaignError> {
    let settings = vec![(1.0, 0.0); N_SUBSYSTEMS];
    let mut cell = CellResult::default();
    for (profile, &ref_perf) in profiles.iter().zip(novar_perf) {
        for ph in &profile.phases {
            let weight = ph.weight / profiles.len() as f64;
            let eval = core
                .evaluate(
                    config,
                    config.th_c,
                    f,
                    &settings,
                    &ph.activity.alpha_f,
                    &ph.activity.rho,
                    &VariantSelection::default(),
                )
                .map_err(|source| CampaignError::Infeasible {
                    context: "reference machine at nominal voltages",
                    source,
                })?;
            let perf = PerfModel::new(
                ph.cpi_comp(QueueSize::Full),
                ph.mr,
                ph.mp_ns,
                profile.rp_cycles,
            )
            .perf(f.get(), 0.0);
            cell.freq_rel += weight * f.get() / config.f_nominal_ghz;
            cell.perf_rel += weight * perf / ref_perf;
            cell.power_w += weight * (eval.total_power_w - config.checker_w);
        }
    }
    Ok(cell)
}

fn billed_power(config: &EvalConfig, env: Environment, total_w: f64) -> f64 {
    if env.checker {
        total_w
    } else {
        total_w - config.checker_w
    }
}

fn static_queue_size(profile: &WorkloadProfile, d: &PhaseDecision) -> QueueSize {
    match (profile.class, d.variants.int_queue, d.variants.fp_queue) {
        (WorkloadClass::Int, QueueChoice::Small, _) => QueueSize::ThreeQuarters,
        (WorkloadClass::Fp, _, QueueChoice::Small) => QueueSize::ThreeQuarters,
        _ => QueueSize::Full,
    }
}

/// The worst-case aggregate phase a static configuration is provisioned
/// for.
fn synthetic_worst_phase(profile: &WorkloadProfile) -> PhaseProfile {
    PhaseProfile {
        index: usize::MAX,
        weight: 1.0,
        cpi_comp_full: profile.weighted(|p| p.cpi_comp_full),
        cpi_comp_small: profile.weighted(|p| p.cpi_comp_small),
        mr: profile.weighted(|p| p.mr),
        mp_ns: profile.weighted(|p| p.mp_ns),
        activity: profile.worst_case_activity(),
    }
}

fn accumulate(acc: &mut CellResult, cell: &CellResult) {
    acc.freq_rel += cell.freq_rel;
    acc.perf_rel += cell.perf_rel;
    acc.power_w += cell.power_w;
    acc.outcomes.merge(&cell.outcomes);
}

fn normalize(cell: &mut CellResult, samples: usize) {
    let n = samples as f64;
    cell.freq_rel /= n;
    cell.perf_rel /= n;
    cell.power_w /= n;
}
