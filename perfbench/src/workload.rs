//! The benchmark's workloads, their seeding, the public entry call each
//! one makes, and the digest of its simulated output.

use eval_adapt::{Campaign, CampaignResult, Scheme, Tournament, TournamentResult};
use eval_core::Environment;
use eval_trace::Tracer;
use eval_uarch::Workload;

/// The seed at which every workload runs at the library defaults
/// (`Campaign::base_seed` 2008; `Tournament` `profile_seed` 5 and
/// training seed `0xF022`).
pub const DEFAULT_SEED: u64 = 2008;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["figures-small", "exhdyn-sweep", "tournament-holdout"];

/// One workload's public entry call, fully configured.
#[derive(Debug, Clone)]
pub enum Entry {
    /// `Campaign::run(envs, schemes)`.
    Campaign {
        /// The campaign value.
        campaign: Campaign,
        /// Environments swept.
        envs: Vec<Environment>,
        /// Schemes swept.
        schemes: Vec<Scheme>,
    },
    /// `Tournament::run()`.
    Tournament(Tournament),
}

/// The result of one entry call as the benchmark checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// FNV-1a digest of the simulated result (0 when the call errored).
    pub digest: u64,
    /// Chips attempted (population plus holdout).
    pub chips: u64,
    /// Chips quarantined, or every chip when the call errored.
    pub failed: u64,
}

/// Builds workload `name` for workload seed `seed`. The seed moves the
/// library's own seeds by `seed - DEFAULT_SEED`, so `DEFAULT_SEED`
/// reproduces the committed golden configuration.
pub fn setup(name: &str, seed: u64) -> Option<Entry> {
    let delta = seed.wrapping_sub(DEFAULT_SEED);
    match name {
        // The golden Figures 10–12 config: 2 chips x swim,crafty x six
        // environments x all three schemes; training dominates.
        "figures-small" => {
            let mut campaign = Campaign::new(2);
            campaign.base_seed = seed;
            campaign.workloads = ["swim", "crafty"]
                .iter()
                .filter_map(|w| Workload::by_name(w))
                .collect();
            Some(Entry::Campaign {
                campaign,
                envs: Environment::FIGURE10.to_vec(),
                schemes: Scheme::ALL.to_vec(),
            })
        }
        // Decisions only: no controller is trained.
        "exhdyn-sweep" => {
            let mut campaign = Campaign::new(8);
            campaign.base_seed = seed;
            Some(Entry::Campaign {
                campaign,
                envs: Environment::FIGURE10.to_vec(),
                schemes: vec![Scheme::Static, Scheme::ExhDyn],
            })
        }
        // Every learned family trained on 4 chips, scored on 48 others.
        "tournament-holdout" => {
            let mut t = Tournament::new(4);
            t.holdout_chips = 48;
            t.profile_seed = t.profile_seed.wrapping_add(delta);
            t.training.seed = t.training.seed.wrapping_add(delta);
            Some(Entry::Tournament(t))
        }
        _ => None,
    }
}

impl Entry {
    /// Chips one entry call works on.
    pub fn chips(&self) -> u64 {
        match self {
            Entry::Campaign { campaign, .. } => campaign.chips as u64,
            Entry::Tournament(t) => (t.chips + t.holdout_chips) as u64,
        }
    }

    /// The public entry call with tracing off.
    pub fn run(&self) -> Outcome {
        match self {
            Entry::Campaign {
                campaign,
                envs,
                schemes,
            } => self.campaign_outcome(campaign.run(envs, schemes)),
            Entry::Tournament(t) => self.tournament_outcome(&t.run()),
        }
    }

    /// The traced entry call (`run_traced`).
    pub fn run_traced(&self, tracer: Tracer<'_>) -> Outcome {
        match self {
            Entry::Campaign {
                campaign,
                envs,
                schemes,
            } => self.campaign_outcome(campaign.run_traced(envs, schemes, tracer)),
            Entry::Tournament(t) => self.tournament_outcome(&t.run_traced(tracer)),
        }
    }

    /// Checks a campaign result: an error fails every chip.
    pub fn campaign_outcome<E>(&self, result: Result<CampaignResult, E>) -> Outcome {
        match result {
            Ok(r) => Outcome {
                digest: campaign_digest(&r),
                chips: self.chips(),
                failed: r.chips_failed.len() as u64,
            },
            Err(_) => Outcome {
                digest: 0,
                chips: self.chips(),
                failed: self.chips(),
            },
        }
    }

    /// Checks a tournament result.
    pub fn tournament_outcome(&self, result: &TournamentResult) -> Outcome {
        Outcome {
            digest: tournament_digest(result),
            chips: self.chips(),
            failed: 0,
        }
    }
}

/// FNV-1a 64 over a stream of words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn cell_words(h: &mut Fnv, c: &eval_adapt::CellResult) {
    h.f64(c.freq_rel);
    h.f64(c.perf_rel);
    h.f64(c.power_w);
    for n in c.outcomes.as_array() {
        h.word(n);
    }
}

/// Digest of a campaign result: baseline, NoVar and every cell as exact
/// f64 bits, plus the quarantined chip indices.
pub fn campaign_digest(r: &CampaignResult) -> u64 {
    let mut h = Fnv::new();
    cell_words(&mut h, &r.baseline);
    cell_words(&mut h, &r.novar);
    for (env, scheme, cell) in &r.cells {
        h.str(env.name);
        h.str(scheme.label());
        cell_words(&mut h, cell);
    }
    h.word(r.chips_failed.len() as u64);
    for f in &r.chips_failed {
        h.word(f.chip as u64);
    }
    h.0
}

/// Digest of a tournament result: every score of every scheme as exact
/// f64 bits.
pub fn tournament_digest(r: &TournamentResult) -> u64 {
    let mut h = Fnv::new();
    for s in &r.scores {
        h.str(s.scheme);
        h.word(s.decisions);
        h.f64(s.mean_abs_fdelta_ghz);
        h.f64(s.exact_rate);
        h.f64(s.mean_perf_rel);
        h.word(s.holdout_decisions);
        h.f64(s.holdout_mean_abs_fdelta_ghz);
        h.f64(s.holdout_exact_rate);
    }
    h.0
}
