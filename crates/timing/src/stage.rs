//! Per-subsystem timing under variation and operating conditions.

use eval_units::{GHz, UnitRangeError, Volts};
use eval_variation::{leff_delay_term, ChipMap, DelayTerms, DeviceParams};

use crate::paths::PathDistribution;
use crate::kind::PathClass;

/// Voltage and temperature conditions applied to one subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingConditions {
    /// Supply voltage (ASV knob).
    pub vdd: Volts,
    /// Body-bias voltage (ABB knob; positive = forward bias).
    pub vbb: Volts,
    /// Subsystem temperature in Celsius.
    pub t_c: f64,
}

impl OperatingConditions {
    /// Nominal conditions: 1 V supply, zero body bias, the reference 100 C.
    pub fn nominal() -> Self {
        Self {
            vdd: Volts::raw(1.0),
            vbb: Volts::raw(0.0),
            t_c: 100.0,
        }
    }

    /// Range-validated constructor: `vdd` must be a legal supply voltage
    /// and `vbb` a legal body bias (see [`eval_units::Volts`]).
    // lint:allow(unit-safety): validating boundary constructor — raw
    // numbers in, range-checked newtypes out.
    pub fn new(vdd: f64, vbb: f64, t_c: f64) -> Result<Self, UnitRangeError> {
        Ok(Self {
            vdd: Volts::vdd(vdd)?,
            vbb: Volts::vbb(vbb)?,
            t_c,
        })
    }
}

impl Default for OperatingConditions {
    fn default() -> Self {
        Self::nominal()
    }
}

/// One grid cell's process parameters under a subsystem footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellDevice {
    /// Reference threshold voltage (volts, at reference temperature).
    vt0: f64,
    /// Normalized effective channel length.
    leff: f64,
    /// The cell's channel-length delay term, `leff_delay_term(leff)`,
    /// computed once at construction.
    leff_term: f64,
}

impl CellDevice {
    fn new(device: &DeviceParams, vt0: f64, leff: f64) -> Self {
        Self {
            vt0,
            leff,
            leff_term: leff_delay_term(device, leff),
        }
    }
}

/// The timing model of one pipeline stage (subsystem) on a specific chip:
/// a nominal path-delay distribution plus the systematic variation of the
/// grid cells the subsystem's floorplan covers.
///
/// Evaluating `PE` mixes the per-cell delay-scaled distributions: paths are
/// assumed uniformly spread over the footprint, so each cell contributes
/// `paths / n_cells` independent paths scaled by that cell's local
/// process/voltage/temperature delay factor.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    dist: PathDistribution,
    cells: Vec<CellDevice>,
    device: DeviceParams,
}

impl StageTiming {
    /// Builds the stage model from a chip map and a footprint.
    ///
    /// * `class` — nominal path statistics for the subsystem kind.
    /// * `t_nom_ns` — nominal (no-variation) clock period in ns.
    /// * `chip` — the chip's variation maps.
    /// * `cells` — flat grid-cell indices of the subsystem's floorplan.
    /// * `device` — shared device-physics constants.
    /// * `gates_per_path` — logic depth used to average the random
    ///   variation component along a path (VARIUS: random variation of a
    ///   path is the per-gate sigma divided by `sqrt(depth)`).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty, contains out-of-range indices, or
    /// `gates_per_path` is zero.
    pub fn from_chip(
        class: &PathClass,
        t_nom_ns: f64,
        chip: &ChipMap,
        cells: &[usize],
        device: DeviceParams,
        gates_per_path: usize,
    ) -> Self {
        assert!(!cells.is_empty(), "subsystem footprint must be non-empty");
        assert!(gates_per_path > 0, "paths must contain at least one gate");

        // Random component: widen the path distribution by the per-path
        // relative sigma implied by random Vt/Leff variation.
        let dlnt_dvt = device.alpha / (device.vdd_nominal - device.vt_nominal);
        let rel_from_vt = dlnt_dvt * chip.vt_sigma_ran;
        let rel_from_leff = device.leff_exp * chip.leff_sigma_ran / device.leff_nominal;
        let rel_rand =
            (rel_from_vt * rel_from_vt + rel_from_leff * rel_from_leff).sqrt()
                / (gates_per_path as f64).sqrt();

        let dist = class.nominal_distribution(t_nom_ns).widened(rel_rand);
        let cells = cells
            .iter()
            .map(|&c| CellDevice::new(&device, chip.vt.at(c), chip.leff.at(c)))
            .collect();
        Self {
            dist,
            cells,
            device,
        }
    }

    /// Builds a stage with explicit per-cell parameters (mainly for tests
    /// and for the no-variation reference processor).
    ///
    /// # Panics
    ///
    /// Panics if `vt0_leff_pairs` is empty.
    pub fn from_parts(
        dist: PathDistribution,
        vt0_leff_pairs: &[(f64, f64)],
        device: DeviceParams,
    ) -> Self {
        assert!(!vt0_leff_pairs.is_empty(), "at least one cell required");
        Self {
            dist,
            cells: vt0_leff_pairs
                .iter()
                .map(|&(vt0, leff)| CellDevice::new(&device, vt0, leff))
                .collect(),
            device,
        }
    }

    /// The underlying nominal path-delay distribution.
    pub fn distribution(&self) -> PathDistribution {
        self.dist
    }

    /// Replaces the path-delay distribution (used by the tilt/shift
    /// mitigation transforms), keeping the footprint and device physics.
    pub fn with_distribution(&self, dist: PathDistribution) -> Self {
        Self {
            dist,
            cells: self.cells.clone(),
            device: self.device,
        }
    }

    /// Number of grid cells under this subsystem.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Mean reference threshold voltage over the footprint (arithmetic;
    /// see `eval-core`'s tester module for the leakage-based measurement
    /// the manufacturer actually performs, §4.1 of the paper).
    pub fn measured_vt0(&self) -> f64 {
        self.cells.iter().map(|c| c.vt0).sum::<f64>() / self.cells.len() as f64
    }

    /// Per-cell `(Vt0, Leff)` pairs of the footprint, for tester-style
    /// leakage measurements.
    pub fn cell_params(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.cells.iter().map(|c| (c.vt0, c.leff))
    }

    /// The per-query delay terms at `cond`, hoisted out of the cell loops.
    fn delay_terms(&self, cond: &OperatingConditions) -> DelayTerms {
        DelayTerms::new(&self.device, cond.vdd.get(), cond.t_c)
    }

    /// Per-cell delay factor (relative to nominal) at `cond`, given that
    /// query's [`delay_terms`]: `delay_factor` at the cell's local `Vt`,
    /// bit for bit.
    ///
    /// [`delay_terms`]: StageTiming::delay_terms
    fn cell_factor(
        &self,
        terms: &DelayTerms,
        cell: &CellDevice,
        cond: &OperatingConditions,
    ) -> f64 {
        let vt = self
            .device
            .vt_at(cell.vt0, cond.t_c, cond.vdd.get(), cond.vbb.get());
        terms.factor(vt, cell.leff_term)
    }

    /// The largest per-cell delay factor at `cond` (the slowest spot).
    pub fn worst_cell_factor(&self, cond: &OperatingConditions) -> f64 {
        let terms = self.delay_terms(cond);
        self.cells
            .iter()
            .map(|c| self.cell_factor(&terms, c, cond))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Error probability **per access** at frequency `f` under `cond`.
    ///
    /// # Panics
    ///
    /// Panics if `f <= 0` or if `cond.vdd` does not exceed the local
    /// threshold voltage (an invalid operating point).
    pub fn pe_access(&self, f: GHz, cond: &OperatingConditions) -> f64 {
        assert!(f.get() > 0.0, "frequency must be positive");
        let t = f.period_ns();
        let per_cell_paths = self.dist.paths() / self.cells.len() as f64;
        let terms = self.delay_terms(cond);
        let mut log_ok = 0.0f64;
        for cell in &self.cells {
            let kappa = self.cell_factor(&terms, cell, cond);
            let q = self.dist.scaled(kappa).single_path_miss(t);
            if q >= 1.0 {
                return 1.0;
            }
            log_ok += per_cell_paths * (-q).ln_1p();
        }
        -log_ok.exp_m1()
    }

    /// Budget-aware variant of [`pe_access`] for the hot path: evaluates
    /// the same per-cell product but returns early with `None` as soon as
    /// the accumulated error probability already proves
    /// `scale * pe > cap` (the caller's `rho * PE > budget` test). The
    /// partial product is a lower bound on the final `pe` — each cell only
    /// adds error mass — so an early `None` is never wrong.
    ///
    /// When the access is within budget, the returned `Some(pe)` is
    /// bitwise identical to [`pe_access`]'s value: same cells, same
    /// accumulation order, same arithmetic.
    ///
    /// [`pe_access`]: StageTiming::pe_access
    ///
    /// # Panics
    ///
    /// Panics if `f <= 0` or if `cond.vdd` does not exceed the local
    /// threshold voltage (an invalid operating point).
    pub fn pe_access_bounded(
        &self,
        f: GHz,
        cond: &OperatingConditions,
        scale: f64,
        cap: f64,
    ) -> Option<f64> {
        assert!(f.get() > 0.0, "frequency must be positive");
        let t = f.period_ns();
        let per_cell_paths = self.dist.paths() / self.cells.len() as f64;
        let terms = self.delay_terms(cond);
        let mut log_ok = 0.0f64;
        for cell in &self.cells {
            let kappa = self.cell_factor(&terms, cell, cond);
            let q = self.dist.scaled(kappa).single_path_miss(t);
            if q >= 1.0 {
                // `pe_access` returns 1.0 here; mirror its caller's
                // `scale * 1.0 > cap` comparison exactly.
                return if scale > cap { None } else { Some(1.0) };
            }
            log_ok += per_cell_paths * (-q).ln_1p();
            if scale * (-log_ok.exp_m1()) > cap {
                return None;
            }
        }
        let pe = -log_ok.exp_m1();
        if scale * pe > cap {
            None
        } else {
            Some(pe)
        }
    }

    /// Maximum frequency at which the per-access error probability stays at
    /// or below `pe_threshold`, under `cond`. Solved by bisection; `PE` is
    /// monotone in `f`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < pe_threshold < 1`.
    pub fn max_frequency(&self, cond: &OperatingConditions, pe_threshold: f64) -> GHz {
        assert!(
            pe_threshold > 0.0 && pe_threshold < 1.0,
            "threshold must be a probability in (0, 1)"
        );
        let (mut lo, mut hi) = (0.25f64, 40.0f64);
        // Ensure bracketing: at `lo` we expect no errors.
        if self.pe_access(GHz::raw(lo), cond) > pe_threshold {
            return GHz::raw(lo);
        }
        for _ in 0..70 {
            let mid = 0.5 * (lo + hi);
            if self.pe_access(GHz::raw(mid), cond) <= pe_threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        GHz::raw(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{PathClass, SubsystemKind};
    use eval_variation::{delay_factor, ChipGrid, VariationModel, VariationParams};

    fn test_stage(kind: SubsystemKind, seed: u64) -> StageTiming {
        let model = VariationModel::new(ChipGrid::square(8), VariationParams::micro08());
        let chip = model.sample_chip(seed);
        let cells: Vec<usize> = (0..8).collect();
        StageTiming::from_chip(
            &PathClass::for_kind(kind),
            0.25,
            &chip,
            &cells,
            DeviceParams::micro08(),
            12,
        )
    }

    #[test]
    fn bounded_pe_matches_unbounded_classification_and_bits() {
        let stage = test_stage(SubsystemKind::Logic, 7);
        let cond = OperatingConditions {
            vdd: Volts::raw(1.0),
            vbb: Volts::raw(0.0),
            t_c: 65.0,
        };
        let (scale, cap) = (0.6, 1e-4);
        for i in 0..33 {
            let f = GHz::raw(2.4 + 0.1 * i as f64);
            let full = stage.pe_access(f, &cond);
            let bounded = stage.pe_access_bounded(f, &cond, scale, cap);
            if scale * full > cap {
                assert!(bounded.is_none(), "f={f:?}: expected early None");
            } else {
                let pe = bounded.expect("within budget");
                assert_eq!(pe.to_bits(), full.to_bits(), "f={f:?}");
            }
        }
    }

    #[test]
    fn variation_lowers_max_frequency_below_nominal_on_average() {
        let mut below = 0;
        let n = 20;
        for seed in 0..n {
            let stage = test_stage(SubsystemKind::Memory, seed);
            let f = stage.max_frequency(&OperatingConditions::nominal(), 1e-12);
            if f.get() < 4.0 {
                below += 1;
            }
        }
        assert!(
            below > n / 2,
            "most chips should lose frequency to variation ({below}/{n})"
        );
    }

    #[test]
    fn pe_monotone_in_frequency_under_variation() {
        let stage = test_stage(SubsystemKind::Mixed, 3);
        let cond = OperatingConditions::nominal();
        let mut prev = 0.0;
        for k in 0..60 {
            let f = GHz::raw(3.0 + 0.05 * k as f64);
            let pe = stage.pe_access(f, &cond);
            assert!(pe >= prev - 1e-18);
            prev = pe;
        }
    }

    #[test]
    fn higher_vdd_raises_max_frequency() {
        let stage = test_stage(SubsystemKind::Logic, 5);
        let base = stage.max_frequency(&OperatingConditions::nominal(), 1e-12);
        let boosted = stage.max_frequency(
            &OperatingConditions {
                vdd: Volts::raw(1.2),
                ..OperatingConditions::nominal()
            },
            1e-12,
        );
        assert!(boosted.get() > base.get(), "boosted={boosted} base={base}");
    }

    #[test]
    fn forward_body_bias_raises_max_frequency() {
        let stage = test_stage(SubsystemKind::Logic, 5);
        let base = stage.max_frequency(&OperatingConditions::nominal(), 1e-12);
        let fbb = stage.max_frequency(
            &OperatingConditions {
                vbb: Volts::raw(0.5),
                ..OperatingConditions::nominal()
            },
            1e-12,
        );
        assert!(fbb.get() > base.get());
    }

    #[test]
    fn cooler_subsystem_is_faster() {
        let stage = test_stage(SubsystemKind::Mixed, 9);
        let hot = stage.max_frequency(
            &OperatingConditions {
                t_c: 100.0,
                ..OperatingConditions::nominal()
            },
            1e-12,
        );
        let cool = stage.max_frequency(
            &OperatingConditions {
                t_c: 60.0,
                ..OperatingConditions::nominal()
            },
            1e-12,
        );
        assert!(cool.get() > hot.get());
    }

    #[test]
    fn memory_onset_is_sharper_than_logic() {
        // Measure the frequency span between PE = 1e-8 and PE = 1e-2 per
        // access; memory should cross it in a narrower relative band.
        let cond = OperatingConditions::nominal();
        let span = |stage: &StageTiming| {
            let f_lo = stage.max_frequency(&cond, 1e-8).get();
            let f_hi = stage.max_frequency(&cond, 1e-2).get();
            (f_hi - f_lo) / f_lo
        };
        let mem = span(&test_stage(SubsystemKind::Memory, 11));
        let logic = span(&test_stage(SubsystemKind::Logic, 11));
        assert!(
            mem < logic,
            "memory span {mem} should be narrower than logic span {logic}"
        );
    }

    /// The per-cell error-rate product evaluated with one `delay_factor`
    /// call per cell and nothing hoisted: the oracle for the hoisted
    /// evaluation in `StageTiming`.
    fn pe_per_cell_delay_factor(
        dist: PathDistribution,
        device: &DeviceParams,
        cells: &[(f64, f64)],
        f: GHz,
        cond: &OperatingConditions,
    ) -> f64 {
        let t = f.period_ns();
        let per_cell_paths = dist.paths() / cells.len() as f64;
        let mut log_ok = 0.0f64;
        for &(vt0, leff) in cells {
            let vt = device.vt_at(vt0, cond.t_c, cond.vdd.get(), cond.vbb.get());
            let kappa = delay_factor(device, vt, leff, cond.vdd.get(), cond.t_c);
            let q = dist.scaled(kappa).single_path_miss(t);
            if q >= 1.0 {
                return 1.0;
            }
            log_ok += per_cell_paths * (-q).ln_1p();
        }
        -log_ok.exp_m1()
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn prop_hoisted_cell_terms_match_delay_factor_bitwise(
                n_cells in 1usize..13,
                vt0s in proptest::collection::vec(0.15f64..0.35, 12),
                leffs in proptest::collection::vec(0.85f64..1.15, 12),
                vdd in 0.8f64..1.2,
                vbb in -0.5f64..0.5,
                t_c in 30.0f64..120.0,
                f_ghz in 2.0f64..6.5,
                log_cap in -12.0f64..-1.0,
            ) {
                let device = DeviceParams::micro08();
                let cells: Vec<(f64, f64)> = vt0s
                    .iter()
                    .zip(&leffs)
                    .take(n_cells)
                    .map(|(&vt0, &leff)| (vt0, leff))
                    .collect();
                let dist = PathClass::for_kind(SubsystemKind::Logic)
                    .nominal_distribution(0.25)
                    .widened(0.03);
                let stage = StageTiming::from_parts(dist, &cells, device);
                let cond = OperatingConditions {
                    vdd: Volts::raw(vdd),
                    vbb: Volts::raw(vbb),
                    t_c,
                };
                let terms = stage.delay_terms(&cond);
                let mut worst = f64::NEG_INFINITY;
                for (cell, &(vt0, leff)) in stage.cells.iter().zip(&cells) {
                    let vt = device.vt_at(vt0, t_c, vdd, vbb);
                    let reference = delay_factor(&device, vt, leff, vdd, t_c);
                    let hoisted = stage.cell_factor(&terms, cell, &cond);
                    prop_assert_eq!(hoisted.to_bits(), reference.to_bits());
                    worst = worst.max(reference);
                }
                prop_assert_eq!(stage.worst_cell_factor(&cond).to_bits(), worst.to_bits());

                let f = GHz::raw(f_ghz);
                let pe = pe_per_cell_delay_factor(dist, &device, &cells, f, &cond);
                prop_assert_eq!(stage.pe_access(f, &cond).to_bits(), pe.to_bits());
                let (scale, cap) = (0.6, 10f64.powf(log_cap));
                let bounded = stage.pe_access_bounded(f, &cond, scale, cap);
                if scale * pe > cap {
                    prop_assert!(bounded.is_none(), "expected None, reference pe {}", pe);
                } else {
                    prop_assert_eq!(bounded.map(f64::to_bits), Some(pe.to_bits()));
                }
            }
        }
    }

    #[test]
    fn measured_vt0_tracks_footprint_mean() {
        let stage = test_stage(SubsystemKind::Memory, 2);
        let vt0 = stage.measured_vt0();
        assert!(vt0 > 0.05 && vt0 < 0.30, "vt0={vt0}");
    }
}
