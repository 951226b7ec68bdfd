//! Discrete actuator ladders (Figure 7(a) of the paper).
//!
//! "f: from 2.4 GHz to over 4 GHz in 100 MHz steps; ASV: from 800 mV to
//! 1200 mV in 50 mV steps; ABB: from −500 mV to 500 mV in 50 mV steps."
//! The frequency ladder's ceiling is set comfortably above 4 GHz (5.6 GHz)
//! so adaptation can exploit chips whose critical subsystems end up fast.

/// An inclusive arithmetic ladder of actuator settings.
///
/// # Example
///
/// ```
/// use eval_power::FREQ_LADDER;
/// assert_eq!(FREQ_LADDER.len(), 33);               // 2.4..=5.6 GHz
/// assert!((FREQ_LADDER.nearest(4.27) - 4.3).abs() < 1e-9);
/// assert!((FREQ_LADDER.step_by(4.0, -2) - 3.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ladder {
    /// Smallest setting.
    pub min: f64,
    /// Largest setting.
    pub max: f64,
    /// Step between adjacent settings.
    pub step: f64,
}

/// Core-frequency ladder: 2.4 GHz .. 5.6 GHz in 100 MHz steps.
pub const FREQ_LADDER: Ladder = Ladder {
    min: 2.4,
    max: 5.6,
    step: 0.1,
};

/// ASV ladder: 800 mV .. 1200 mV in 50 mV steps.
pub const VDD_LADDER: Ladder = Ladder {
    min: 0.80,
    max: 1.20,
    step: 0.05,
};

/// ABB ladder: −500 mV .. +500 mV in 50 mV steps.
pub const VBB_LADDER: Ladder = Ladder {
    min: -0.50,
    max: 0.50,
    step: 0.05,
};

impl Ladder {
    /// Number of settings on the ladder.
    pub fn len(&self) -> usize {
        ((self.max - self.min) / self.step).round() as usize + 1
    }

    /// Whether the ladder has no settings (never true for valid ladders).
    pub fn is_empty(&self) -> bool {
        self.max < self.min
    }

    /// The `i`-th setting (0 = `min`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn at(&self, i: usize) -> f64 {
        assert!(i < self.len(), "ladder index {i} out of range {}", self.len());
        self.min + i as f64 * self.step
    }

    /// Iterates over all settings, smallest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.at(i))
    }

    /// The closest ladder setting at or below `x` (clamped to `min`).
    pub fn floor(&self, x: f64) -> f64 {
        if x <= self.min {
            return self.min;
        }
        if x >= self.max {
            return self.max;
        }
        let steps = ((x - self.min) / self.step + 1e-9).floor();
        self.min + steps * self.step
    }

    /// The ladder setting nearest to `x` (clamped to the range; NaN maps
    /// to `min`, the most conservative setting).
    pub fn nearest(&self, x: f64) -> f64 {
        if x <= self.min || x.is_nan() {
            return self.min;
        }
        if x >= self.max {
            return self.max;
        }
        let steps = ((x - self.min) / self.step).round();
        self.min + steps * self.step
    }

    /// Moves `x` by `delta_steps` ladder steps, clamped to the range.
    pub fn step_by(&self, x: f64, delta_steps: i64) -> f64 {
        let moved = x + delta_steps as f64 * self.step;
        moved.clamp(self.min, self.max)
    }

    /// Whether `x` lies on the ladder (within floating tolerance).
    pub fn contains(&self, x: f64) -> bool {
        if x < self.min - 1e-9 || x > self.max + 1e-9 {
            return false;
        }
        let steps = (x - self.min) / self.step;
        (steps - steps.round()).abs() < 1e-6
    }

    /// The ladder index of `x`, if `x` is (within floating tolerance) a
    /// ladder setting. The hot-path cache uses this to key solves by
    /// discrete ladder position instead of by raw floating value.
    pub fn index_of(&self, x: f64) -> Option<usize> {
        let steps = (x - self.min) / self.step;
        let rounded = steps.round();
        if (steps - rounded).abs() >= 1e-6 {
            return None;
        }
        if rounded < -0.5 || rounded as usize >= self.len() {
            return None;
        }
        Some(rounded as usize)
    }
}

/// Materializes a ladder into a `'static` slice exactly once (one small,
/// intentional leak per ladder for the lifetime of the process).
fn materialize(cell: &std::sync::OnceLock<&'static [f64]>, ladder: &Ladder) -> &'static [f64] {
    cell.get_or_init(|| Box::leak(ladder.iter().collect::<Vec<f64>>().into_boxed_slice()))
}

/// All [`FREQ_LADDER`] settings as a `'static` slice (materialized once).
pub fn freq_steps() -> &'static [f64] {
    static CELL: std::sync::OnceLock<&'static [f64]> = std::sync::OnceLock::new();
    materialize(&CELL, &FREQ_LADDER)
}

/// All [`VDD_LADDER`] settings as a `'static` slice (materialized once).
pub fn vdd_steps() -> &'static [f64] {
    static CELL: std::sync::OnceLock<&'static [f64]> = std::sync::OnceLock::new();
    materialize(&CELL, &VDD_LADDER)
}

/// All [`VBB_LADDER`] settings as a `'static` slice (materialized once).
pub fn vbb_steps() -> &'static [f64] {
    static CELL: std::sync::OnceLock<&'static [f64]> = std::sync::OnceLock::new();
    materialize(&CELL, &VBB_LADDER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_ladder_has_100mhz_steps() {
        assert_eq!(FREQ_LADDER.len(), 33);
        assert!((FREQ_LADDER.at(1) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn vdd_ladder_matches_paper() {
        assert_eq!(VDD_LADDER.len(), 9);
        assert!((VDD_LADDER.at(0) - 0.80).abs() < 1e-12);
        assert!((VDD_LADDER.at(8) - 1.20).abs() < 1e-12);
    }

    #[test]
    fn vbb_ladder_spans_both_bias_directions() {
        assert_eq!(VBB_LADDER.len(), 21);
        assert!(VBB_LADDER.contains(0.0));
        assert!(VBB_LADDER.contains(-0.5));
        assert!(VBB_LADDER.contains(0.5));
    }

    #[test]
    fn floor_and_nearest_round_correctly() {
        assert!((FREQ_LADDER.floor(4.27) - 4.2).abs() < 1e-9);
        assert!((FREQ_LADDER.nearest(4.27) - 4.3).abs() < 1e-9);
        assert!((FREQ_LADDER.floor(1.0) - 2.4).abs() < 1e-12);
        assert!((FREQ_LADDER.nearest(9.0) - 5.6).abs() < 1e-12);
        assert_eq!(FREQ_LADDER.nearest(f64::NAN), FREQ_LADDER.min);
    }

    #[test]
    fn step_by_clamps() {
        assert!((FREQ_LADDER.step_by(2.5, -8) - 2.4).abs() < 1e-12);
        assert!((FREQ_LADDER.step_by(4.0, 2) - 4.2).abs() < 1e-12);
    }

    #[test]
    fn index_of_round_trips_every_setting() {
        for ladder in [FREQ_LADDER, VDD_LADDER, VBB_LADDER] {
            for i in 0..ladder.len() {
                assert_eq!(ladder.index_of(ladder.at(i)), Some(i));
            }
            assert_eq!(ladder.index_of(ladder.min - ladder.step), None);
            assert_eq!(ladder.index_of(ladder.max + ladder.step), None);
            assert_eq!(ladder.index_of(ladder.min + 0.4 * ladder.step), None);
        }
    }

    #[test]
    fn static_steps_match_the_ladders() {
        assert_eq!(freq_steps().len(), FREQ_LADDER.len());
        assert_eq!(vdd_steps().len(), VDD_LADDER.len());
        assert_eq!(vbb_steps().len(), VBB_LADDER.len());
        for (i, &f) in freq_steps().iter().enumerate() {
            assert_eq!(f, FREQ_LADDER.at(i));
        }
        for (i, &v) in vdd_steps().iter().enumerate() {
            assert_eq!(v, VDD_LADDER.at(i));
        }
        for (i, &v) in vbb_steps().iter().enumerate() {
            assert_eq!(v, VBB_LADDER.at(i));
        }
        // Repeated calls hand back the very same slice.
        assert!(std::ptr::eq(freq_steps(), freq_steps()));
    }

    #[test]
    fn iter_is_sorted_and_on_ladder() {
        let mut prev = f64::NEG_INFINITY;
        for v in VDD_LADDER.iter() {
            assert!(v > prev);
            assert!(VDD_LADDER.contains(v));
            prev = v;
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `nearest` returns an on-ladder value no farther than half a step.
        #[test]
        fn prop_nearest_is_closest(x in 0.0f64..8.0) {
            for ladder in [FREQ_LADDER, VDD_LADDER, VBB_LADDER] {
                let n = ladder.nearest(x);
                prop_assert!(ladder.contains(n));
                let clamped = x.clamp(ladder.min, ladder.max);
                prop_assert!((n - clamped).abs() <= ladder.step / 2.0 + 1e-9);
            }
        }

        /// `floor` never exceeds the input (when in range) and is on-ladder.
        #[test]
        fn prop_floor_is_lower_bound(x in 0.0f64..8.0) {
            for ladder in [FREQ_LADDER, VDD_LADDER, VBB_LADDER] {
                let f = ladder.floor(x);
                prop_assert!(ladder.contains(f));
                if x >= ladder.min {
                    prop_assert!(f <= x + 1e-9);
                }
            }
        }

        /// Stepping is clamped and lands on the ladder.
        #[test]
        fn prop_step_by_stays_on_ladder(idx in 0usize..33, steps in -40i64..40) {
            let x = FREQ_LADDER.at(idx.min(FREQ_LADDER.len() - 1));
            let y = FREQ_LADDER.step_by(x, steps);
            prop_assert!(FREQ_LADDER.contains(y));
        }
    }
}
