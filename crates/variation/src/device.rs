//! Alpha-power-law device equations (Equations 1–2 of the EVAL paper).
//!
//! Gate delay:    `Tg  ∝ Vdd * Leff / (mu(T) * (Vdd - Vt)^alpha)`
//! Leakage power: `Psta ∝ Vdd * T^2 * exp(-q Vt / k T)`
//!
//! Everything here is expressed as a *factor relative to nominal conditions*
//! so that callers can scale a nominal path delay (or leakage budget) by the
//! local process, voltage and temperature state.

/// `q/k` in kelvin per volt (electron charge over Boltzmann constant).
pub const Q_OVER_K: f64 = 11_604.518;

/// Celsius-to-kelvin offset.
pub const KELVIN: f64 = 273.15;

/// Device-physics constants shared by the whole chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Velocity-saturation exponent of the alpha-power law (~1.3 at 45 nm).
    pub alpha: f64,
    /// Mobility temperature exponent: `mu(T) ∝ T^-mu_exp` (~1.5).
    pub mu_exp: f64,
    /// Nominal supply voltage in volts.
    pub vdd_nominal: f64,
    /// Nominal threshold voltage in volts at `t_ref_c`.
    pub vt_nominal: f64,
    /// Nominal effective channel length (normalized; 1.0 = nominal).
    pub leff_nominal: f64,
    /// Reference temperature in Celsius at which `Vt` maps are expressed.
    pub t_ref_c: f64,
    /// Vt sensitivity to temperature in V/K (negative: Vt drops when hot).
    pub k1_vt_per_kelvin: f64,
    /// Vt sensitivity to supply voltage (DIBL; negative).
    pub k2_vt_per_vdd: f64,
    /// Vt sensitivity to body bias (negative: forward bias lowers Vt).
    pub k3_vt_per_vbb: f64,
    /// Leakage subthreshold-slope factor: effective `n * kT/q` divisor is
    /// captured by dividing `Vt` by `n_sub` in the exponent.
    pub n_sub: f64,
    /// Delay exponent of the channel length: `Tg ∝ Leff^leff_exp`. Above
    /// 1.0 because a longer channel both weakens drive current and raises
    /// gate capacitance.
    pub leff_exp: f64,
}

impl DeviceParams {
    /// Constants matching the EVAL evaluation setup (45 nm, 1 V, Vt = 150 mV
    /// at 100 C).
    pub fn micro08() -> Self {
        Self {
            alpha: 1.5,
            mu_exp: 1.5,
            vdd_nominal: 1.0,
            vt_nominal: 0.250,
            leff_nominal: 1.0,
            t_ref_c: 100.0,
            k1_vt_per_kelvin: -0.9e-3,
            k2_vt_per_vdd: -0.05,
            k3_vt_per_vbb: -0.15,
            n_sub: 1.8,
            leff_exp: 1.7,
        }
    }

    /// Threshold voltage at operating conditions, from its reference value
    /// `vt0` (measured at `t_ref_c`, nominal Vdd, zero body bias).
    ///
    /// Implements Equation 9 of the paper in delta form:
    /// `Vt = Vt0 + k1 (T - T0) + k2 (Vdd - Vdd0) + k3 Vbb`.
    pub fn vt_at(&self, vt0: f64, t_c: f64, vdd: f64, vbb: f64) -> f64 {
        vt0 + self.k1_vt_per_kelvin * (t_c - self.t_ref_c)
            + self.k2_vt_per_vdd * (vdd - self.vdd_nominal)
            + self.k3_vt_per_vbb * vbb
    }
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self::micro08()
    }
}

/// Relative gate-delay factor: 1.0 at nominal `(Vt, Leff, Vdd, T)`.
///
/// `vt` and `leff` are the *local* values (already including variation and
/// any body-bias/temperature adjustment); `vdd` is the local supply;
/// `t_c` the local temperature in Celsius.
///
/// # Panics
///
/// Panics if the device would not switch (`vdd <= vt`), which indicates the
/// caller is exploring an invalid operating point and should have rejected
/// it earlier.
///
/// # Example
///
/// ```
/// use eval_variation::{delay_factor, DeviceParams};
/// let p = DeviceParams::micro08();
/// let nominal = delay_factor(&p, p.vt_nominal, 1.0, p.vdd_nominal, p.t_ref_c);
/// assert!((nominal - 1.0).abs() < 1e-12);
/// // Higher Vt -> slower gate.
/// assert!(delay_factor(&p, p.vt_nominal + 0.05, 1.0, 1.0, 100.0) > 1.0);
/// // Higher Vdd -> faster gate.
/// assert!(delay_factor(&p, p.vt_nominal, 1.0, 1.1, 100.0) < 1.0);
/// ```
pub fn delay_factor(p: &DeviceParams, vt: f64, leff: f64, vdd: f64, t_c: f64) -> f64 {
    DelayTerms::new(p, vdd, t_c).factor(vt, leff_delay_term(p, leff))
}

/// The channel-length term of [`delay_factor`], `(Leff / Leff0)^leff_exp`.
/// It depends on the cell alone, so a timing model computes it once per
/// grid cell instead of once per query.
pub fn leff_delay_term(p: &DeviceParams, leff: f64) -> f64 {
    (leff / p.leff_nominal).powf(p.leff_exp)
}

/// The terms of [`delay_factor`] fixed by one query's supply and
/// temperature: `Vdd / Vdd0`, the mobility factor and the nominal
/// overdrive. Built once per query, they leave one `powf` per cell.
/// [`DelayTerms::factor`] multiplies the terms in [`delay_factor`]'s
/// order, so the hoisted evaluation is the same value bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayTerms {
    vdd: f64,
    alpha: f64,
    vdd_ratio: f64,
    mobility: f64,
    overdrive_nom: f64,
}

impl DelayTerms {
    /// Hoists the per-query terms at supply `vdd` and temperature `t_c`.
    pub fn new(p: &DeviceParams, vdd: f64, t_c: f64) -> Self {
        let t_k = t_c + KELVIN;
        let t_ref_k = p.t_ref_c + KELVIN;
        // mu(T) ~ T^-mu_exp, so delay ~ T^mu_exp.
        Self {
            vdd,
            alpha: p.alpha,
            vdd_ratio: vdd / p.vdd_nominal,
            mobility: (t_k / t_ref_k).powf(p.mu_exp),
            overdrive_nom: (p.vdd_nominal - p.vt_nominal).powf(p.alpha),
        }
    }

    /// The delay factor of a cell with local threshold `vt` and channel
    /// term `leff_term` (see [`leff_delay_term`]).
    ///
    /// # Panics
    ///
    /// Panics if the device would not switch (`vdd <= vt`), as
    /// [`delay_factor`] does.
    pub fn factor(&self, vt: f64, leff_term: f64) -> f64 {
        let vdd = self.vdd;
        assert!(
            vdd > vt,
            "supply voltage {vdd} V must exceed threshold {vt} V"
        );
        let overdrive = (vdd - vt).powf(self.alpha);
        self.vdd_ratio * leff_term * self.mobility * (self.overdrive_nom / overdrive)
    }
}

/// Relative subthreshold-leakage factor: 1.0 at nominal `(Vt, Vdd, T)`.
///
/// # Example
///
/// ```
/// use eval_variation::{leakage_factor, DeviceParams};
/// let p = DeviceParams::micro08();
/// let nominal = leakage_factor(&p, p.vt_nominal, p.vdd_nominal, p.t_ref_c);
/// assert!((nominal - 1.0).abs() < 1e-12);
/// // Lower Vt -> exponentially more leakage.
/// assert!(leakage_factor(&p, p.vt_nominal - 0.08, 1.0, 100.0) > 2.0);
/// // Hotter -> more leakage.
/// assert!(leakage_factor(&p, p.vt_nominal, 1.0, 120.0) > 1.0);
/// ```
pub fn leakage_factor(p: &DeviceParams, vt: f64, vdd: f64, t_c: f64) -> f64 {
    let t_k = t_c + KELVIN;
    let t_ref_k = p.t_ref_c + KELVIN;
    let expo = -Q_OVER_K * vt / (p.n_sub * t_k);
    let expo_nom = -Q_OVER_K * p.vt_nominal / (p.n_sub * t_ref_k);
    (vdd / p.vdd_nominal) * (t_k / t_ref_k).powi(2) * (expo - expo_nom).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_increases_with_leff() {
        let p = DeviceParams::micro08();
        assert!(
            delay_factor(&p, 0.15, 1.05, 1.0, 100.0) > delay_factor(&p, 0.15, 1.0, 1.0, 100.0)
        );
    }

    #[test]
    fn delay_increases_with_temperature() {
        let p = DeviceParams::micro08();
        assert!(delay_factor(&p, 0.15, 1.0, 1.0, 120.0) > delay_factor(&p, 0.15, 1.0, 1.0, 80.0));
    }

    #[test]
    fn asv_speedup_magnitude_is_plausible() {
        // +100 mV of supply speeds gates up by ~8-12% at this design point
        // (d ln Tg / d Vdd = 1/Vdd - alpha/(Vdd - Vt)).
        let p = DeviceParams::micro08();
        let f = delay_factor(&p, p.vt_nominal, 1.0, 1.1, 100.0);
        assert!(f < 0.96 && f > 0.85, "delay factor at 1.1 V was {f}");
    }

    #[test]
    fn fbb_lowers_vt_and_speeds_up() {
        let p = DeviceParams::micro08();
        let vt_fbb = p.vt_at(p.vt_nominal, 100.0, 1.0, 0.5);
        assert!(vt_fbb < p.vt_nominal);
        assert!(delay_factor(&p, vt_fbb, 1.0, 1.0, 100.0) < 1.0);
    }

    #[test]
    fn rbb_raises_vt_and_cuts_leakage() {
        let p = DeviceParams::micro08();
        let vt_rbb = p.vt_at(p.vt_nominal, 100.0, 1.0, -0.5);
        assert!(vt_rbb > p.vt_nominal);
        assert!(leakage_factor(&p, vt_rbb, 1.0, 100.0) < 1.0);
    }

    #[test]
    fn leakage_sigma_vt_spread_is_large() {
        // A -3 sigma Vt cell (3 sigma ~ 40 mV lower) should leak
        // noticeably more, and a +3 sigma cell noticeably less.
        let p = DeviceParams::micro08();
        let lo = leakage_factor(&p, p.vt_nominal - 0.0405, 1.0, 100.0);
        let hi = leakage_factor(&p, p.vt_nominal + 0.0405, 1.0, 100.0);
        assert!(lo > 1.5 && hi < 0.7, "lo={lo} hi={hi}");
    }

    proptest::proptest! {
        #[test]
        fn prop_delay_factor_matches_its_closed_form_bitwise(
            vt in 0.05f64..0.6,
            leff in 0.8f64..1.2,
            vdd in 0.8f64..1.2,
            t_c in 20.0f64..130.0,
        ) {
            // The alpha-power law written out in one expression, with the
            // terms multiplied in the documented order.
            let p = DeviceParams::micro08();
            let closed_form = (vdd / p.vdd_nominal)
                * (leff / p.leff_nominal).powf(p.leff_exp)
                * ((t_c + KELVIN) / (p.t_ref_c + KELVIN)).powf(p.mu_exp)
                * ((p.vdd_nominal - p.vt_nominal).powf(p.alpha) / (vdd - vt).powf(p.alpha));
            let hoisted = DelayTerms::new(&p, vdd, t_c).factor(vt, leff_delay_term(&p, leff));
            proptest::prop_assert_eq!(delay_factor(&p, vt, leff, vdd, t_c).to_bits(), closed_form.to_bits());
            proptest::prop_assert_eq!(hoisted.to_bits(), closed_form.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "must exceed threshold")]
    fn delay_rejects_subthreshold_operation() {
        let p = DeviceParams::micro08();
        delay_factor(&p, 0.9, 1.0, 0.8, 100.0);
    }
}
