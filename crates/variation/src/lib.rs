//! # eval-variation
//!
//! Within-die (WID) process-variation maps in the style of VARIUS
//! (Sarangi et al., *IEEE Trans. on Semiconductor Manufacturing*, 2008),
//! which is the model used by the EVAL paper (MICRO 2008) — see §2.1 there.
//!
//! Two process parameters are modeled: the threshold voltage `Vt` and the
//! effective channel length `Leff`. Each has a **systematic** component —
//! a multivariate-normal random field over a chip grid with a spherical
//! spatial-correlation function of range `phi` — and a **random**
//! per-transistor component added analytically.
//!
//! The crate also provides the alpha-power-law device equations that turn
//! `(Vt, Leff, Vdd, T)` into relative gate delay and leakage factors
//! (Equations 1–2 of the paper).
//!
//! ## Example
//!
//! ```
//! use eval_variation::{VariationParams, VariationModel, ChipGrid};
//!
//! let grid = ChipGrid::square(16);
//! let params = VariationParams::micro08();
//! let model = VariationModel::new(grid, params);
//! let chip = model.sample_chip(7);
//! // Systematic Vt is a field around the nominal mean:
//! let mean_vt = chip.vt.mean();
//! assert!((mean_vt - params.vt_mean).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod device;
pub mod gaussian;
pub mod grid;
pub mod linalg;
pub mod maps;
pub mod population;

pub use correlation::spherical_correlation;
pub use device::{delay_factor, leakage_factor, leff_delay_term, DelayTerms, DeviceParams};
pub use gaussian::{erfc, inverse_normal_cdf, inverse_normal_tail, normal_cdf, normal_tail};
pub use grid::ChipGrid;
pub use linalg::{CholeskyError, LowerTriangular, Matrix};
pub use maps::{ChipMap, ScalarField, VariationModel, VariationParams};
pub use population::ChipPopulation;
