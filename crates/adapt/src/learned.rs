//! Trained per-phase controllers: every model fitted against the
//! exhaustive teacher, deployed and persisted through one type.
//!
//! Four model families implement [`PhaseModel`] (inference and
//! persistence):
//!
//! * [`FuzzyController`] — the paper's fuzzy controller (§4.3.1),
//!   trained under its [`TrainingConfig`](eval_fuzzy::TrainingConfig)
//!   by [`FuzzyOptimizer::train`](crate::FuzzyOptimizer);
//! * [`NnTable`] — a nearest-neighbor table over the normalized teacher
//!   examples (no training beyond memorization; inference is a scan);
//! * [`RegressionTree`] — a small greedy variance-reduction tree
//!   (branchy integer-comparison inference, no floating multiply);
//! * [`MlpQ16`] — a one-hidden-layer perceptron trained in `f64` and
//!   quantized to `i32` Q16.16 fixed point, so deployed inference is
//!   integer-only and bitwise reproducible on any host.
//!
//! The last three also implement [`SeededModel`] (fitted from examples
//! and a seed alone). A [`LearnedBank`] pairs each model with the
//! [`Normalizer`] it was trained under (one bank per (subsystem,
//! variant)), and [`LearnedOptimizer`] assembles banks into a deployable
//! [`Optimizer`]. Every format is built from the shared
//! [`eval_fuzzy::persist`] codec, and a whole optimizer fingerprints via
//! FNV-1a for provenance.

use eval_core::{Environment, EvalConfig, FREQ_LADDER, VBB_LADDER, VDD_LADDER};
use eval_fuzzy::persist::{
    content_lines, dump_floats, dump_ints, expect_header, next_line, parse_row, read_dims,
    read_row, read_rows,
};
use eval_fuzzy::{FuzzyController, Normalizer, PersistError};
use eval_rng::ChaCha12Rng;
use eval_trace::provenance::{fnv1a64, hex64};

use crate::optimizer::{Optimizer, SubsystemScene};
use crate::teacher::{self, TeacherExamples};

/// A deployable, persistable regression model over normalized inputs:
/// the inference and persistence half of a trained controller. Models
/// map the unit cube to a normalized output in `[0, 1]`-ish range; the
/// surrounding [`LearnedBank`] owns denormalization. How a model is
/// fitted is not part of this trait: the learned families implement
/// [`SeededModel`], and the fuzzy controller trains under its own
/// [`TrainingConfig`](eval_fuzzy::TrainingConfig).
pub trait PhaseModel: std::fmt::Debug + Clone + PartialEq + Send + Sync + Sized {
    /// Stable scheme label (`fuzzy`, `nn-table`, `tree`, `mlp`): used
    /// for the optimizer name, the persist header, and trace scheme
    /// rollups.
    const KIND: &'static str;

    /// Predicts the normalized output for a normalized input.
    fn infer_norm(&self, x: &[f64]) -> f64;

    /// Serializes to the model's versioned text format.
    fn to_text(&self) -> String;

    /// Parses the model's versioned text format.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input.
    fn from_text(text: &str) -> Result<Self, PersistError>;
}

/// A [`PhaseModel`] fitted from normalized examples and a seed alone.
pub trait SeededModel: PhaseModel {
    /// Fits the model to normalized `(input, target)` examples.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or dimensions are inconsistent.
    fn train(examples: &[(Vec<f64>, f64)], seed: u64) -> Self;
}

impl PhaseModel for FuzzyController {
    const KIND: &'static str = "fuzzy";

    fn infer_norm(&self, x: &[f64]) -> f64 {
        self.infer(x)
    }

    fn to_text(&self) -> String {
        FuzzyController::to_text(self)
    }

    fn from_text(text: &str) -> Result<Self, PersistError> {
        FuzzyController::from_text(text)
    }
}

// ---------------------------------------------------------------------
// Nearest-neighbor table
// ---------------------------------------------------------------------

/// The teacher's examples, memorized: inference returns the target of
/// the closest stored input by squared Euclidean distance (ties go to
/// the lowest row index, so inference is fully deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct NnTable {
    dim: usize,
    /// Row-major `rows × dim` inputs.
    points: Vec<f64>,
    outputs: Vec<f64>,
}

impl SeededModel for NnTable {
    fn train(examples: &[(Vec<f64>, f64)], _seed: u64) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        let dim = examples[0].0.len();
        let mut points = Vec::with_capacity(examples.len() * dim);
        let mut outputs = Vec::with_capacity(examples.len());
        for (x, t) in examples {
            assert_eq!(x.len(), dim, "inconsistent example dimensions");
            points.extend_from_slice(x);
            outputs.push(*t);
        }
        Self { dim, points, outputs }
    }
}

impl PhaseModel for NnTable {
    const KIND: &'static str = "nn-table";

    fn infer_norm(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let mut best = f64::INFINITY;
        let mut best_row = 0;
        for (row, p) in self.points.chunks_exact(self.dim).enumerate() {
            let d2: f64 = p.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
            if d2 < best {
                best = d2;
                best_row = row;
            }
        }
        self.outputs[best_row]
    }

    fn to_text(&self) -> String {
        let n = self.outputs.len();
        let m = self.dim;
        let mut out = String::with_capacity(48 + n * (m + 1) * 26);
        out.push_str("nn-table v1\n");
        out.push_str(&format!("rows {n} inputs {m}\n"));
        for row in self.points.chunks_exact(m) {
            dump_floats(&mut out, "x", row);
        }
        dump_floats(&mut out, "y", &self.outputs);
        out
    }

    fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut lines = content_lines(text);
        expect_header(&mut lines, "nn-table v1")?;
        let [n, m] = read_dims(&mut lines, ["rows", "inputs"])?;
        let points = read_rows(&mut lines, "x", n, m)?;
        let outputs = read_row(&mut lines, "y", n)?;
        Ok(Self {
            dim: m,
            points,
            outputs,
        })
    }
}

// ---------------------------------------------------------------------
// Regression tree
// ---------------------------------------------------------------------

/// One node of a [`RegressionTree`], stored in a flat arena.
#[derive(Debug, Clone, PartialEq)]
enum TreeNode {
    /// `x[feature] <= threshold` goes left, else right.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f64,
    },
}

/// A small greedy regression tree: splits minimize the summed squared
/// error of the two children, features scanned in index order and
/// strict improvement required, so construction is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    dim: usize,
    nodes: Vec<TreeNode>,
}

const TREE_MAX_DEPTH: usize = 6;
const TREE_MIN_LEAF: usize = 4;

impl RegressionTree {
    fn grow(
        nodes: &mut Vec<TreeNode>,
        examples: &[(Vec<f64>, f64)],
        indices: &[usize],
        depth: usize,
    ) -> usize {
        let n = indices.len();
        let mean = indices.iter().map(|&i| examples[i].1).sum::<f64>() / n as f64;
        if depth >= TREE_MAX_DEPTH || n < 2 * TREE_MIN_LEAF {
            nodes.push(TreeNode::Leaf { value: mean });
            return nodes.len() - 1;
        }
        let dim = examples[0].0.len();
        let mut best: Option<(f64, usize, f64, usize)> = None; // (sse, feature, threshold, left_count_in_sorted)
        let mut sorted: Vec<usize> = indices.to_vec();
        for feature in 0..dim {
            // Sort by (value, index) so equal feature values order
            // deterministically.
            sorted.sort_by(|&a, &b| {
                examples[a].0[feature]
                    .total_cmp(&examples[b].0[feature])
                    .then(a.cmp(&b))
            });
            let mut sum_l = 0.0f64;
            let mut sumsq_l = 0.0f64;
            let total: f64 = sorted.iter().map(|&i| examples[i].1).sum();
            let totalsq: f64 = sorted.iter().map(|&i| examples[i].1 * examples[i].1).sum();
            for p in 1..n {
                let t = examples[sorted[p - 1]].1;
                sum_l += t;
                sumsq_l += t * t;
                if p < TREE_MIN_LEAF || n - p < TREE_MIN_LEAF {
                    continue;
                }
                let v_lo = examples[sorted[p - 1]].0[feature];
                let v_hi = examples[sorted[p]].0[feature];
                if v_lo >= v_hi {
                    continue; // no strict boundary: threshold would be ambiguous
                }
                let nl = p as f64;
                let nr = (n - p) as f64;
                let sum_r = total - sum_l;
                let sumsq_r = totalsq - sumsq_l;
                let sse = (sumsq_l - sum_l * sum_l / nl) + (sumsq_r - sum_r * sum_r / nr);
                if best.is_none_or(|(b, _, _, _)| sse < b) {
                    best = Some((sse, feature, (v_lo + v_hi) / 2.0, p));
                }
            }
        }
        let Some((_, feature, threshold, _)) = best else {
            nodes.push(TreeNode::Leaf { value: mean });
            return nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .copied()
            .partition(|&i| examples[i].0[feature] <= threshold);
        // Reserve the split slot before recursing so node 0 is the root.
        let slot = nodes.len();
        nodes.push(TreeNode::Leaf { value: mean });
        let left = Self::grow(nodes, examples, &left_idx, depth + 1);
        let right = Self::grow(nodes, examples, &right_idx, depth + 1);
        nodes[slot] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }
}

impl SeededModel for RegressionTree {
    fn train(examples: &[(Vec<f64>, f64)], _seed: u64) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        let dim = examples[0].0.len();
        for (x, _) in examples {
            assert_eq!(x.len(), dim, "inconsistent example dimensions");
        }
        let indices: Vec<usize> = (0..examples.len()).collect();
        let mut nodes = Vec::new();
        Self::grow(&mut nodes, examples, &indices, 0);
        Self { dim, nodes }
    }
}

/// A node link or feature index in a serialized tree.
fn parse_index(token: Option<&str>) -> Result<usize, PersistError> {
    token
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or(PersistError::BadDimensions)
}

impl PhaseModel for RegressionTree {
    const KIND: &'static str = "tree";

    fn infer_norm(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "input dimension mismatch");
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    fn to_text(&self) -> String {
        let mut out = String::with_capacity(48 + self.nodes.len() * 40);
        out.push_str("tree v1\n");
        out.push_str(&format!("nodes {} inputs {}\n", self.nodes.len(), self.dim));
        for node in &self.nodes {
            match node {
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => out.push_str(&format!("split {feature} {threshold:e} {left} {right}\n")),
                TreeNode::Leaf { value } => out.push_str(&format!("leaf {value:e}\n")),
            }
        }
        out
    }

    fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut lines = content_lines(text);
        expect_header(&mut lines, "tree v1")?;
        let [n, m] = read_dims(&mut lines, ["nodes", "inputs"])?;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let line = next_line(&mut lines, "node")?;
            let mut tok = line.split_whitespace();
            match tok.next() {
                Some("split") => {
                    let feature = parse_index(tok.next())?;
                    let threshold = parse_row(tok.next().unwrap_or(""), 1)?[0];
                    let left = parse_index(tok.next())?;
                    let right = parse_index(tok.next())?;
                    if feature >= m || left >= n || right >= n {
                        return Err(PersistError::BadDimensions);
                    }
                    nodes.push(TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    });
                }
                Some("leaf") => {
                    let value = parse_row(tok.next().unwrap_or(""), 1)?[0];
                    nodes.push(TreeNode::Leaf { value });
                }
                _ => return Err(PersistError::UnexpectedEnd { expected: "node" }),
            }
        }
        Ok(Self { dim: m, nodes })
    }
}

// ---------------------------------------------------------------------
// Fixed-point MLP
// ---------------------------------------------------------------------

/// Q16.16 scale factor.
const Q16: f64 = 65536.0;
/// Hidden-layer width.
const MLP_HIDDEN: usize = 8;
const MLP_EPOCHS: usize = 300;
const MLP_LR: f64 = 0.5;

/// A one-hidden-layer ReLU perceptron quantized to `i32` Q16.16.
/// Training runs in `f64` (seeded full-batch gradient descent); the
/// deployed weights and inference are integer-only, so the same model
/// produces the same bits on every host and thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpQ16 {
    inputs: usize,
    /// Row-major `hidden × inputs` first-layer weights, Q16.16.
    w1: Vec<i32>,
    b1: Vec<i32>,
    w2: Vec<i32>,
    b2: i32,
}

fn quantize(v: f64) -> i32 {
    let q = (v * Q16).round();
    q.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
}

impl SeededModel for MlpQ16 {
    fn train(examples: &[(Vec<f64>, f64)], seed: u64) -> Self {
        assert!(!examples.is_empty(), "cannot train on an empty example set");
        let m = examples[0].0.len();
        for (x, _) in examples {
            assert_eq!(x.len(), m, "inconsistent example dimensions");
        }
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut w1: Vec<f64> = (0..MLP_HIDDEN * m).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut b1 = [0.0f64; MLP_HIDDEN];
        let mut w2: Vec<f64> = (0..MLP_HIDDEN).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut b2 = examples.iter().map(|(_, t)| t).sum::<f64>() / examples.len() as f64;

        let inv_n = 1.0 / examples.len() as f64;
        let mut hidden = vec![0.0f64; MLP_HIDDEN];
        let mut g_w1 = vec![0.0f64; MLP_HIDDEN * m];
        let mut g_b1 = vec![0.0f64; MLP_HIDDEN];
        let mut g_w2 = vec![0.0f64; MLP_HIDDEN];
        for _ in 0..MLP_EPOCHS {
            g_w1.iter_mut().for_each(|g| *g = 0.0);
            g_b1.iter_mut().for_each(|g| *g = 0.0);
            g_w2.iter_mut().for_each(|g| *g = 0.0);
            let mut g_b2 = 0.0f64;
            for (x, t) in examples {
                for (i, h) in hidden.iter_mut().enumerate() {
                    let z: f64 =
                        w1[i * m..(i + 1) * m].iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
                            + b1[i];
                    *h = z.max(0.0);
                }
                let y: f64 = w2.iter().zip(&hidden).map(|(w, h)| w * h).sum::<f64>() + b2;
                let err = y - t;
                g_b2 += err;
                for i in 0..MLP_HIDDEN {
                    g_w2[i] += err * hidden[i];
                    if hidden[i] > 0.0 {
                        let back = err * w2[i];
                        g_b1[i] += back;
                        for (g, v) in g_w1[i * m..(i + 1) * m].iter_mut().zip(x) {
                            *g += back * v;
                        }
                    }
                }
            }
            let step = MLP_LR * inv_n;
            for (w, g) in w1.iter_mut().zip(&g_w1) {
                *w -= step * g;
            }
            for (b, g) in b1.iter_mut().zip(&g_b1) {
                *b -= step * g;
            }
            for (w, g) in w2.iter_mut().zip(&g_w2) {
                *w -= step * g;
            }
            b2 -= step * g_b2;
        }

        Self {
            inputs: m,
            w1: w1.iter().map(|&v| quantize(v)).collect(),
            b1: b1.iter().map(|&v| quantize(v)).collect(),
            w2: w2.iter().map(|&v| quantize(v)).collect(),
            b2: quantize(b2),
        }
    }
}

impl PhaseModel for MlpQ16 {
    const KIND: &'static str = "mlp";

    fn infer_norm(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        let m = self.inputs;
        // Inputs quantize once; everything below is integer arithmetic
        // (Q16.16 products accumulate in i64 as Q32.32, shifted back).
        // The float-to-int cast saturates (NaN quantizes to 0) and the
        // arithmetic saturates, so out-of-range inputs clamp instead of
        // wrapping; in-range inputs never come near the i64 limits.
        let mut xq = [0i64; 16];
        for (q, v) in xq.iter_mut().zip(x) {
            *q = (v * Q16).round() as i64;
        }
        let mut acc_out = i64::from(self.b2) << 16; // Q32.32
        for i in 0..MLP_HIDDEN {
            let mut acc = 0i64; // Q32.32
            for (w, q) in self.w1[i * m..(i + 1) * m].iter().zip(&xq) {
                acc = acc.saturating_add(i64::from(*w).saturating_mul(*q));
            }
            let h = (acc >> 16).saturating_add(i64::from(self.b1[i])).max(0); // Q16.16
            acc_out = acc_out.saturating_add(i64::from(self.w2[i]).saturating_mul(h));
        }
        (acc_out >> 16) as f64 / Q16
    }

    fn to_text(&self) -> String {
        let m = self.inputs;
        let mut out = String::with_capacity(64 + MLP_HIDDEN * (m + 2) * 12);
        out.push_str("mlp v1\n");
        out.push_str(&format!("inputs {m} hidden {MLP_HIDDEN}\n"));
        for row in self.w1.chunks_exact(m) {
            dump_ints(&mut out, "w1", row);
        }
        dump_ints(&mut out, "b1", &self.b1);
        dump_ints(&mut out, "w2", &self.w2);
        dump_ints(&mut out, "b2", &[self.b2]);
        out
    }

    fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut lines = content_lines(text);
        expect_header(&mut lines, "mlp v1")?;
        let [m, h] = read_dims(&mut lines, ["inputs", "hidden"])?;
        if h != MLP_HIDDEN {
            return Err(PersistError::BadDimensions);
        }
        let w1 = read_rows(&mut lines, "w1", h, m)?;
        let b1 = read_row(&mut lines, "b1", h)?;
        let w2 = read_row(&mut lines, "w2", h)?;
        let b2 = read_row(&mut lines, "b2", 1)?[0];
        Ok(Self {
            inputs: m,
            w1,
            b1,
            w2,
            b2,
        })
    }
}

// ---------------------------------------------------------------------
// Banks and the deployable optimizer
// ---------------------------------------------------------------------

/// One (subsystem, variant) bank: a `Freq` model and two `Power`
/// models, each with the normalizer it was trained under.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedBank<M> {
    pub(crate) norm_freq: Normalizer,
    pub(crate) freq: M,
    norm_vdd: Normalizer,
    vdd: M,
    norm_vbb: Normalizer,
    vbb: M,
}

/// One role's prediction on raw inputs: normalize, infer, denormalize.
fn infer<M: PhaseModel>(norm: &Normalizer, model: &M, raw: &[f64]) -> f64 {
    norm.denormalize_output(model.infer_norm(&norm.normalize(raw)))
}

/// Section separator inside serialized banks.
const SECTION_MARK: &str = "%%";

fn split_sections(text: &str, want: usize) -> Result<Vec<String>, PersistError> {
    let mut out = Vec::with_capacity(want);
    let mut cur = String::new();
    for line in text.lines() {
        if line.trim() == SECTION_MARK {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push_str(line);
            cur.push('\n');
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    if out.len() != want {
        return Err(PersistError::UnexpectedEnd { expected: "section" });
    }
    Ok(out)
}

impl<M: SeededModel> LearnedBank<M> {
    /// Trains all three models of one bank from a teacher example set,
    /// each under `seed` salted per role (`0x11` for `Freq`, `0x22` for
    /// `Vdd`, `0x33` for `Vbb`).
    pub fn train(ex: &TeacherExamples, seed: u64) -> Self {
        Self::fit(ex, seed, M::train)
    }
}

impl<M: PhaseModel> LearnedBank<M> {
    /// The one bank fitter: normalizes each role's examples and hands
    /// them to `train` with the per-role seed, `Freq` then `Vdd` then
    /// `Vbb`.
    pub(crate) fn fit(
        ex: &TeacherExamples,
        seed: u64,
        train: impl Fn(&[(Vec<f64>, f64)], u64) -> M,
    ) -> Self {
        let fit = |examples: &[(Vec<f64>, f64)], salt: u64| -> (Normalizer, M) {
            let norm = Normalizer::fit(examples);
            let model = train(&norm.apply(examples), seed ^ salt);
            (norm, model)
        };
        let (norm_freq, freq) = fit(&ex.freq, 0x11);
        let (norm_vdd, vdd) = fit(&ex.vdd, 0x22);
        let (norm_vbb, vbb) = fit(&ex.vbb, 0x33);
        Self {
            norm_freq,
            freq,
            norm_vdd,
            vdd,
            norm_vbb,
            vbb,
        }
    }

    /// Serializes the bank: six `%%`-terminated sections (normalizer
    /// then model, for `Freq`, `Vdd`, `Vbb`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for section in [
            self.norm_freq.to_text(),
            self.freq.to_text(),
            self.norm_vdd.to_text(),
            self.vdd.to_text(),
            self.norm_vbb.to_text(),
            self.vbb.to_text(),
        ] {
            out.push_str(&section);
            out.push_str(SECTION_MARK);
            out.push('\n');
        }
        out
    }

    /// Parses a serialized bank.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, PersistError> {
        let s = split_sections(text, 6)?;
        Ok(Self {
            norm_freq: Normalizer::from_text(&s[0])?,
            freq: M::from_text(&s[1])?,
            norm_vdd: Normalizer::from_text(&s[2])?,
            vdd: M::from_text(&s[3])?,
            norm_vbb: Normalizer::from_text(&s[4])?,
            vbb: M::from_text(&s[5])?,
        })
    }
}

/// A deployable trained optimizer: one [`LearnedBank`] per (subsystem,
/// variant), with ladder snapping, `asv`/`abb` gating and slot-0
/// fallback. The paper's fuzzy optimizer is the `FuzzyController`
/// instantiation ([`FuzzyOptimizer`](crate::FuzzyOptimizer)).
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedOptimizer<M> {
    env: Environment,
    /// `[subsystem][variant_enabled]`; the variant slot is `None` for
    /// subsystems without an alternate structure.
    banks: Vec<[Option<LearnedBank<M>>; 2]>,
}

impl<M: PhaseModel> LearnedOptimizer<M> {
    /// Assembles an optimizer from pre-trained banks (the controller
    /// zoo trains them from one shared teacher sweep).
    pub(crate) fn from_banks(
        env: Environment,
        banks: Vec<[Option<LearnedBank<M>>; 2]>,
    ) -> Self {
        Self { env, banks }
    }

    /// The environment these banks were trained for.
    pub fn environment(&self) -> Environment {
        self.env
    }

    fn lookup(&self, scene: &SubsystemScene<'_>) -> &LearnedBank<M> {
        let id = scene.state.id();
        let alt = teacher::scene_alt(scene);
        self.banks[id.index()][alt as usize]
            .as_ref()
            .or(self.banks[id.index()][0].as_ref())
            // lint:allow(panic-safety): the teacher sweep fills slot 0
            // for every subsystem id, and from_text rejects a missing one.
            .expect("bank trained for every subsystem")
    }

    /// Serializes the whole optimizer: a header naming the scheme and
    /// environment, then each bank slot as `present` + bank body or
    /// `absent`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("learned-optimizer v1\n");
        out.push_str(&format!("scheme {}\n", M::KIND));
        out.push_str(&format!("env {}\n", self.env.name));
        out.push_str(&format!("banks {}\n", self.banks.len()));
        for (i, slots) in self.banks.iter().enumerate() {
            for (s, slot) in slots.iter().enumerate() {
                match slot {
                    Some(bank) => {
                        out.push_str(&format!("bank {i} {s} present\n"));
                        out.push_str(&bank.to_text());
                    }
                    None => out.push_str(&format!("bank {i} {s} absent\n")),
                }
            }
        }
        out
    }

    /// Parses a serialized optimizer. `env` must match the recorded
    /// environment name (the environment table is compiled in; the text
    /// format only records which one was used).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input or an environment
    /// mismatch.
    pub fn from_text(env: Environment, text: &str) -> Result<Self, PersistError> {
        let mut lines = content_lines(text);
        expect_header(&mut lines, "learned-optimizer v1")?;
        expect_header(&mut lines, &format!("scheme {}", M::KIND))?;
        expect_header(&mut lines, &format!("env {}", env.name))?;
        let [n] = read_dims(&mut lines, ["banks"])?;
        let mut banks: Vec<[Option<LearnedBank<M>>; 2]> = Vec::with_capacity(n);
        for i in 0..n {
            let mut slots: [Option<LearnedBank<M>>; 2] = [None, None];
            for (s, slot) in slots.iter_mut().enumerate() {
                let marker = next_line(&mut lines, "bank marker")?;
                let mut tok = marker.split_whitespace();
                let ok = tok.next() == Some("bank")
                    && tok.next() == Some(i.to_string().as_str())
                    && tok.next() == Some(s.to_string().as_str());
                if !ok {
                    return Err(PersistError::UnexpectedEnd {
                        expected: "bank marker",
                    });
                }
                match tok.next() {
                    Some("absent") => {}
                    Some("present") => {
                        // A bank body is exactly six %%-terminated
                        // sections; collect them and parse.
                        let mut body = String::new();
                        let mut marks = 0;
                        while marks < 6 {
                            let line = next_line(&mut lines, "bank body")?;
                            if line.trim() == SECTION_MARK {
                                marks += 1;
                            }
                            body.push_str(line);
                            body.push('\n');
                        }
                        *slot = Some(LearnedBank::from_text(&body)?);
                    }
                    _ => {
                        return Err(PersistError::UnexpectedEnd {
                            expected: "bank marker",
                        })
                    }
                }
            }
            banks.push(slots);
        }
        if banks.iter().any(|s| s[0].is_none()) {
            return Err(PersistError::BadDimensions);
        }
        Ok(Self { env, banks })
    }

    /// FNV-1a fingerprint of the serialized optimizer, for provenance
    /// journaling and artifact diffing.
    pub fn fingerprint(&self) -> String {
        hex64(fnv1a64(self.to_text().as_bytes()))
    }
}

impl<M: PhaseModel> Optimizer for LearnedOptimizer<M> {
    fn name(&self) -> &'static str {
        M::KIND
    }

    fn freq_max(&self, _config: &EvalConfig, scene: &SubsystemScene<'_>) -> f64 {
        let bank = self.lookup(scene);
        let raw = infer(&bank.norm_freq, &bank.freq, &[scene.th_c, scene.alpha_f, scene.rho]);
        FREQ_LADDER.nearest(raw)
    }

    fn power_settings(
        &self,
        _config: &EvalConfig,
        scene: &SubsystemScene<'_>,
        f_core: f64,
    ) -> (f64, f64) {
        let bank = self.lookup(scene);
        let inputs = [scene.th_c, scene.alpha_f, scene.rho, f_core];
        let vdd = if scene.env.asv {
            VDD_LADDER.nearest(infer(&bank.norm_vdd, &bank.vdd, &inputs))
        } else {
            1.0
        };
        let vbb = if scene.env.abb {
            VBB_LADDER.nearest(infer(&bank.norm_vbb, &bank.vbb, &inputs))
        } else {
            0.0
        };
        (vdd, vbb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_examples(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let a = (i % 16) as f64 / 15.0;
                let b = ((i / 16) % 11) as f64 / 10.0;
                let c = ((i * 7) % 13) as f64 / 12.0;
                (vec![a, b, c], 0.2 + 0.5 * a - 0.3 * b + 0.4 * c * c)
            })
            .collect()
    }

    fn check_fit<M: SeededModel>(tol: f64) {
        let ex = toy_examples(200);
        let model = M::train(&ex, 42);
        let mut sse = 0.0;
        for (x, t) in &ex {
            let err = model.infer_norm(x) - t;
            sse += err * err;
        }
        let rms = (sse / ex.len() as f64).sqrt();
        assert!(rms < tol, "{} rms {rms} over tolerance {tol}", M::KIND);
    }

    #[test]
    fn nn_table_memorizes_training_set() {
        check_fit::<NnTable>(1e-9); // exact recall on its own inputs
    }

    #[test]
    fn tree_fits_smooth_function() {
        check_fit::<RegressionTree>(0.12);
    }

    #[test]
    fn mlp_fits_smooth_function() {
        check_fit::<MlpQ16>(0.12);
    }

    fn check_round_trip<M: SeededModel>() {
        let ex = toy_examples(120);
        let model = M::train(&ex, 7);
        let back = M::from_text(&model.to_text()).expect("parses");
        assert_eq!(model, back, "{} round trip drifted", M::KIND);
        for (x, _) in ex.iter().take(20) {
            assert_eq!(
                model.infer_norm(x).to_bits(),
                back.infer_norm(x).to_bits(),
                "{} inference drifted after round trip",
                M::KIND
            );
        }
    }

    #[test]
    fn all_models_round_trip_bit_exactly() {
        check_round_trip::<NnTable>();
        check_round_trip::<RegressionTree>();
        check_round_trip::<MlpQ16>();
    }

    #[test]
    fn models_reject_malformed_text() {
        assert_eq!(NnTable::from_text("nn-table v9\n"), Err(PersistError::BadHeader));
        assert_eq!(RegressionTree::from_text(""), Err(PersistError::BadHeader));
        assert_eq!(
            MlpQ16::from_text("mlp v1\ninputs 0 hidden 8\n"),
            Err(PersistError::BadDimensions)
        );
        let good = RegressionTree::train(&toy_examples(60), 1).to_text();
        let cut = &good[..good.len() / 2];
        assert!(RegressionTree::from_text(cut).is_err());
        // Out-of-range node links are rejected, not trusted.
        let bad = good.replacen("split 0", "split 9", 1);
        if bad != good {
            assert_eq!(RegressionTree::from_text(&bad), Err(PersistError::BadDimensions));
        }
    }

    #[test]
    fn mlp_training_is_deterministic_and_inference_is_integer_only() {
        let ex = toy_examples(150);
        let a = MlpQ16::train(&ex, 99);
        let b = MlpQ16::train(&ex, 99);
        assert_eq!(a, b, "same seed must give identical quantized weights");
        assert_ne!(a, MlpQ16::train(&ex, 100), "seed must matter");
        // Bitwise-stable inference, including slightly out-of-cube
        // inputs (normalizers extrapolate linearly).
        for x in [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-0.1, 0.5, 1.2]] {
            assert_eq!(a.infer_norm(&x).to_bits(), b.infer_norm(&x).to_bits());
        }
    }

    #[test]
    fn bank_round_trips_through_sections() {
        let ex = TeacherExamples {
            freq: toy_examples(80),
            vdd: toy_examples(80)
                .into_iter()
                .map(|(mut x, t)| {
                    x.push(2.0 + t);
                    (x, 1.0 - t * 0.2)
                })
                .collect(),
            vbb: toy_examples(80)
                .into_iter()
                .map(|(mut x, t)| {
                    x.push(2.0 + t);
                    (x, t * 0.1 - 0.3)
                })
                .collect(),
        };
        let bank = LearnedBank::<MlpQ16>::train(&ex, 5);
        let back = LearnedBank::<MlpQ16>::from_text(&bank.to_text()).expect("parses");
        assert_eq!(bank, back);
        assert!(LearnedBank::<MlpQ16>::from_text("junk\n%%\n").is_err());
    }
}
