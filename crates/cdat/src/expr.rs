//! Fused lazy expression engine for masked-array arithmetic.
//!
//! The paper's calculator chains elementwise analysis ops interactively
//! (PAPER.md §III.G): `(u*u + v*v).sqrt()`, `masked_greater(ta - clim, 2)`,
//! and so on. Evaluated eagerly (as `cdms::MaskedArray::binop`/`map` do),
//! every operator materializes a full intermediate — data *and* a
//! `Vec<bool>` mask — so a three-op chain walks memory ~8× more than the
//! arithmetic needs. [`Expr`] instead records the chain as a small tree of
//! borrowed leaves and compiles it into **one chunked pass**: a single
//! output allocation, mask logic folded into the kernel as bit-packed
//! `u64` words (see [`cdms::array::mask`]), and chunks evaluated in
//! parallel via the vendored rayon.
//!
//! ## Semantics: bit-identical to the eager reference
//!
//! Each node replicates the corresponding `cdms` eager op *exactly* — same
//! per-lane branches, same NaN/inf policy, same data values left behind on
//! masked lanes — so a fused evaluation is bit-identical (data and mask) to
//! the materialized chain it replaces. `crates/cdat/tests/expr_fusion.rs`
//! proves this against the frozen pre-fusion reference in
//! [`crate::eager_ref`] over random shapes, masks, and op chains. The rules
//! inherited from `cdms::array::ops`:
//!
//! - binary ops: output lane masked where either input is; masked lanes
//!   carry data `0.0`; a NaN result (e.g. `x/0`) masks and zeroes the lane;
//! - unary maps: masked lanes keep their incoming data; a NaN/inf result
//!   masks the lane but keeps the *pre-op* value;
//! - `mask_where*`: data untouched, mask only grows.
//!
//! ## Determinism
//!
//! Chunk boundaries are a fixed function of the array length
//! (`CHUNK` elements, a multiple of the 64-lane mask words), never of the
//! worker count, and chunks are written to disjoint output windows — so
//! serial and parallel evaluation produce identical bytes, for any
//! `RAYON_NUM_THREADS`.

// Hot path: the fused expression kernels sit under every analysis call.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use cdms::array::mask::{self, LANES};
use cdms::array::BinOp;
use cdms::{CdmsError, MaskedArray, Result};
use rayon::prelude::*;

/// Elements per evaluation chunk: a multiple of the 64-lane mask word so
/// chunk edges never split a word, small enough that a leaf window, a
/// scratch operand and the output stay cache-resident.
pub(crate) const CHUNK: usize = 4096;

/// Minimum element count before parallel dispatch is worth a thread scope.
const PARALLEL_CUTOFF: usize = 2 * CHUNK;

/// A unary transform applied to every valid lane, NaN/inf results masking.
///
/// The closed set of named variants lets internal callers (scalar ops,
/// standardize, magnitude) stay `Sync` and monomorphic in the kernel; the
/// `Func` escape hatch carries any `Send + Sync` closure.
pub enum UnaryFn<'a> {
    /// `v + s` — matches `MaskedArray::add_scalar`.
    AddScalar(f32),
    /// `v * s` — matches `MaskedArray::mul_scalar`.
    MulScalar(f32),
    /// `(v - sub) / div` — the standardize transform.
    SubDiv { sub: f32, div: f32 },
    /// `v.sqrt()` — the magnitude finisher.
    Sqrt,
    /// Arbitrary thread-safe closure.
    Func(Box<dyn Fn(f32) -> f32 + Send + Sync + 'a>),
}

impl std::fmt::Debug for UnaryFn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnaryFn::AddScalar(s) => write!(f, "AddScalar({s})"),
            UnaryFn::MulScalar(s) => write!(f, "MulScalar({s})"),
            UnaryFn::SubDiv { sub, div } => write!(f, "SubDiv({sub}, {div})"),
            UnaryFn::Sqrt => write!(f, "Sqrt"),
            UnaryFn::Func(_) => write!(f, "Func(..)"),
        }
    }
}

/// A lane predicate for conditioned masking (`true` ⇒ mask the lane).
pub enum PredFn<'a> {
    /// `v > t` — `masked_greater`.
    Greater(f32),
    /// `v < t` — `masked_less`.
    Less(f32),
    /// `lo <= v <= hi` — `masked_inside`.
    Inside(f32, f32),
    /// `!(lo <= v <= hi)` — `masked_outside`.
    Outside(f32, f32),
    /// Arbitrary thread-safe predicate.
    Func(Box<dyn Fn(f32) -> bool + Send + Sync + 'a>),
}

impl PredFn<'_> {
    #[inline]
    fn test(&self, v: f32) -> bool {
        match self {
            PredFn::Greater(t) => v > *t,
            PredFn::Less(t) => v < *t,
            PredFn::Inside(lo, hi) => (*lo..=*hi).contains(&v),
            PredFn::Outside(lo, hi) => !(*lo..=*hi).contains(&v),
            PredFn::Func(p) => p(v),
        }
    }
}

impl std::fmt::Debug for PredFn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredFn::Greater(t) => write!(f, "Greater({t})"),
            PredFn::Less(t) => write!(f, "Less({t})"),
            PredFn::Inside(lo, hi) => write!(f, "Inside({lo}, {hi})"),
            PredFn::Outside(lo, hi) => write!(f, "Outside({lo}, {hi})"),
            PredFn::Func(_) => write!(f, "Func(..)"),
        }
    }
}

#[derive(Debug)]
enum Node<'a> {
    Leaf(&'a MaskedArray),
    Bin { op: BinOp, a: Box<Node<'a>>, b: Box<Node<'a>> },
    Map { a: Box<Node<'a>>, f: UnaryFn<'a> },
    MaskWhere { a: Box<Node<'a>>, pred: PredFn<'a> },
    MaskWhereOther { a: Box<Node<'a>>, cond: Box<Node<'a>>, pred: PredFn<'a> },
}

/// A lazy masked-array expression over borrowed operands.
///
/// Build with [`Expr::leaf`] and the chaining combinators, then [`eval`]
/// once: the whole tree runs as a single fused pass per chunk.
///
/// ```
/// use cdat::expr::Expr;
/// use cdms::MaskedArray;
///
/// let u = MaskedArray::from_vec(vec![3.0, 0.0], &[2]).unwrap();
/// let v = MaskedArray::from_vec(vec![4.0, 1.0], &[2]).unwrap();
/// let speed = (Expr::leaf(&u) * Expr::leaf(&u) + Expr::leaf(&v) * Expr::leaf(&v))
///     .sqrt()
///     .eval()
///     .unwrap();
/// assert_eq!(speed.data(), &[5.0, 1.0]);
/// ```
///
/// [`eval`]: Expr::eval
#[derive(Debug)]
pub struct Expr<'a> {
    node: Node<'a>,
}

// The arithmetic builders are the std::ops traits, so expression trees
// read as plain arithmetic: `Expr::leaf(a) + Expr::leaf(b) * Expr::leaf(c)`.

/// `self + other`.
impl<'a> std::ops::Add for Expr<'a> {
    type Output = Expr<'a>;
    fn add(self, other: Expr<'a>) -> Expr<'a> {
        self.binop(BinOp::Add, other)
    }
}

/// `self - other`.
impl<'a> std::ops::Sub for Expr<'a> {
    type Output = Expr<'a>;
    fn sub(self, other: Expr<'a>) -> Expr<'a> {
        self.binop(BinOp::Sub, other)
    }
}

/// `self * other`.
impl<'a> std::ops::Mul for Expr<'a> {
    type Output = Expr<'a>;
    fn mul(self, other: Expr<'a>) -> Expr<'a> {
        self.binop(BinOp::Mul, other)
    }
}

/// `self / other`; division by zero masks the lane.
impl<'a> std::ops::Div for Expr<'a> {
    type Output = Expr<'a>;
    fn div(self, other: Expr<'a>) -> Expr<'a> {
        self.binop(BinOp::Div, other)
    }
}

impl<'a> Expr<'a> {
    /// An expression that reads `a` directly (no copy).
    pub fn leaf(a: &'a MaskedArray) -> Self {
        Expr { node: Node::Leaf(a) }
    }

    /// Element-wise binary op with mask union; same shapes only (the
    /// `cdat` layer guarantees this via `check_domains`).
    pub(crate) fn binop(self, op: BinOp, other: Expr<'a>) -> Self {
        Expr { node: Node::Bin { op, a: Box::new(self.node), b: Box::new(other.node) } }
    }

    /// Unary transform over valid lanes; NaN/inf results mask.
    pub fn map(self, f: UnaryFn<'a>) -> Self {
        Expr { node: Node::Map { a: Box::new(self.node), f } }
    }

    /// `v + s` per lane.
    pub fn add_scalar(self, s: f32) -> Self {
        self.map(UnaryFn::AddScalar(s))
    }

    /// `v * s` per lane.
    pub fn mul_scalar(self, s: f32) -> Self {
        self.map(UnaryFn::MulScalar(s))
    }

    /// `(v - sub) / div` per lane — the standardize transform.
    pub(crate) fn sub_div(self, sub: f32, div: f32) -> Self {
        self.map(UnaryFn::SubDiv { sub, div })
    }

    /// `v.sqrt()` per lane (negative inputs mask via the NaN rule).
    pub fn sqrt(self) -> Self {
        self.map(UnaryFn::Sqrt)
    }

    /// Arbitrary `Send + Sync` transform per lane.
    pub(crate) fn apply(self, f: impl Fn(f32) -> f32 + Send + Sync + 'a) -> Self {
        self.map(UnaryFn::Func(Box::new(f)))
    }

    /// Grows the mask where `pred` holds on a valid lane; data untouched.
    pub fn mask_where(self, pred: PredFn<'a>) -> Self {
        Expr { node: Node::MaskWhere { a: Box::new(self.node), pred } }
    }

    /// Grows the mask where `cond`'s lane is masked or its value satisfies
    /// `pred` — the conditioned comparison (`masked_where_other`).
    pub fn mask_where_other(self, cond: Expr<'a>, pred: PredFn<'a>) -> Self {
        Expr {
            node: Node::MaskWhereOther {
                a: Box::new(self.node),
                cond: Box::new(cond.node),
                pred,
            },
        }
    }

    /// Evaluates the whole tree in one fused chunked pass.
    ///
    /// One output allocation; chunks run in parallel when the pool has more
    /// than one thread and the array clears `PARALLEL_CUTOFF`. Output is
    /// identical either way (see the module docs on determinism).
    pub fn eval(&self) -> Result<MaskedArray> {
        let shape = shape_of(&self.node)?.to_vec();
        let n: usize = shape.iter().product();
        let mut data = vec![0.0f32; n];
        let mut maskb = vec![false; n];
        let parallel = n >= PARALLEL_CUTOFF && rayon::current_num_threads() > 1;
        if parallel {
            data.par_chunks_mut(CHUNK)
                .zip(maskb.par_chunks_mut(CHUNK))
                .enumerate()
                .for_each(|(c, (dd, mb))| eval_chunk_into(&self.node, c * CHUNK, dd, mb));
        } else {
            for (c, (dd, mb)) in data.chunks_mut(CHUNK).zip(maskb.chunks_mut(CHUNK)).enumerate() {
                eval_chunk_into(&self.node, c * CHUNK, dd, mb);
            }
        }
        MaskedArray::with_mask(data, maskb, &shape)
    }
}

/// The common shape of every leaf, or `ShapeMismatch` if they disagree.
fn shape_of<'s>(node: &'s Node<'_>) -> Result<&'s [usize]> {
    match node {
        Node::Leaf(a) => Ok(a.shape()),
        Node::Bin { a, b, .. } => {
            let (sa, sb) = (shape_of(a)?, shape_of(b)?);
            if sa == sb {
                Ok(sa)
            } else {
                Err(CdmsError::ShapeMismatch { expected: sa.to_vec(), got: sb.to_vec() })
            }
        }
        Node::Map { a, .. } | Node::MaskWhere { a, .. } => shape_of(a),
        Node::MaskWhereOther { a, cond, .. } => {
            let (sa, sc) = (shape_of(a)?, shape_of(cond)?);
            if sa == sc {
                Ok(sa)
            } else {
                Err(CdmsError::ShapeMismatch { expected: sa.to_vec(), got: sc.to_vec() })
            }
        }
    }
}

/// Evaluates one chunk into its output windows, converting the packed mask
/// words back to the `Vec<bool>` representation at the very end.
fn eval_chunk_into(node: &Node<'_>, lo: usize, dd: &mut [f32], mb: &mut [bool]) {
    let mut words = vec![0u64; dd.len().div_ceil(LANES)];
    eval_chunk(node, lo, dd, &mut words);
    mask::unpack_into(&words, mb);
}

/// Recursive fused kernel: evaluates `node`'s window `[lo, lo + dd.len())`
/// into `dd` (data) and `mw` (bit-packed mask words).
fn eval_chunk(node: &Node<'_>, lo: usize, dd: &mut [f32], mw: &mut [u64]) {
    match node {
        Node::Leaf(a) => load_leaf(a, lo, dd, mw),
        Node::Bin { op, a, b } => {
            eval_chunk(a, lo, dd, mw);
            let mut bd = vec![0.0f32; dd.len()];
            let mut bw = vec![0u64; mw.len()];
            eval_chunk(b, lo, &mut bd, &mut bw);
            bin_kernel(*op, dd, mw, &bd, &bw);
        }
        Node::Map { a, f } => {
            eval_chunk(a, lo, dd, mw);
            map_kernel(dd, mw, f);
        }
        Node::MaskWhere { a, pred } => {
            eval_chunk(a, lo, dd, mw);
            pred_lanes(dd, mw, |v| pred.test(v));
        }
        Node::MaskWhereOther { a, cond, pred } => {
            eval_chunk(a, lo, dd, mw);
            let mut cd = vec![0.0f32; dd.len()];
            let mut cw = vec![0u64; mw.len()];
            eval_chunk(cond, lo, &mut cd, &mut cw);
            other_lanes(mw, &cd, &cw, |v| pred.test(v));
        }
    }
}

/// Copies a leaf's data window and packs its mask window into words.
fn load_leaf(a: &MaskedArray, lo: usize, dd: &mut [f32], mw: &mut [u64]) {
    let hi = lo + dd.len();
    let dwin = a.data().get(lo..hi).unwrap_or_default();
    for (d, &s) in dd.iter_mut().zip(dwin) {
        *d = s;
    }
    let mwin = a.mask().get(lo..hi).unwrap_or_default();
    mask::pack_into(mwin, mw);
}

/// Dispatches a binary op to a monomorphic lane loop.
fn bin_kernel(op: BinOp, dd: &mut [f32], mw: &mut [u64], bd: &[f32], bw: &[u64]) {
    match op {
        BinOp::Add => bin_lanes(dd, mw, bd, bw, |a, b| a + b),
        BinOp::Sub => bin_lanes(dd, mw, bd, bw, |a, b| a - b),
        BinOp::Mul => bin_lanes(dd, mw, bd, bw, |a, b| a * b),
        // Division by zero yields NaN so the lane masks — same contract as
        // `cdms::array::BinOp::apply`.
        BinOp::Div => bin_lanes(dd, mw, bd, bw, |a, b| if b == 0.0 { f32::NAN } else { a / b }),
        BinOp::Pow => bin_lanes(dd, mw, bd, bw, |a, b| a.powf(b)),
        BinOp::Min => bin_lanes(dd, mw, bd, bw, |a, b| a.min(b)),
        BinOp::Max => bin_lanes(dd, mw, bd, bw, |a, b| a.max(b)),
    }
}

/// Binary lane loop, 64 lanes per mask word. A zero combined word proves
/// every lane valid, so the hot loop runs without per-lane mask branches;
/// NaN results still mask and zero their lane, exactly like the eager op.
#[inline]
fn bin_lanes(
    dd: &mut [f32],
    mw: &mut [u64],
    bd: &[f32],
    bw: &[u64],
    op: impl Fn(f32, f32) -> f32,
) {
    let groups = dd.chunks_mut(LANES).zip(bd.chunks(LANES));
    for ((w, &ow), (da, db)) in mw.iter_mut().zip(bw).zip(groups) {
        let merged = *w | ow;
        let mut m = merged;
        if merged == 0 {
            for (lane, (d, &b)) in da.iter_mut().zip(db).enumerate() {
                let v = op(*d, b);
                let nan = v.is_nan();
                m |= (nan as u64) << lane;
                *d = if nan { 0.0 } else { v };
            }
        } else {
            for (lane, (d, &b)) in da.iter_mut().zip(db).enumerate() {
                if (merged >> lane) & 1 == 1 {
                    // masked input lane: data zeroed, like the eager path
                    *d = 0.0;
                } else {
                    let v = op(*d, b);
                    let nan = v.is_nan();
                    m |= (nan as u64) << lane;
                    *d = if nan { 0.0 } else { v };
                }
            }
        }
        *w = m;
    }
}

/// Dispatches a unary transform to a monomorphic lane loop.
fn map_kernel(dd: &mut [f32], mw: &mut [u64], f: &UnaryFn<'_>) {
    match f {
        UnaryFn::AddScalar(s) => map_lanes(dd, mw, |v| v + s),
        UnaryFn::MulScalar(s) => map_lanes(dd, mw, |v| v * s),
        UnaryFn::SubDiv { sub, div } => map_lanes(dd, mw, |v| (v - sub) / div),
        UnaryFn::Sqrt => map_lanes(dd, mw, |v| v.sqrt()),
        UnaryFn::Func(g) => map_lanes(dd, mw, g),
    }
}

/// Unary lane loop: valid lanes transform; NaN/inf results mask the lane
/// and keep the pre-op value, masked lanes pass through untouched — the
/// `MaskedArray::map` contract.
#[inline]
fn map_lanes(dd: &mut [f32], mw: &mut [u64], f: impl Fn(f32) -> f32) {
    for (w, da) in mw.iter_mut().zip(dd.chunks_mut(LANES)) {
        let before = *w;
        let mut m = before;
        if before == 0 {
            for (lane, d) in da.iter_mut().enumerate() {
                let v = f(*d);
                if v.is_nan() || v.is_infinite() {
                    m |= 1u64 << lane;
                } else {
                    *d = v;
                }
            }
        } else {
            for (lane, d) in da.iter_mut().enumerate() {
                if (before >> lane) & 1 == 0 {
                    let v = f(*d);
                    if v.is_nan() || v.is_infinite() {
                        m |= 1u64 << lane;
                    } else {
                        *d = v;
                    }
                }
            }
        }
        *w = m;
    }
}

/// Predicate lane loop: grows the mask where `p` holds on a valid lane.
#[inline]
fn pred_lanes(dd: &[f32], mw: &mut [u64], p: impl Fn(f32) -> bool) {
    for (w, da) in mw.iter_mut().zip(dd.chunks(LANES)) {
        let before = *w;
        let mut m = before;
        for (lane, &d) in da.iter().enumerate() {
            if (before >> lane) & 1 == 0 && p(d) {
                m |= 1u64 << lane;
            }
        }
        *w = m;
    }
}

/// Conditioned-mask lane loop: masks where the condition lane is itself
/// masked, or where `p` holds on its (valid) value.
#[inline]
fn other_lanes(mw: &mut [u64], cd: &[f32], cw: &[u64], p: impl Fn(f32) -> bool) {
    for ((w, &cmw), da) in mw.iter_mut().zip(cw).zip(cd.chunks(LANES)) {
        let mut m = *w | cmw;
        for (lane, &c) in da.iter().enumerate() {
            if (cmw >> lane) & 1 == 0 && p(c) {
                m |= 1u64 << lane;
            }
        }
        *w = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(data: Vec<f32>, mask: Vec<bool>) -> MaskedArray {
        let n = data.len();
        MaskedArray::with_mask(data, mask, &[n]).unwrap()
    }

    #[test]
    fn fused_binop_matches_eager_bits() {
        let a = arr(vec![1.0, -0.0, 3.0, f32::NAN], vec![false, false, true, false]);
        let b = arr(vec![0.5, 0.0, 1.0, 2.0], vec![false, false, false, true]);
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow] {
            let eager = a.binop(&b, op).unwrap();
            let fused = Expr::leaf(&a).binop(op, Expr::leaf(&b)).eval().unwrap();
            assert_eq!(fused.mask(), eager.mask(), "{op:?}");
            let fb: Vec<u32> = fused.data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = eager.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, eb, "{op:?}");
        }
    }

    #[test]
    fn fused_chain_matches_eager_chain() {
        let a = arr(vec![1.0, 4.0, 9.0, -1.0], vec![false, true, false, false]);
        let b = arr(vec![1.0, 1.0, 0.0, 1.0], vec![false, false, false, false]);
        let eager = a.div(&b).unwrap().map(|v| v.sqrt()).add_scalar(1.0);
        let fused =
            (Expr::leaf(&a) / Expr::leaf(&b)).sqrt().add_scalar(1.0).eval().unwrap();
        assert_eq!(fused.mask(), eager.mask());
        assert_eq!(fused.data(), eager.data());
    }

    #[test]
    fn mask_where_other_keeps_data() {
        let a = arr(vec![1.0, 2.0, 3.0], vec![false, false, false]);
        let cond = arr(vec![0.0, 5.0, 0.0], vec![true, false, false]);
        let fused = Expr::leaf(&a)
            .mask_where_other(Expr::leaf(&cond), PredFn::Greater(1.0))
            .eval()
            .unwrap();
        assert_eq!(fused.mask(), &[true, true, false]);
        assert_eq!(fused.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = MaskedArray::zeros(&[4]);
        let b = MaskedArray::zeros(&[5]);
        assert!((Expr::leaf(&a) + Expr::leaf(&b)).eval().is_err());
    }

    #[test]
    fn spans_multiple_chunks() {
        let n = CHUNK * 3 + 17;
        let data: Vec<f32> = (0..n).map(|i| (i % 97) as f32 - 48.0).collect();
        let mask: Vec<bool> = (0..n).map(|i| i % 13 == 0).collect();
        let a = MaskedArray::with_mask(data.clone(), mask.clone(), &[n]).unwrap();
        let b = MaskedArray::with_mask(
            data.iter().map(|v| v + 0.5).collect(),
            vec![false; n],
            &[n],
        )
        .unwrap();
        let eager = a.mul(&b).unwrap().add_scalar(2.0);
        let fused = (Expr::leaf(&a) * Expr::leaf(&b)).add_scalar(2.0).eval().unwrap();
        assert_eq!(fused.mask(), eager.mask());
        assert_eq!(fused.data(), eager.data());
    }
}
