//! Deterministic parallel reductions shared by averager / statistics /
//! climatology and the fused [`crate::pipeline`].
//!
//! Floating-point addition is not associative, so a naive parallel sum
//! changes value with the worker count — poison for regression tests, for
//! cached pipeline results, and for the hyperwall protocol where every
//! panel must derive the same color scale. Every reduction here is instead
//! computed as **fixed-size block partials merged in a fixed pairwise tree
//! order**: block boundaries are a function of the array length only
//! (`BLOCK` lanes), each block's partial is accumulated in lane order
//! with Neumaier-compensated summation (`Neumaier`), and the merge tree
//! depends only on the block count. Threads race to *fill* slots of a
//! pre-sized partial vector, never to accumulate into shared state, so the
//! result is bit-identical for any `RAYON_NUM_THREADS` — proven across
//! {1, 2, 8}-thread pools in `crates/cdat/tests/expr_fusion.rs`.
//!
//! # The moment kernel: four blocks per pass
//!
//! `moments` (and the pipeline's standardize pass) do not walk one block
//! at a time. Four consecutive blocks advance together, block `l` of the
//! group in SIMD lane `l`, so the four serial dependency chains overlap and
//! the adds are packed. Which lanes meet in which order *inside* a block,
//! where the blocks begin and how their partials merge are untouched, and
//! the per-lane arithmetic yields the same bits as the ordered form:
//!
//! * **TwoSum is Neumaier's error term.** `Neumaier::add` branches on
//!   `|sum| >= |v|` to compute `(big - t) + small` with `t = sum + v`. For
//!   finite operands that is Dekker's FastTwoSum: `big - t` is exact and
//!   the result is the rounding error `e = (sum + v) - t` *exactly*. The
//!   kernel computes `e` by Knuth's TwoSum — `a = t - v; b = t - a;
//!   e = (sum - a) + (v - b)` — which is exact for either ordering, so no
//!   compare and no branch. Both forms then do `comp += e; sum = t`. An
//!   exact quantity has one `f64` representation up to the sign of zero,
//!   and that sign is invisible: `comp` starts at `+0.0`, and `x + ±0.0`
//!   is `x` for every `x` but `-0.0`, which `comp` can never hold (a
//!   round-to-nearest sum is `-0.0` only when both operands are). No
//!   overflow can break the exactness: operands are `f32` values and their
//!   squares, at most 1.2e77 in `f64`.
//! * **Masked lanes enter as `+0.0`** instead of being skipped, as do the
//!   padding lanes of a ragged last group. `sum + 0.0` is `sum` for the
//!   same reason — running sums start at `+0.0` and can never become
//!   `-0.0` — the error term of that add is `+0.0`, and `comp + 0.0` is
//!   `comp`. A no-op, bit for bit; the lane count skips them separately.
//! * **A valid non-finite lane** (the ordered form has no special case for
//!   one either) turns `comp` into NaN in both forms, so `mean()` is NaN
//!   either way. *Which* NaN — sign and payload — is not part of the
//!   contract, and masked lanes holding NaN or ∞ never reach the sums.
//!
//! `reduce::tests` holds the ordered form verbatim and compares `n`, `sum`
//! and `comp` bits against it.
//!
//! # Axis reductions
//!
//! [`weighted_mean_axis`], [`mean_axis`] and `selected_mean_axis` take
//! the other route to the same guarantee: each output cell's accumulation
//! runs serially in ascending axis order — the exact order (and precision)
//! the pre-fusion eager code used, so results are additionally
//! *bit-identical to the seed implementation* — and parallelism comes from
//! distributing independent output cells. The two means share one tiled,
//! select-based loop (`weighted_mean_axis_of`); masked lanes add `+0.0`
//! there too, never `w * NaN`.
//!
//! # Row sources
//!
//! The moment kernel and the mean loop read their field through a
//! `RowSource`: `rows(start, d, m)` answers with the values and mask
//! flags of lanes `start..start + d.len()`, in flat row-major order,
//! either by lending its own storage or by filling the stage `d` / `m`
//! (equal lengths) and lending that. Any lane may be asked for any number
//! of times, from any thread, and a value under a set mask flag may be
//! anything. A materialized `MaskedArray` lends its slices; `pipeline`
//! copies base lanes into the stage and streams its deferred lane ops
//! over them, so the array and the virtual field run the same kernels.

// Hot path: the fused reduction kernels sit under every analysis call.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use cdms::{CdmsError, MaskedArray, Result};
use rayon::prelude::*;

/// Lanes per partial-sum block. Fixed — never derived from the worker
/// count — so the partial layout (and thus the merged result) is a
/// function of the data alone.
pub(crate) const BLOCK: usize = 4096;

/// Neumaier-compensated accumulator: tracks a running compensation term so
/// adding many small values to a large sum does not lose them. Unlike
/// plain Kahan, the compensation also survives when the addend exceeds the
/// running sum.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Neumaier {
    sum: f64,
    comp: f64,
}

impl Neumaier {
    /// Adds one value.
    #[inline]
    pub(crate) fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Merges another accumulator into this one. Always called in the same
    /// tree order by `blocked`, so the operation need not be associative.
    #[inline]
    pub(crate) fn merge(&mut self, o: &Neumaier) {
        self.add(o.sum);
        self.comp += o.comp;
    }

    /// The compensated total.
    #[inline]
    pub(crate) fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// Count + compensated Σv + Σv² over valid lanes: everything a mean /
/// population-variance / standardize needs from one pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MomentSums {
    /// Number of valid lanes.
    pub n: u64,
    sum: Neumaier,
    sum_sq: Neumaier,
}

impl MomentSums {
    fn merged(mut self, o: MomentSums) -> MomentSums {
        self.n += o.n;
        self.sum.merge(&o.sum);
        self.sum_sq.merge(&o.sum_sq);
        self
    }

    /// Mean of valid lanes, `None` when empty.
    pub(crate) fn mean(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        Some(self.sum.value() / self.n as f64)
    }

    /// Population variance of valid lanes (clamped at 0), `None` when empty.
    pub(crate) fn variance(&self) -> Option<f64> {
        let n = self.n as f64;
        let mean = self.mean()?;
        Some((self.sum_sq.value() / n - mean * mean).max(0.0))
    }

    /// Population standard deviation, `None` when empty.
    pub(crate) fn std(&self) -> Option<f64> {
        Some(self.variance()?.sqrt())
    }
}

/// All the pairwise sums correlation and RMSE need, gathered over mutually
/// valid lanes in one shared pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairSums {
    /// Number of mutually valid pairs.
    pub n: u64,
    sx: Neumaier,
    sy: Neumaier,
    sxx: Neumaier,
    syy: Neumaier,
    sxy: Neumaier,
    /// Σ(x−y)² — the RMSE numerator.
    sdd: Neumaier,
}

impl PairSums {
    #[inline]
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx.add(x);
        self.sy.add(y);
        self.sxx.add(x * x);
        self.syy.add(y * y);
        self.sxy.add(x * y);
        let d = x - y;
        self.sdd.add(d * d);
    }

    fn merged(mut self, o: PairSums) -> PairSums {
        self.n += o.n;
        self.sx.merge(&o.sx);
        self.sy.merge(&o.sy);
        self.sxx.merge(&o.sxx);
        self.syy.merge(&o.syy);
        self.sxy.merge(&o.sxy);
        self.sdd.merge(&o.sdd);
        self
    }

    /// Pearson correlation over the pairs; `None` when `n < 2` or either
    /// variance is zero.
    pub(crate) fn correlation(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let nf = self.n as f64;
        let (sx, sy) = (self.sx.value(), self.sy.value());
        let cov = self.sxy.value() / nf - (sx / nf) * (sy / nf);
        let vx = (self.sxx.value() / nf - (sx / nf).powi(2)).max(0.0);
        let vy = (self.syy.value() / nf - (sy / nf).powi(2)).max(0.0);
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }
}

/// The lane range of block `b` over `n` lanes.
#[inline]
fn block_range(b: usize, n: usize) -> std::ops::Range<usize> {
    let lo = b * BLOCK;
    lo..(lo + BLOCK).min(n)
}

/// Blocked deterministic reduction driver: computes one partial per fixed
/// [`BLOCK`]-lane range (in parallel when the pool allows), then folds the
/// partials with [`merge_tree`]. Returns `None` for zero lanes.
fn blocked<P: Send + Default>(
    n: usize,
    per_block: impl Fn(std::ops::Range<usize>) -> P + Sync,
    merge: impl Fn(P, P) -> P,
) -> Option<P> {
    let mut parts: Vec<P> = Vec::new();
    parts.resize_with(n.div_ceil(BLOCK), P::default);
    // Slots are pre-sized and disjoint: threads fill, never accumulate.
    parts
        .par_iter_mut()
        .enumerate()
        .for_each(|(b, slot)| *slot = per_block(block_range(b, n)));
    merge_tree(parts, merge)
}

/// Folds block partials pairwise in fixed order — (0,1)(2,3)… then again,
/// until one is left — so the tree depends on the block count alone.
fn merge_tree<P>(mut parts: Vec<P>, merge: impl Fn(P, P) -> P) -> Option<P> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge(a, b)),
                None => next.push(a),
            }
        }
        parts = next;
    }
    parts.pop()
}

/// Where the moment kernel and the mean loop read their field from — see
/// "Row sources" in the module docs.
pub(crate) trait RowSource: Sync {
    /// The values and mask flags of lanes `start..start + d.len()`: either
    /// the source's own storage, or `d` and `m` (equal lengths) filled.
    fn rows<'a>(
        &'a self,
        start: usize,
        d: &'a mut [f32],
        m: &'a mut [bool],
    ) -> (&'a [f32], &'a [bool]);
}

/// A materialized array lends its lanes as they are; the stage stays unused.
impl RowSource for MaskedArray {
    fn rows<'a>(
        &'a self,
        start: usize,
        d: &'a mut [f32],
        _m: &'a mut [bool],
    ) -> (&'a [f32], &'a [bool]) {
        let lanes = start..start + d.len();
        (
            self.data().get(lanes.clone()).unwrap_or_default(),
            self.mask().get(lanes).unwrap_or_default(),
        )
    }
}

/// Blocks the moment kernel advances together, one per SIMD lane.
const LANES: usize = 4;

/// Lanes of each block widened per kernel call: the stage a row source may
/// fill plus four widened rows (37 KB) stay L1-resident between the source
/// and the kernel.
const STAGE: usize = 1024;

/// One value per block of a group: lane `l` belongs to block `l`.
type Lanes = [f64; LANES];

#[inline(always)]
fn add(mut a: Lanes, b: Lanes) -> Lanes {
    a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
    a
}

#[inline(always)]
fn sub(mut a: Lanes, b: Lanes) -> Lanes {
    a.iter_mut().zip(b).for_each(|(a, b)| *a -= b);
    a
}

/// Four [`Neumaier`] accumulators side by side.
#[derive(Clone, Copy, Default)]
struct NeumaierLanes {
    sum: Lanes,
    comp: Lanes,
}

impl NeumaierLanes {
    /// [`Neumaier::add`] in every lane, branch-free (Knuth's TwoSum): `comp`
    /// takes the exact rounding error of `sum + x` — see the module docs
    /// for why these are the ordered form's bits.
    #[inline(always)]
    fn add(&mut self, x: Lanes) {
        let t = add(self.sum, x);
        let a = sub(t, x);
        let b = sub(t, a);
        self.comp = add(self.comp, add(sub(self.sum, a), sub(x, b)));
        self.sum = t;
    }
}

/// Widens one row for the kernel: valid lanes as `f64`, masked lanes and
/// the padding behind a short row as `+0.0`. Returns the number of valid
/// lanes.
fn widen(x: &mut [f64; STAGE], d: &[f32], m: &[bool]) -> u64 {
    let (x, padding) = x.split_at_mut(d.len().min(STAGE));
    let mut n = 0u32;
    for ((x, &v), &masked) in x.iter_mut().zip(d).zip(m) {
        *x = if masked { 0.0 } else { f64::from(v) };
        n += u32::from(!masked);
    }
    padding.fill(0.0);
    u64::from(n)
}

/// The moment kernel: advances Σv and Σv² of the four blocks of a group by
/// [`STAGE`] widened lanes each, block `l` in SIMD lane `l`.
///
/// Out of line on purpose: with the accumulators in locals the loop body
/// is straight-line packed arithmetic, but inlined into the rayon closure
/// of [`moments_of`] the same loop stays scalar (measured: 5.5 vs 7.9 ms
/// for the 2.07 M-lane standardize pass).
#[inline(never)]
fn moment_lanes(sums: &mut [NeumaierLanes; 2], x: &[[f64; STAGE]; LANES]) {
    let [x0, x1, x2, x3] = x;
    let [mut sum, mut sum_sq] = *sums;
    for (((&a, &b), &c), &d) in x0.iter().zip(x1).zip(x2).zip(x3) {
        let v = [a, b, c, d];
        sum.add(v);
        sum_sq.add(v.map(|v| v * v));
    }
    *sums = [sum, sum_sq];
}

/// Global moment sums of the `n`-lane field behind `src`: groups of
/// [`LANES`] fixed blocks go through [`moment_lanes`] (groups in parallel),
/// the per-block partials through [`merge_tree`].
pub(crate) fn moments_of(n: usize, src: &impl RowSource) -> MomentSums {
    let mut parts = vec![MomentSums::default(); n.div_ceil(BLOCK)];
    parts.par_chunks_mut(LANES).enumerate().for_each(|(g, slots)| {
        let first = g * LANES * BLOCK;
        // only the field's last block is short, so a group's first is its longest
        let rows = BLOCK.min(n - first);
        let (mut stage_d, mut stage_m) = ([0.0f32; STAGE], [false; STAGE]);
        let mut x = [[0.0f64; STAGE]; LANES];
        let mut counts = [0u64; LANES];
        let mut sums = [NeumaierLanes::default(); 2];
        for off in (0..rows).step_by(STAGE) {
            for (l, (x, count)) in x.iter_mut().zip(counts.iter_mut()).enumerate() {
                // the lanes block `l` still has at `off`: none past a ragged
                // end or for a block past the field, which widen to padding
                let start = first + l * BLOCK + off;
                let end = (first + (l + 1) * BLOCK).min(n);
                let (d, _) = stage_d.split_at_mut(end.saturating_sub(start).min(STAGE));
                let (m, _) = stage_m.split_at_mut(d.len());
                let (d, m) = src.rows(start, d, m);
                *count += widen(x, d, m);
            }
            moment_lanes(&mut sums, &x);
        }
        let [s, q] = sums;
        let sum = s.sum.into_iter().zip(s.comp).map(|(sum, comp)| Neumaier { sum, comp });
        let sum_sq = q.sum.into_iter().zip(q.comp).map(|(sum, comp)| Neumaier { sum, comp });
        let partials = counts.into_iter().zip(sum).zip(sum_sq);
        for (slot, ((n, sum), sum_sq)) in slots.iter_mut().zip(partials) {
            *slot = MomentSums { n, sum, sum_sq };
        }
    });
    merge_tree(parts, MomentSums::merged).unwrap_or_default()
}

/// Global moment sums (n, Σv, Σv²) over valid lanes — one deterministic
/// pass serving mean, variance and standardize.
pub(crate) fn moments(arr: &MaskedArray) -> MomentSums {
    moments_of(arr.len(), arr)
}

/// Global pair sums over mutually valid lanes of two equal-shape arrays —
/// the shared kernel behind correlation and RMSE.
pub(crate) fn pair_sums(a: &MaskedArray, b: &MaskedArray) -> PairSums {
    let n = a.len().min(b.len());
    let (ad, am) = (a.data(), a.mask());
    let (bd, bm) = (b.data(), b.mask());
    blocked(
        n,
        |r| {
            let mut p = PairSums::default();
            let xd = ad.get(r.clone()).unwrap_or_default();
            let xm = am.get(r.clone()).unwrap_or_default();
            let yd = bd.get(r.clone()).unwrap_or_default();
            let ym = bm.get(r).unwrap_or_default();
            for (((&x, &mx), &y), &my) in xd.iter().zip(xm).zip(yd).zip(ym) {
                if !mx && !my {
                    p.push(x as f64, y as f64);
                }
            }
            p
        },
        PairSums::merged,
    )
    .unwrap_or_default()
}

/// Splits `shape` at `axis` into `(outer, k, inner)` and the reduced output
/// shape, validating the axis.
fn axis_split(shape: &[usize], axis: usize) -> Result<(usize, usize, usize, Vec<usize>)> {
    if axis >= shape.len() {
        return Err(CdmsError::AxisOutOfRange { axis, rank: shape.len() });
    }
    let outer: usize = shape.iter().take(axis).product();
    let k = shape.get(axis).copied().unwrap_or(1);
    let inner: usize = shape.iter().skip(axis + 1).product();
    let mut out_shape: Vec<usize> = shape.to_vec();
    out_shape.remove(axis);
    if out_shape.is_empty() {
        out_shape.push(1);
    }
    Ok((outer, k, inner, out_shape))
}

/// Output cells per axis-reduction tile: the two `f64` accumulator rows
/// and the staged input rows of one tile (21 KB) stay L1-resident while the
/// reduced axis streams past.
const TILE: usize = 1024;

/// One axis row into the accumulators of its cells: a masked lane adds
/// `+0.0` to both.
#[inline]
fn add_weighted_row(wsum: &mut [f64], vsum: &mut [f64], w: f64, d: &[f32], m: &[bool]) {
    for (((ws, vs), &v), &masked) in wsum.iter_mut().zip(vsum.iter_mut()).zip(d).zip(m) {
        *ws += if masked { 0.0 } else { w };
        *vs += if masked { 0.0 } else { w * f64::from(v) };
    }
}

/// Weighted mean along `axis` of the `shape`d field behind `src` — the one
/// loop under [`weighted_mean_axis`], [`mean_axis`] and
/// the fused pipeline's latitude reduction.
///
/// The output is cut into tiles of at most [`TILE`] cells, distributed
/// over the pool: a run of one outer slab's inner dimension when that is
/// longer than a tile (so an outermost reduced axis still parallelises and
/// its accumulators stay cache-resident), else as many whole slabs as fit.
/// Each cell still accumulates serially in ascending axis order with plain
/// `f64` sums, so neither tiling nor thread count can change a bit. Masked
/// lanes add `+0.0` to both sums.
pub(crate) fn weighted_mean_axis_of(
    shape: &[usize],
    axis: usize,
    weights: &[f64],
    src: &impl RowSource,
) -> Result<MaskedArray> {
    let (outer, k, inner, out_shape) = axis_split(shape, axis)?;
    if weights.len() != k {
        return Err(CdmsError::ShapeMismatch { expected: vec![k], got: vec![weights.len()] });
    }
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    let inner = inner.max(1);
    // Inner runs that fit a tile: the whole slabs one tile covers and, as
    // consecutive axis rows of a slab are contiguous in the source, the
    // rows one read stages. Both are 1 for a slab longer than a tile.
    let fit = (TILE / inner).max(1);
    // (first output cell, the tile's cells)
    let mut tiles: Vec<(usize, &mut [f32], &mut [bool])> = data
        .chunks_mut(fit * inner)
        .zip(mask.chunks_mut(fit * inner))
        .enumerate()
        .flat_map(|(g, (dd, mm))| {
            dd.chunks_mut(TILE)
                .zip(mm.chunks_mut(TILE))
                .enumerate()
                .map(move |(t, (dd, mm))| (g * fit * inner + t * TILE, dd, mm))
        })
        .collect();
    tiles.par_iter_mut().for_each(|(first, dd, mm)| {
        let (mut wsum, mut vsum) = ([0.0f64; TILE], [0.0f64; TILE]);
        let (mut stage_d, mut stage_m) = ([0.0f32; TILE], [false; TILE]);
        let (o, i0) = (*first / inner, *first % inner);
        // one piece per outer slab the tile touches
        let pieces = wsum.chunks_mut(inner).zip(vsum.chunks_mut(inner)).zip(dd.chunks(inner));
        for (p, ((wsum, vsum), cells)) in pieces.enumerate() {
            let len = cells.len();
            let at = (o + p) * k * inner + i0;
            for (r, ws) in weights.chunks(fit).enumerate() {
                let (d, _) = stage_d.split_at_mut(ws.len() * len);
                let (m, _) = stage_m.split_at_mut(ws.len() * len);
                let (d, m) = src.rows(at + r * fit * inner, d, m);
                for ((&w, row_d), row_m) in ws.iter().zip(d.chunks(len)).zip(m.chunks(len)) {
                    add_weighted_row(wsum, vsum, w, row_d, row_m);
                }
            }
        }
        for (((d, mk), &ws), &vs) in dd.iter_mut().zip(mm.iter_mut()).zip(&wsum).zip(&vsum) {
            // divide first, select after: the quotient of an empty cell is
            // discarded, and the loop stays branch-free
            let (mean, valid) = ((vs / ws) as f32, ws > 0.0);
            *d = if valid { mean } else { 0.0 };
            *mk = !valid;
        }
    });
    MaskedArray::with_mask(data, mask, &out_shape)
}

/// Weighted mean along `axis` (one weight per axis index), masked lanes
/// excluded from the normalization — `cdms`'s `weighted_mean_axis`, but
/// parallel over tiles of output cells. Each cell accumulates serially in
/// ascending axis order with plain `f64` sums: the identical order and
/// precision of the eager kernel, so results are bit-identical to it *and*
/// invariant under thread count.
pub fn weighted_mean_axis(arr: &MaskedArray, axis: usize, weights: &[f64]) -> Result<MaskedArray> {
    weighted_mean_axis_of(arr.shape(), axis, weights, arr)
}

/// Unweighted mean along `axis` — the `reduce_axis(Mean)` replacement used
/// by `climatology::anomaly`: [`weighted_mean_axis`] with every weight
/// `1.0`, where `1.0 * v` is `v` and the weight sum is the valid count, both
/// exactly — the eager kernel's per-cell ascending-order `f64` sum over its
/// count, bit for bit.
pub fn mean_axis(arr: &MaskedArray, axis: usize) -> Result<MaskedArray> {
    let k = arr.shape().get(axis).copied().unwrap_or(0);
    weighted_mean_axis(arr, axis, &vec![1.0; k])
}

/// Mean over a *subset* of indices along `axis` (e.g. the timesteps of one
/// calendar month), the kernel behind `climatology::mean_over_months`.
///
/// Accumulation is `f32` in the given `selected` order — the exact
/// arithmetic of the pre-fusion eager loop (first contribution assigns,
/// later ones add), so results are bit-identical to it — with output cells
/// distributed over the pool.
pub(crate) fn selected_mean_axis(
    arr: &MaskedArray,
    axis: usize,
    selected: &[usize],
) -> Result<MaskedArray> {
    let (outer, k, inner, out_shape) = axis_split(arr.shape(), axis)?;
    if selected.is_empty() {
        return Err(CdmsError::EmptySelection("no indices selected".into()));
    }
    if let Some(&bad) = selected.iter().find(|&&j| j >= k) {
        return Err(CdmsError::AxisOutOfRange { axis: bad, rank: k });
    }
    let (src_d, src_m) = (arr.data(), arr.mask());
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    data.par_chunks_mut(inner.max(1))
        .zip(mask.par_chunks_mut(inner.max(1)))
        .enumerate()
        .for_each(|(o, (dd, mm))| {
            let mut cnt = vec![0u32; dd.len()];
            for &j in selected {
                let base = (o * k + j) * inner;
                let drow = src_d.get(base..base + inner).unwrap_or_default();
                let mrow = src_m.get(base..base + inner).unwrap_or_default();
                for (((d, c), &v), &m) in dd.iter_mut().zip(cnt.iter_mut()).zip(drow).zip(mrow)
                {
                    if !m {
                        // first valid contribution assigns (not adds):
                        // preserves the eager loop's bit pattern for -0.0
                        if *c == 0 {
                            *d = v;
                        } else {
                            *d += v;
                        }
                        *c += 1;
                    }
                }
            }
            for ((d, mk), &c) in dd.iter_mut().zip(mm.iter_mut()).zip(&cnt) {
                if c > 0 {
                    *d /= c as f32;
                } else {
                    *d = 0.0;
                    *mk = true;
                }
            }
        });
    MaskedArray::with_mask(data, mask, &out_shape)
}

/// Minimum along `axis`, masked lanes skipped, empty cells masked — the
/// deterministic-parallel `reduce_axis(Min)`: same strict-compare
/// accumulation (from `+∞`, ascending axis order) as the eager kernel, so
/// results are bit-identical to it, with outer slabs distributed over the
/// pool. Order-insensitive anyway for NaN-free data, so thread-count
/// invariance is immediate.
pub(crate) fn min_axis(arr: &MaskedArray, axis: usize) -> Result<MaskedArray> {
    extreme_axis(arr, axis, true)
}

/// Maximum along `axis` — [`min_axis`]'s mirror (from `−∞`).
pub(crate) fn max_axis(arr: &MaskedArray, axis: usize) -> Result<MaskedArray> {
    extreme_axis(arr, axis, false)
}

fn extreme_axis(arr: &MaskedArray, axis: usize, want_min: bool) -> Result<MaskedArray> {
    let (outer, k, inner, out_shape) = axis_split(arr.shape(), axis)?;
    let (src_d, src_m) = (arr.data(), arr.mask());
    let init = if want_min { f32::INFINITY } else { f32::NEG_INFINITY };
    let mut data = vec![init; outer * inner];
    let mut mask = vec![false; outer * inner];
    data.par_chunks_mut(inner.max(1))
        .zip(mask.par_chunks_mut(inner.max(1)))
        .enumerate()
        .for_each(|(o, (dd, mm))| {
            let mut cnt = vec![0u32; dd.len()];
            for j in 0..k {
                let base = (o * k + j) * inner;
                let drow = src_d.get(base..base + inner).unwrap_or_default();
                let mrow = src_m.get(base..base + inner).unwrap_or_default();
                for (((d, c), &v), &m) in dd.iter_mut().zip(cnt.iter_mut()).zip(drow).zip(mrow)
                {
                    if !m {
                        // strict compare, exactly the eager Acc::push
                        if (want_min && v < *d) || (!want_min && v > *d) {
                            *d = v;
                        }
                        *c += 1;
                    }
                }
            }
            for ((d, mk), &c) in dd.iter_mut().zip(mm.iter_mut()).zip(&cnt) {
                if c == 0 {
                    *d = 0.0;
                    *mk = true;
                }
            }
        });
    MaskedArray::with_mask(data, mask, &out_shape)
}

/// The `q`-th percentile (0–100) along `axis`: per output cell, the valid
/// values are collected, sorted with `total_cmp` (a total order, so the
/// result is deterministic), and linearly interpolated at rank
/// `q/100 × (n−1)` in `f64`. Masked lanes are skipped; cells with no valid
/// input are masked. Output cells are independent, so parallelism over the
/// outer slabs cannot change any cell's value.
pub(crate) fn percentile_axis(arr: &MaskedArray, axis: usize, q: f64) -> Result<MaskedArray> {
    if !(0.0..=100.0).contains(&q) {
        return Err(CdmsError::Invalid(format!("percentile {q} outside [0, 100]")));
    }
    let (outer, k, inner, out_shape) = axis_split(arr.shape(), axis)?;
    let (src_d, src_m) = (arr.data(), arr.mask());
    let mut data = vec![0.0f32; outer * inner];
    let mut mask = vec![false; outer * inner];
    data.par_chunks_mut(inner.max(1))
        .zip(mask.par_chunks_mut(inner.max(1)))
        .enumerate()
        .for_each(|(o, (dd, mm))| {
            // per-slab scratch, reused across the slab's cells (cap = k)
            let mut vals: Vec<f32> = Vec::with_capacity(k);
            for (i, (d, mk)) in dd.iter_mut().zip(mm.iter_mut()).enumerate() {
                vals.clear();
                for j in 0..k {
                    let idx = (o * k + j) * inner + i;
                    if !src_m.get(idx).copied().unwrap_or(true) {
                        vals.push(src_d.get(idx).copied().unwrap_or(0.0));
                    }
                }
                if vals.is_empty() {
                    *mk = true;
                    continue;
                }
                vals.sort_by(f32::total_cmp);
                let rank = q / 100.0 * (vals.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let f = rank - lo as f64;
                let a = f64::from(vals.get(lo).copied().unwrap_or(0.0));
                let b = f64::from(vals.get(hi).copied().unwrap_or(0.0));
                *d = (a + (b - a) * f) as f32;
            }
        });
    MaskedArray::with_mask(data, mask, &out_shape)
}

#[cfg(test)]
impl PairSums {
    /// Root-mean-square difference over the pairs; `None` when empty.
    pub(crate) fn rmse(&self) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        Some((self.sdd.value() / self.n as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::with_threads;

    #[test]
    fn min_max_axis_match_eager_bits() {
        let data: Vec<f32> = (0..120).map(|i| (i as f32).sin() * 10.0).collect();
        let mask: Vec<bool> = (0..120).map(|i| i % 7 == 3).collect();
        let a = MaskedArray::with_mask(data, mask, &[5, 4, 6]).unwrap();
        for axis in 0..3 {
            let mins = min_axis(&a, axis).unwrap();
            let maxs = max_axis(&a, axis).unwrap();
            let emin = a.reduce_axis(axis, cdms::array::Reduction::Min).unwrap();
            let emax = a.reduce_axis(axis, cdms::array::Reduction::Max).unwrap();
            assert_eq!(mins.mask(), emin.mask(), "axis {axis}");
            assert_eq!(maxs.mask(), emax.mask(), "axis {axis}");
            let b = |m: &MaskedArray| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(b(&mins), b(&emin), "axis {axis}");
            assert_eq!(b(&maxs), b(&emax), "axis {axis}");
        }
    }

    #[test]
    fn percentile_axis_interpolates_and_masks() {
        // column [1, 2, 3, 100(masked)] → median 2, p0 1, p100 3
        let a = MaskedArray::with_mask(
            vec![1.0, 2.0, 3.0, 100.0],
            vec![false, false, false, true],
            &[4, 1],
        )
        .unwrap();
        assert_eq!(percentile_axis(&a, 0, 50.0).unwrap().data(), &[2.0]);
        assert_eq!(percentile_axis(&a, 0, 0.0).unwrap().data(), &[1.0]);
        assert_eq!(percentile_axis(&a, 0, 100.0).unwrap().data(), &[3.0]);
        // p25 of [1,2,3] = 1.5 (linear interpolation)
        assert_eq!(percentile_axis(&a, 0, 25.0).unwrap().data(), &[1.5]);
        // all-masked column masks the output
        let all = MaskedArray::with_mask(vec![1.0, 2.0], vec![true, true], &[2, 1]).unwrap();
        assert!(percentile_axis(&all, 0, 50.0).unwrap().mask()[0]);
        assert!(percentile_axis(&a, 0, 101.0).is_err());
        assert!(percentile_axis(&a, 2, 50.0).is_err());
    }

    #[test]
    fn neumaier_recovers_lost_low_bits() {
        // 1.0 + 1e16 + (-1e16) == 0 in plain f64 summation order 1e16 first
        let mut acc = Neumaier::default();
        for v in [1.0, 1e16, -1e16] {
            acc.add(v);
        }
        assert_eq!(acc.value(), 1.0);
    }

    #[test]
    fn moments_match_naive_on_small_input() {
        let a = MaskedArray::with_mask(
            vec![1.0, 2.0, 3.0, 100.0],
            vec![false, false, false, true],
            &[4],
        )
        .unwrap();
        let m = moments(&a);
        assert_eq!(m.n, 3);
        assert!((m.mean().unwrap() - 2.0).abs() < 1e-12);
        assert!((m.variance().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// The ordered accumulator the lane kernel replaced, kept verbatim as
    /// the oracle: Neumaier's branch on `|sum| >= |v|`.
    #[derive(Clone, Copy, Default)]
    struct OrderedNeumaier {
        sum: f64,
        comp: f64,
    }

    impl OrderedNeumaier {
        fn add(&mut self, v: f64) {
            let t = self.sum + v;
            if self.sum.abs() >= v.abs() {
                self.comp += (self.sum - t) + v;
            } else {
                self.comp += (v - t) + self.sum;
            }
            self.sum = t;
        }

        fn merge(&mut self, o: &OrderedNeumaier) {
            self.add(o.sum);
            self.comp += o.comp;
        }
    }

    type OrderedMoments = (u64, OrderedNeumaier, OrderedNeumaier);

    /// The moment pass as it was before the lane kernel: one serial loop
    /// per [`BLOCK`], valid lanes pushed one by one, partials merged
    /// pairwise in block order.
    fn ordered_moments(data: &[f32], mask: &[bool]) -> OrderedMoments {
        let mut parts: Vec<OrderedMoments> = data
            .chunks(BLOCK)
            .zip(mask.chunks(BLOCK))
            .map(|(d, m)| {
                let mut p = OrderedMoments::default();
                for (&v, &mk) in d.iter().zip(m) {
                    if !mk {
                        let v = v as f64;
                        p.0 += 1;
                        p.1.add(v);
                        p.2.add(v * v);
                    }
                }
                p
            })
            .collect();
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    a.0 += b.0;
                    a.1.merge(&b.1);
                    a.2.merge(&b.2);
                }
                next.push(a);
            }
            parts = next;
        }
        parts.pop().unwrap_or_default()
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// `n` lanes spanning subnormals to 1e30 in both signs, every fourth
    /// one cancelling the valid lane before it, with ±0.0 sprinkled in; masked lanes
    /// (`masked_pct` % of them) hold NaN, ±∞ or a huge finite value.
    fn hostile_field(n: usize, masked_pct: u64, seed: u64) -> (Vec<f32>, Vec<bool>) {
        let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut data: Vec<f32> = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        let mut last_valid = 0.0;
        for i in 0..n {
            let r = xorshift(&mut rng);
            let masked = r % 100 < masked_pct;
            let v = if masked {
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MAX][(r >> 8) as usize % 4]
            } else if i % 4 == 3 {
                -last_valid
            } else if r.is_multiple_of(53) {
                if r & 1 << 20 == 0 { 0.0 } else { -0.0 }
            } else {
                let magnitude = 10f32.powi((r >> 32) as i32 % 76 - 45);
                let mantissa = 1.0 + (r >> 40) as f32 / (1u64 << 24) as f32;
                if r & 1 << 21 == 0 { magnitude * mantissa } else { -magnitude * mantissa }
            };
            if !masked {
                last_valid = v;
            }
            data.push(v);
            mask.push(masked);
        }
        (data, mask)
    }

    fn sums_bits(n: u64, sum: (f64, f64), sum_sq: (f64, f64)) -> (u64, [u64; 4]) {
        (n, [sum.0, sum.1, sum_sq.0, sum_sq.1].map(f64::to_bits))
    }

    #[test]
    fn lane_moments_equal_the_ordered_neumaier_blocks_bit_for_bit() {
        let lengths = [
            0,
            1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            4 * BLOCK - 1,
            4 * BLOCK,
            4 * BLOCK + 1,
            5 * BLOCK + 17,
            37 * BLOCK,
        ];
        for (case, &n) in lengths.iter().enumerate() {
            for masked_pct in [0, 20, 100] {
                let (data, mask) = hostile_field(n, masked_pct, case as u64 * 3 + masked_pct);
                let (rn, rs, rq) = ordered_moments(&data, &mask);
                let want = sums_bits(rn, (rs.sum, rs.comp), (rq.sum, rq.comp));
                if masked_pct < 100 && n > 0 {
                    assert!((rs.sum + rs.comp).is_finite(), "the oracle saw only finite lanes");
                }
                let arr = MaskedArray::with_mask(data, mask, &[n]).unwrap();
                for threads in [1, 2, 8] {
                    let m = with_threads(threads, || moments(&arr));
                    let got = sums_bits(
                        m.n,
                        (m.sum.sum, m.sum.comp),
                        (m.sum_sq.sum, m.sum_sq.comp),
                    );
                    assert_eq!(got, want, "n {n}, {masked_pct}% masked, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn a_valid_non_finite_lane_makes_the_mean_nan_as_before() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0, 5, BLOCK + 3, 5 * BLOCK + 16] {
                let (mut data, mask) = hostile_field(5 * BLOCK + 17, 0, 7);
                data[at] = bad;
                let (n, sum, _) = ordered_moments(&data, &mask);
                assert!(((sum.sum + sum.comp) / n as f64).is_nan());
                let m = moments(&MaskedArray::with_mask(data, mask, &[n as usize]).unwrap());
                assert_eq!(m.n, n);
                assert!(m.mean().unwrap().is_nan(), "{bad} at {at}");
            }
        }
    }

    #[test]
    fn pair_sums_correlation_and_rmse() {
        let x = MaskedArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let y = MaskedArray::from_vec(vec![2.0, 4.0, 6.0, 8.0], &[4]).unwrap();
        let p = pair_sums(&x, &y);
        assert_eq!(p.n, 4);
        assert!((p.correlation().unwrap() - 1.0).abs() < 1e-12);
        // rmse of (1,2,3,4) vs itself is 0
        assert!(pair_sums(&x, &x).rmse().unwrap() < 1e-12);
    }

    #[test]
    fn weighted_mean_axis_matches_eager_bits() {
        let n = BLOCK + 77;
        let data: Vec<f32> = (0..n * 3).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let mask: Vec<bool> = (0..n * 3).map(|i| i % 11 == 0).collect();
        let a = MaskedArray::with_mask(data, mask, &[n, 3]).unwrap();
        let w = [0.2f64, 0.5, 0.3];
        let ours = weighted_mean_axis(&a, 1, &w).unwrap();
        let eager = a.weighted_mean_axis(1, &w).unwrap();
        assert_eq!(ours.mask(), eager.mask());
        let ob: Vec<u32> = ours.data().iter().map(|v| v.to_bits()).collect();
        let eb: Vec<u32> = eager.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ob, eb);
    }

    #[test]
    fn mean_axis_matches_eager_bits() {
        let data: Vec<f32> = (0..120).map(|i| (i as f32).sin() * 10.0).collect();
        let mask: Vec<bool> = (0..120).map(|i| i % 7 == 3).collect();
        let a = MaskedArray::with_mask(data, mask, &[5, 4, 6]).unwrap();
        for axis in 0..3 {
            let ours = mean_axis(&a, axis).unwrap();
            let eager = a.reduce_axis(axis, cdms::array::Reduction::Mean).unwrap();
            assert_eq!(ours.shape(), eager.shape());
            assert_eq!(ours.mask(), eager.mask(), "axis {axis}");
            let ob: Vec<u32> = ours.data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = eager.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ob, eb, "axis {axis}");
        }
    }

    #[test]
    fn selected_mean_validates() {
        let a = MaskedArray::zeros(&[4, 2]);
        assert!(selected_mean_axis(&a, 0, &[]).is_err());
        assert!(selected_mean_axis(&a, 0, &[4]).is_err());
        assert!(selected_mean_axis(&a, 5, &[0]).is_err());
        let m = selected_mean_axis(&a, 0, &[1, 3]).unwrap();
        assert_eq!(m.shape(), &[2]);
    }
}
