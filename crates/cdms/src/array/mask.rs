//! Bit-packed validity masks: 64 lanes per `u64` word.
//!
//! [`MaskedArray`](super::MaskedArray) keeps its public `&[bool]` mask API —
//! every consumer in the workspace borrows it — but the fused analysis
//! kernels in `cdat::expr` operate on *words*: mask propagation for a binary
//! op over 64 elements is a single `OR`, and a zero word proves the whole
//! lane group valid so the `f32` inner loop can skip per-element mask
//! branches entirely. [`pack_into`]/[`unpack_into`] convert chunk-sized
//! windows without an owned allocation.
//!
//! Bit convention matches the `Vec<bool>` mask: bit `i % 64` of word
//! `i / 64` is **1 when element `i` is masked** (missing). Tail bits past
//! `len` are kept at 0 (valid) so popcounts and word-OR over full words stay
//! honest.

/// Number of mask lanes carried per packed word.
pub const LANES: usize = 64;

/// Packs `bools` (true = masked) into `words`; `words` must hold at least
/// `bools.len().div_ceil(64)` entries. Extra words and tail bits are zeroed.
pub fn pack_into(bools: &[bool], words: &mut [u64]) {
    for (w, lanes) in words.iter_mut().zip(bools.chunks(LANES)) {
        let mut acc = 0u64;
        for (bit, &m) in lanes.iter().enumerate() {
            acc |= (m as u64) << bit;
        }
        *w = acc;
    }
    let used = bools.len().div_ceil(LANES);
    for w in words.iter_mut().skip(used) {
        *w = 0;
    }
}

/// Unpacks `words` into `bools` (true = masked), `bools.len()` lanes.
pub fn unpack_into(words: &[u64], bools: &mut [bool]) {
    for (&w, lanes) in words.iter().zip(bools.chunks_mut(LANES)) {
        if w == 0 {
            lanes.fill(false);
        } else {
            for (bit, m) in lanes.iter_mut().enumerate() {
                *m = (w >> bit) & 1 == 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_pack_into_zeroes_spare_words() {
        let bools = vec![true; 10];
        let mut words = [u64::MAX; 3];
        pack_into(&bools, &mut words);
        assert_eq!(words, [(1u64 << 10) - 1, 0, 0]);
        let mut out = vec![true; 10];
        unpack_into(&words, &mut out);
        assert_eq!(out, vec![true; 10]);
    }
}
