//! The SHA-256 compression function on the x86-64 SHA extensions, one
//! block at a time or two independent blocks interleaved.
//!
//! This is the only module in the workspace that contains `unsafe`: the
//! SHA-NI instructions are reachable only through `core::arch` intrinsics
//! inside a `#[target_feature]` function, and calling one is undefined
//! behaviour on a CPU without the feature. The two safe entry points,
//! [`compress_block`] and [`compress_pair`], ask the CPU first and report
//! whether they ran, so the caller falls back to the scalar rounds
//! everywhere else.
//!
//! `sha256rnds2` performs two rounds on a state held as two vectors in the
//! odd `ABEF` / `CDGH` lane order and takes the two `W + K` words from the
//! low half of a third; `sha256msg1` / `sha256msg2` are the two halves of
//! the σ0 / σ1 schedule recurrence, four words at a time. Within one
//! compression every `sha256rnds2` waits on the one before it, so a lone
//! block runs at that instruction's latency. [`compress_pair`] issues two
//! unrelated compressions' rounds alternately, and each fills the other's
//! wait: this is what a Winternitz chain walk (many independent chains,
//! each serial) runs on.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Whether this CPU has every extension the kernels use. std caches CPUID,
/// so each check is one relaxed load and a bit test.
#[inline]
fn detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Runs one compression on the SHA extensions if this CPU has them and
/// returns whether it did; on `false`, `state` is untouched.
#[inline]
pub(super) fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected` checked sha, ssse3 and sse4.1 directly above (SSE2
    // is part of the x86-64 baseline), which is all `compress_sha_ni` asks
    // of its caller.
    unsafe { compress_sha_ni(state, block) };
    true
}

/// Runs two independent compressions, `words[i]` (sixteen message words,
/// already in native order) into `states[i]`, interleaved on the SHA
/// extensions if this CPU has them, and returns whether it did; on
/// `false`, `states` is untouched.
#[inline]
pub(super) fn compress_pair(states: &mut [[u32; 8]; 2], words: &[[u32; 16]; 2]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: as in `compress_block`, `detected` checked every feature
    // `compress_pair_sha_ni` asks of its caller.
    unsafe { compress_pair_sha_ni(states, words) };
    true
}

/// Four rounds on `w + k`, where `w` is `W[t..t+4]` and `k` points at
/// `K[t..t+4]`.
///
/// # Safety
///
/// The CPU must support `sha` and `sse2`, and `k` must be valid for an
/// unaligned 16-byte read.
#[inline]
#[target_feature(enable = "sha,sse2")]
unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: *const __m128i) {
    let wk = _mm_add_epi32(w, _mm_loadu_si128(k));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// `W[t..t+4]` from the sixteen words before it, `w0..w3` oldest first:
/// msg1 adds σ0 of `W[t-15..]`, the alignr term is `W[t-7..]`, msg2 adds
/// σ1 of `W[t-2..]` (two of which it has just produced itself).
///
/// # Safety
///
/// The CPU must support `sha`, `sse2` and `ssse3`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
unsafe fn schedule4(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(partial, w3)
}

/// `[a, b, c, d, e, f, g, h]` at `state` → the `ABEF` and `CDGH` vectors.
///
/// # Safety
///
/// The CPU must support `sse2`, `ssse3` and `sse4.1`; `state` must be
/// valid for an unaligned 32-byte read.
#[inline]
#[target_feature(enable = "sse2,ssse3,sse4.1")]
unsafe fn load_state(state: *const __m128i) -> (__m128i, __m128i) {
    let cdab = _mm_shuffle_epi32(_mm_loadu_si128(state), 0xB1);
    let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.add(1)), 0x1B);
    (_mm_alignr_epi8(cdab, efgh, 8), _mm_blend_epi16(efgh, cdab, 0xF0))
}

/// The inverse of [`load_state`].
///
/// # Safety
///
/// The CPU must support `sse2`, `ssse3` and `sse4.1`; `state` must be
/// valid for an unaligned 32-byte write.
#[inline]
#[target_feature(enable = "sse2,ssse3,sse4.1")]
unsafe fn store_state(state: *mut __m128i, abef: __m128i, cdgh: __m128i) {
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state, _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(state.add(1), _mm_alignr_epi8(dchg, feba, 8));
}

/// The 64 rounds over `block`, schedule expanded on the fly.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`. Memory safety
/// needs nothing from the caller: every load and store goes through one of
/// the two references, unaligned, within their 32 and 64 bytes.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    let state_ptr = state.as_mut_ptr().cast::<__m128i>();
    let block_ptr = block.as_ptr().cast::<__m128i>();
    // Sixteen vectors of four round constants; `k_ptr.add(t)` below has
    // `t < 16` throughout, so every read stays inside `K`'s 64 words.
    let k_ptr = K.as_ptr().cast::<__m128i>();

    let (abef_in, cdgh_in) = load_state(state_ptr);
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);

    // Message words are big-endian in the block.
    let be32 = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr), be32);
    let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(1)), be32);
    let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(2)), be32);
    let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(3)), be32);
    rounds4(&mut abef, &mut cdgh, w0, k_ptr);
    rounds4(&mut abef, &mut cdgh, w1, k_ptr.add(1));
    rounds4(&mut abef, &mut cdgh, w2, k_ptr.add(2));
    rounds4(&mut abef, &mut cdgh, w3, k_ptr.add(3));
    // Sixteen rounds a turn, so each schedule vector keeps its register.
    for t in (4..16).step_by(4) {
        w0 = schedule4(w0, w1, w2, w3);
        rounds4(&mut abef, &mut cdgh, w0, k_ptr.add(t));
        w1 = schedule4(w1, w2, w3, w0);
        rounds4(&mut abef, &mut cdgh, w1, k_ptr.add(t + 1));
        w2 = schedule4(w2, w3, w0, w1);
        rounds4(&mut abef, &mut cdgh, w2, k_ptr.add(t + 2));
        w3 = schedule4(w3, w0, w1, w2);
        rounds4(&mut abef, &mut cdgh, w3, k_ptr.add(t + 3));
    }

    store_state(state_ptr, _mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in));
}

/// Two lanes of [`compress_sha_ni`]'s rounds, lane `a` over `words[0]`
/// into `states[0]` and lane `b` over `words[1]` into `states[1]`, each
/// step issued for `a` and then for `b`. The lanes share nothing but the
/// round constants, so neither waits on the other.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`. Memory safety
/// needs nothing from the caller: every load and store goes through one of
/// the two references, unaligned, within their 2 × 32 and 2 × 64 bytes.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_pair_sha_ni(states: &mut [[u32; 8]; 2], words: &[[u32; 16]; 2]) {
    let [state_a, state_b] = states;
    let (state_a, state_b) =
        (state_a.as_mut_ptr().cast::<__m128i>(), state_b.as_mut_ptr().cast::<__m128i>());
    let (words_a, words_b) =
        (words[0].as_ptr().cast::<__m128i>(), words[1].as_ptr().cast::<__m128i>());
    // As in `compress_sha_ni`: `t < 16` for every `k_ptr.add(t)`.
    let k_ptr = K.as_ptr().cast::<__m128i>();

    let (abef_a_in, cdgh_a_in) = load_state(state_a);
    let (abef_b_in, cdgh_b_in) = load_state(state_b);
    let (mut abef_a, mut cdgh_a) = (abef_a_in, cdgh_a_in);
    let (mut abef_b, mut cdgh_b) = (abef_b_in, cdgh_b_in);

    // The words are native already: no byte shuffle.
    let mut a0 = _mm_loadu_si128(words_a);
    let mut b0 = _mm_loadu_si128(words_b);
    let mut a1 = _mm_loadu_si128(words_a.add(1));
    let mut b1 = _mm_loadu_si128(words_b.add(1));
    let mut a2 = _mm_loadu_si128(words_a.add(2));
    let mut b2 = _mm_loadu_si128(words_b.add(2));
    let mut a3 = _mm_loadu_si128(words_a.add(3));
    let mut b3 = _mm_loadu_si128(words_b.add(3));
    rounds4(&mut abef_a, &mut cdgh_a, a0, k_ptr);
    rounds4(&mut abef_b, &mut cdgh_b, b0, k_ptr);
    rounds4(&mut abef_a, &mut cdgh_a, a1, k_ptr.add(1));
    rounds4(&mut abef_b, &mut cdgh_b, b1, k_ptr.add(1));
    rounds4(&mut abef_a, &mut cdgh_a, a2, k_ptr.add(2));
    rounds4(&mut abef_b, &mut cdgh_b, b2, k_ptr.add(2));
    rounds4(&mut abef_a, &mut cdgh_a, a3, k_ptr.add(3));
    rounds4(&mut abef_b, &mut cdgh_b, b3, k_ptr.add(3));
    for t in (4..16).step_by(4) {
        a0 = schedule4(a0, a1, a2, a3);
        b0 = schedule4(b0, b1, b2, b3);
        rounds4(&mut abef_a, &mut cdgh_a, a0, k_ptr.add(t));
        rounds4(&mut abef_b, &mut cdgh_b, b0, k_ptr.add(t));
        a1 = schedule4(a1, a2, a3, a0);
        b1 = schedule4(b1, b2, b3, b0);
        rounds4(&mut abef_a, &mut cdgh_a, a1, k_ptr.add(t + 1));
        rounds4(&mut abef_b, &mut cdgh_b, b1, k_ptr.add(t + 1));
        a2 = schedule4(a2, a3, a0, a1);
        b2 = schedule4(b2, b3, b0, b1);
        rounds4(&mut abef_a, &mut cdgh_a, a2, k_ptr.add(t + 2));
        rounds4(&mut abef_b, &mut cdgh_b, b2, k_ptr.add(t + 2));
        a3 = schedule4(a3, a0, a1, a2);
        b3 = schedule4(b3, b0, b1, b2);
        rounds4(&mut abef_a, &mut cdgh_a, a3, k_ptr.add(t + 3));
        rounds4(&mut abef_b, &mut cdgh_b, b3, k_ptr.add(t + 3));
    }

    store_state(state_a, _mm_add_epi32(abef_a, abef_a_in), _mm_add_epi32(cdgh_a, cdgh_a_in));
    store_state(state_b, _mm_add_epi32(abef_b, abef_b_in), _mm_add_epi32(cdgh_b, cdgh_b_in));
}
