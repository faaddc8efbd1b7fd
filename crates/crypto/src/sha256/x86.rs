//! The SHA-256 compression function on the x86-64 SHA extensions.
//!
//! This is the only module in the workspace that contains `unsafe`: the
//! SHA-NI instructions are reachable only through `core::arch` intrinsics
//! inside a `#[target_feature]` function, and calling one is undefined
//! behaviour on a CPU without the feature. The single safe entry point,
//! [`compress_block`], asks the CPU first and reports whether it ran, so
//! the caller falls back to the scalar rounds everywhere else.
//!
//! `sha256rnds2` performs two rounds on a state held as two vectors in the
//! odd `ABEF` / `CDGH` lane order and takes the two `W + K` words from the
//! low half of a third; `sha256msg1` / `sha256msg2` are the two halves of
//! the σ0 / σ1 schedule recurrence, four words at a time.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Runs one compression on the SHA extensions if this CPU has them and
/// returns whether it did; on `false`, `state` is untouched.
#[inline]
pub(super) fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    // std caches CPUID, so each check is one relaxed load and a bit test.
    if !(is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: the three `is_x86_feature_detected!` checks directly above
    // returned true (SSE2 is part of the x86-64 baseline), which is all
    // `compress_sha_ni` asks of its caller.
    unsafe { compress_sha_ni(state, block) };
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

    // [a, b, c, d] and [e, f, g, h] in memory order → ABEF and CDGH.
    let dcba = _mm_loadu_si128(state_ptr);
    let hgfe = _mm_loadu_si128(state_ptr.add(1));
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let abef_in = _mm_alignr_epi8(cdab, efgh, 8);
    let cdgh_in = _mm_blend_epi16(efgh, cdab, 0xF0);
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

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
}
