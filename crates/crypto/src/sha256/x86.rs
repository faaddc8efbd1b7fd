//! The SHA-256 compression function on x86-64 vector extensions: one
//! block or two interleaved blocks on the SHA extensions, and sixteen
//! independent blocks at once on AVX-512F.
//!
//! This is the only module in the workspace that contains `unsafe`: the
//! instructions are reachable only through `core::arch` intrinsics inside
//! a `#[target_feature]` function, and calling one is undefined behaviour
//! on a CPU without the feature. The three safe entry points,
//! [`compress_block`], [`compress_pair`] and [`compress_x16`], ask the CPU
//! first and report whether they ran, so the caller falls back to another
//! kernel everywhere else.
//!
//! `sha256rnds2` performs two rounds on a state held as two vectors in the
//! odd `ABEF` / `CDGH` lane order and takes the two `W + K` words from the
//! low half of a third; `sha256msg1` / `sha256msg2` are the two halves of
//! the σ0 / σ1 schedule recurrence, four words at a time. Within one
//! compression every `sha256rnds2` waits on the one before it, so a lone
//! block runs at that instruction's latency. [`compress_pair`] issues two
//! unrelated compressions' rounds alternately, and each fills the other's
//! wait: eight pairs are the sixteen-lane entry point's fallback on a
//! CPU without AVX-512F.
//!
//! [`compress_x16`] takes another route: no SHA instruction, but the
//! scalar rounds written once over 512-bit vectors, each 32-bit lane a
//! different block. The state and the message are word-major, one vector
//! per word, so one sequence of vector operations runs a round of all
//! sixteen lanes; `vprord` rotates in one instruction, and `vpternlogd`
//! computes each three-input function (Ch, Maj, the three-way XORs of Σ
//! and σ) in one. Every Winternitz walk runs on it: keygen, whose chains
//! all run from position 0 to the top, fills the sixteen lanes on every
//! call, and signing and verification keep them busy by walking their
//! uneven chains longest first, refilling a lane as its chain ends.

use core::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_ror_epi32, _mm512_set1_epi32,
    _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm_add_epi32,
    _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x, _mm_sha256msg1_epu32,
    _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
    _mm_storeu_si128,
};

use super::K;

/// Whether this CPU has every extension the SHA-NI kernels use. std
/// caches CPUID, so each check is one relaxed load and a bit test.
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

/// Runs sixteen independent compressions on AVX-512F if this CPU has it
/// and returns whether it did; on `false`, `states` is untouched. The
/// layout is word-major: lane `i` compresses the block
/// `words[0][i], …, words[15][i]` into the state
/// `states[0][i], …, states[7][i]`.
#[inline]
pub(super) fn compress_x16(states: &mut [[u32; 16]; 8], words: &[[u32; 16]; 16]) -> bool {
    if !is_x86_feature_detected!("avx512f") {
        return false;
    }
    // SAFETY: avx512f, checked directly above, is all `compress_x16_avx512`
    // asks of its caller.
    unsafe { compress_x16_avx512(states, words) };
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

/// `vpternlogd` truth tables over `(x, y, z)`: `x ^ y ^ z`, `x ? y : z`
/// (SHA-256's Ch) and the majority of the three (its Maj).
const XOR3: i32 = 0x96;
const CHOOSE: i32 = 0xCA;
const MAJORITY: i32 = 0xE8;

/// One round on sixteen lanes, register roles as in the scalar kernel's
/// `round!`: `d` gains `T1` and `h` becomes `T1 + T2`.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn round_x16(
    [a, b, c]: [__m512i; 3],
    d: &mut __m512i,
    [e, f, g]: [__m512i; 3],
    h: &mut __m512i,
    w: __m512i,
    k: u32,
) {
    let big_sigma1 = _mm512_ternarylogic_epi32(
        _mm512_ror_epi32(e, 6),
        _mm512_ror_epi32(e, 11),
        _mm512_ror_epi32(e, 25),
        XOR3,
    );
    let ch = _mm512_ternarylogic_epi32(e, f, g, CHOOSE);
    let kw = _mm512_add_epi32(w, _mm512_set1_epi32(k as i32));
    let t1 = _mm512_add_epi32(_mm512_add_epi32(*h, big_sigma1), _mm512_add_epi32(ch, kw));
    let big_sigma0 = _mm512_ternarylogic_epi32(
        _mm512_ror_epi32(a, 2),
        _mm512_ror_epi32(a, 13),
        _mm512_ror_epi32(a, 22),
        XOR3,
    );
    let t2 = _mm512_add_epi32(big_sigma0, _mm512_ternarylogic_epi32(a, b, c, MAJORITY));
    *d = _mm512_add_epi32(*d, t1);
    *h = _mm512_add_epi32(t1, t2);
}

/// Advances the sixteen-word schedule window by a whole turn: on entry
/// `w[i]` is `W[t - 16 + i]`, on return `W[t + i]`. Updated in index
/// order, each word finds `W[t + i - 15]`, `W[t + i - 7]` and
/// `W[t + i - 2]` in the window already, old or new.
///
/// # Safety
///
/// The CPU must support `avx512f`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn schedule_x16(w: &mut [__m512i; 16]) {
    for i in 0..16 {
        let (w15, w7, w2) = (w[(i + 1) % 16], w[(i + 9) % 16], w[(i + 14) % 16]);
        let sigma0 = _mm512_ternarylogic_epi32(
            _mm512_ror_epi32(w15, 7),
            _mm512_ror_epi32(w15, 18),
            _mm512_srli_epi32(w15, 3),
            XOR3,
        );
        let sigma1 = _mm512_ternarylogic_epi32(
            _mm512_ror_epi32(w2, 17),
            _mm512_ror_epi32(w2, 19),
            _mm512_srli_epi32(w2, 10),
            XOR3,
        );
        w[i] = _mm512_add_epi32(_mm512_add_epi32(w[i], sigma0), _mm512_add_epi32(w7, sigma1));
    }
}

/// Sixteen compressions at once, one per 32-bit lane, in [`compress_x16`]'s
/// word-major layout: the 64 rounds over eight state vectors and a
/// sixteen-vector schedule window, unrolled eight rounds at a time with
/// rotating register roles.
///
/// # Safety
///
/// The CPU must support `avx512f`. Memory safety needs nothing from the
/// caller: every load and store goes through one of the two references,
/// unaligned, one vector per inner array of 16 words.
#[target_feature(enable = "avx512f")]
unsafe fn compress_x16_avx512(states: &mut [[u32; 16]; 8], words: &[[u32; 16]; 16]) {
    let mut w = [_mm512_set1_epi32(0); 16];
    for (w, words) in w.iter_mut().zip(words) {
        *w = _mm512_loadu_si512(words.as_ptr().cast());
    }
    let mut input = [_mm512_set1_epi32(0); 8];
    for (input, state) in input.iter_mut().zip(states.iter()) {
        *input = _mm512_loadu_si512(state.as_ptr().cast());
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = input;
    for t in (0..64).step_by(16) {
        if t > 0 {
            schedule_x16(&mut w);
        }
        for i in (0..16).step_by(8) {
            let k = &K[t + i..t + i + 8];
            round_x16([a, b, c], &mut d, [e, f, g], &mut h, w[i], k[0]);
            round_x16([h, a, b], &mut c, [d, e, f], &mut g, w[i + 1], k[1]);
            round_x16([g, h, a], &mut b, [c, d, e], &mut f, w[i + 2], k[2]);
            round_x16([f, g, h], &mut a, [b, c, d], &mut e, w[i + 3], k[3]);
            round_x16([e, f, g], &mut h, [a, b, c], &mut d, w[i + 4], k[4]);
            round_x16([d, e, f], &mut g, [h, a, b], &mut c, w[i + 5], k[5]);
            round_x16([c, d, e], &mut f, [g, h, a], &mut b, w[i + 6], k[6]);
            round_x16([b, c, d], &mut e, [f, g, h], &mut a, w[i + 7], k[7]);
        }
    }
    for ((state, input), out) in states.iter_mut().zip(input).zip([a, b, c, d, e, f, g, h]) {
        _mm512_storeu_si512(state.as_mut_ptr().cast(), _mm512_add_epi32(input, out));
    }
}
