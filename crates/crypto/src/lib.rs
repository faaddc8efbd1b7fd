//! Hash-based cryptography for the atomic swap system.
//!
//! The paper needs exactly two primitives (§2.2, §4.1):
//!
//! 1. a cryptographic hash function `H(·)` for hashlocks — a leader creates
//!    a secret `s` and publishes `h = H(s)`; producing `s` opens the lock;
//! 2. digital signatures `sig(x, v)` so hashkeys can carry the nested chain
//!    `σ = sig(···sig(s, u_k) ···, u_0)` proving every party along the path
//!    endorsed the secret's release.
//!
//! Both are built from scratch on SHA-256 (no external crypto crates are on
//! the sanctioned dependency list):
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256, tested against the NIST example
//!   vectors,
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), used for deterministic key
//!   derivation,
//! * [`secret`] — [`Secret`]s and [`Hashlock`]s,
//! * [`merkle`] — Merkle trees with inclusion proofs,
//! * [`wots`] — Winternitz (`w = 16`) one-time signatures over 256-bit
//!   digests,
//! * [`mss`] — a Merkle signature scheme turning 2^h one-time keys into one
//!   many-time identity (this is what parties sign hashkeys with),
//! * [`sigchain`] — the nested hashkey signature chains of §4.1.
//!
//! # Example
//!
//! ```
//! use swap_crypto::{Hashlock, Secret};
//! let s = Secret::from_bytes([7u8; 32]);
//! let h = s.hashlock();
//! assert!(h.matches(&s));
//! assert!(!h.matches(&Secret::from_bytes([8u8; 32])));
//! ```

// `deny`, not `forbid` like every other crate: exactly one private module,
// `sha256::x86`, carries an `#[allow]`, because the instructions are
// reachable only through `unsafe` intrinsics. It holds the compression
// kernels on x86-64 vector extensions: sixteen blocks at once on
// AVX-512F, under every Winternitz walk; and on SHA-NI one block, under
// every other hash, and two interleaved, the sixteen-lane entry point's
// fallback without AVX-512F.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
pub mod merkle;
pub mod mss;
pub mod secret;
pub mod sha256;
pub mod sigchain;
pub mod wots;

pub use hmac::HmacEngine;
pub use mss::{KeysExhaustedError, MssKeypair, MssPublicKey, MssSignature};
pub use secret::{Hashlock, Secret};
pub use sha256::{sha256, sha256_pair, Digest32};
pub use sigchain::{Address, SigChain, SigChainError};
