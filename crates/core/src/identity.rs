//! Per-address signing identities, minted once and leased leaf-by-leaf.
//!
//! The Merkle signature scheme ([`MssKeypair`]) is the expensive primitive
//! in the whole system: minting a height-`h` identity derives and hashes
//! `2^h` Winternitz one-time keys before a single swap can run. The naive
//! exchange paid that cost once per *swap* — every provisioning round
//! regenerated full keypairs even for addresses it had already seen, and
//! (worse) handed every swap a clone starting at leaf 0, silently reusing
//! one-time leaves across swaps.
//!
//! The [`IdentityStore`] fixes both ends:
//!
//! * **Amortized keygen.** Each [`Address`] gets exactly one master
//!   [`MssKeypair`], registered at first submit. Later swaps by the same
//!   address reuse it; the `2^h` keygen is paid once per identity, not once
//!   per swap.
//! * **Leaf accounting.** Provisioning [`lease`]s a *window* of unused
//!   one-time leaves from the master handle ([`MssKeypair::lease`]), so
//!   concurrent swaps sign with disjoint leaf indices and no
//!   `(address, leaf_index)` pair ever signs twice. Leases share the
//!   master's Merkle tree by [`Arc`](std::sync::Arc), so carving one is a
//!   counter bump, not a tree copy.
//! * **Checked exhaustion.** When an identity's `2^h` leaves run out, the
//!   store reports [`LeaseError::Exhausted`] and the exchange refunds the
//!   affected swap — a checked error path, never a panic mid-epoch.
//!
//! [`lease`]: IdentityStore::lease

use std::collections::BTreeMap;

use swap_crypto::{Address, KeysExhaustedError, MssKeypair, MssPublicKey};

/// Why a [`lease`](IdentityStore::lease) could not be carved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseError {
    /// The address was never registered with the store.
    UnknownAddress,
    /// The identity exists but has fewer unused one-time leaves than the
    /// lease asked for.
    Exhausted(KeysExhaustedError),
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::UnknownAddress => write!(f, "address has no registered identity"),
            LeaseError::Exhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LeaseError {}

/// One master keypair per address, leased leaf-by-leaf to successive swaps.
///
/// See the [module docs](self) for the design. The store is deliberately
/// append-only: identities are never evicted, because an evicted identity's
/// consumed-leaf counter would be forgotten and a re-registration could
/// rewind it into one-time-key reuse.
#[derive(Debug, Default)]
pub struct IdentityStore {
    identities: BTreeMap<Address, MssKeypair>,
    leaves_leased: u64,
}

impl IdentityStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `keypair` as its address's identity, returning the address
    /// and whether this was the first touch.
    ///
    /// An already-registered address keeps its existing identity — the
    /// incoming handle is dropped — so resubmitting a party can never
    /// rewind the consumed-leaf counter into leaf reuse.
    pub fn register(&mut self, keypair: MssKeypair) -> (Address, bool) {
        let address = keypair.public_key().address();
        let first = !self.identities.contains_key(&address);
        if first {
            self.identities.insert(address, keypair);
        }
        (address, first)
    }

    /// Whether `address` has a registered identity.
    pub fn contains(&self, address: &Address) -> bool {
        self.identities.contains_key(address)
    }

    /// The public key of `address`'s identity, if registered.
    pub fn public_key(&self, address: &Address) -> Option<MssPublicKey> {
        self.identities.get(address).map(|kp| kp.public_key())
    }

    /// Unused one-time leaves left on `address`'s identity, if registered.
    pub fn remaining(&self, address: &Address) -> Option<u64> {
        self.identities.get(address).map(|kp| kp.remaining())
    }

    /// Carves a window of `count` unused leaves off `address`'s identity.
    ///
    /// The returned handle signs with leaves `[next, next + count)` and
    /// shares the master's Merkle tree by reference; the master's counter
    /// advances past the window, so later leases are disjoint. Fails
    /// without consuming anything if the identity is unknown or has fewer
    /// than `count` leaves left.
    pub fn lease(&mut self, address: &Address, count: u64) -> Result<MssKeypair, LeaseError> {
        let master = self.identities.get_mut(address).ok_or(LeaseError::UnknownAddress)?;
        let lease = master.lease(count).map_err(LeaseError::Exhausted)?;
        self.leaves_leased += count;
        Ok(lease)
    }

    /// Number of registered identities.
    pub fn len(&self) -> usize {
        self.identities.len()
    }

    /// Whether the store has no identities.
    pub fn is_empty(&self) -> bool {
        self.identities.is_empty()
    }

    /// Total one-time leaves handed out by [`lease`](Self::lease) so far.
    pub fn leaves_leased(&self) -> u64 {
        self.leaves_leased
    }

    /// The registered identities in address order — the durability store
    /// walks this to persist each master's `(seed, height, leaves,
    /// next_leaf)` state.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &MssKeypair)> {
        self.identities.iter()
    }

    /// Rebuilds a store from master keypairs (each already fast-forwarded
    /// to its durable leaf cursor) and the lease counter. Addresses are
    /// rederived from the keypairs, so a snapshot cannot smuggle in a
    /// mismatched address → identity binding.
    pub fn restore(masters: impl IntoIterator<Item = MssKeypair>, leaves_leased: u64) -> Self {
        IdentityStore {
            identities: masters.into_iter().map(|kp| (kp.public_key().address(), kp)).collect(),
            leaves_leased,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(byte: u8, height: u32) -> MssKeypair {
        MssKeypair::from_seed_with_height([byte; 32], height)
    }

    #[test]
    fn first_touch_registers_later_touches_keep_state() {
        let mut store = IdentityStore::new();
        let (address, first) = store.register(kp(1, 2));
        assert!(first);
        store.lease(&address, 3).unwrap();
        // Re-registering the same address (fresh handle, leaf counter 0)
        // must NOT rewind the consumed-leaf state.
        let (again, first) = store.register(kp(1, 2));
        assert_eq!(again, address);
        assert!(!first);
        assert_eq!(store.remaining(&address), Some(1));
    }

    #[test]
    fn leases_are_disjoint_and_exhaustion_is_checked() {
        let mut store = IdentityStore::new();
        let (address, _) = store.register(kp(2, 2)); // 4 leaves
        let a = store.lease(&address, 2).unwrap();
        let b = store.lease(&address, 2).unwrap();
        assert_eq!((a.next_leaf(), a.limit()), (0, 2));
        assert_eq!((b.next_leaf(), b.limit()), (2, 4));
        assert!(matches!(store.lease(&address, 1), Err(LeaseError::Exhausted(_))));
        assert_eq!(store.leaves_leased(), 4);
    }

    #[test]
    fn unknown_address_is_distinguished_from_exhaustion() {
        let mut store = IdentityStore::new();
        let unknown = kp(9, 2).public_key().address();
        assert!(matches!(store.lease(&unknown, 1), Err(LeaseError::UnknownAddress)));
        assert_eq!(store.remaining(&unknown), None);
        assert_eq!(store.public_key(&unknown), None);
    }
}
