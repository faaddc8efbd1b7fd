//! The general multi-leader swap contract (Figures 4–5 of the paper).
//!
//! One `SwapContract` instance sits on each arc `(u, v)` of the swap
//! digraph, escrows `u`'s asset at publication, and exposes three methods:
//!
//! * [`SwapCall::Unlock`] — `unlock(i, s, p, σ)`: the counterparty presents
//!   a hashkey for hashlock `i`. The contract checks (Figure 5, lines
//!   28–31): the hashkey has not timed out (`now < T + (diam + |p|)·Δ`),
//!   the secret matches (`hashlock[i] = H(s)`), the path runs from the
//!   counterparty to the leader who generated `s_i`, and the nested
//!   signature chain is valid.
//! * [`SwapCall::Refund`] — the party recovers the asset once some hashlock
//!   is dead (still locked after every possible hashkey expired).
//! * [`SwapCall::Claim`] — the counterparty takes the asset once *every*
//!   hashlock is unlocked (the arc "triggers").
//!
//! Unlocking also *publishes* the hashkey: the secret, path, and signature
//! chain become publicly readable [`UnlockRecord`]s, which is how secrets
//! propagate backwards through the digraph in Phase Two.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use swap_chain::{AssetId, ContractLogic, ExecCtx, Owner};
use swap_crypto::{Secret, SigChain, SigChainError};
use swap_digraph::{ArcId, VertexPath};
use swap_sim::SimTime;

use crate::spec::SwapSpec;

/// Calls accepted by a [`SwapContract`].
#[derive(Debug, Clone)]
pub enum SwapCall {
    /// `unlock(i, s, path, sig)` — Figure 5, line 26.
    Unlock {
        /// Hashlock index `i` (position in the spec's leader vector).
        index: usize,
        /// The claimed secret `s` with `H(s) = hashlock[i]`.
        secret: Secret,
        /// Path from the counterparty to the leader who generated `s`.
        path: VertexPath,
        /// Nested signature chain `sig(···sig(s, u_k)···, u₀)`.
        sig: SigChain,
    },
    /// `refund()` — Figure 5, line 35.
    Refund,
    /// `claim()` — Figure 5, line 42.
    Claim,
}

/// Events emitted by a [`SwapContract`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapEvent {
    /// The contract was published and the asset escrowed.
    Escrowed {
        /// The escrowed asset.
        asset: AssetId,
    },
    /// Hashlock `index` was unlocked. The full hashkey is readable via
    /// [`SwapContract::unlock_record`].
    Unlocked {
        /// Hashlock index.
        index: usize,
    },
    /// The arc triggered: every hashlock unlocked and the counterparty
    /// claimed the asset.
    Claimed,
    /// The asset was refunded to the party.
    Refunded,
}

/// Rejection reasons for [`SwapContract`] calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// `unlock`/`claim` must come from the counterparty (lines 27, 43).
    NotCounterparty,
    /// `refund` must come from the party (line 36).
    NotParty,
    /// No hashlock with that index.
    UnknownHashlockIndex(usize),
    /// The hashkey's timeout `T + (diam + |p|)·Δ` has passed (line 28).
    HashkeyExpired {
        /// The deadline that passed.
        deadline: SimTime,
        /// The call's arrival time.
        now: SimTime,
    },
    /// `H(s)` does not match the hashlock (line 29).
    WrongSecret,
    /// The path is not a valid digraph path from the counterparty to the
    /// generating leader (line 30).
    InvalidPath,
    /// The signature chain failed verification (line 31).
    BadSignature(SigChainError),
    /// `claim` requires every hashlock unlocked (line 44).
    NotAllUnlocked {
        /// How many of the hashlocks are currently unlocked.
        unlocked: usize,
        /// Total number of hashlocks.
        total: usize,
    },
    /// `refund` requires some hashlock to be dead (unlockable no longer).
    NothingRefundable,
    /// The publisher does not own the asset to escrow.
    PublisherNotOwner,
    /// The contract already settled (claimed or refunded).
    AlreadySettled,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::NotCounterparty => write!(f, "caller is not the counterparty"),
            SwapError::NotParty => write!(f, "caller is not the party"),
            SwapError::UnknownHashlockIndex(i) => write!(f, "no hashlock {i}"),
            SwapError::HashkeyExpired { deadline, now } => {
                write!(f, "hashkey expired at {deadline}, call arrived at {now}")
            }
            SwapError::WrongSecret => write!(f, "secret does not match hashlock"),
            SwapError::InvalidPath => write!(f, "path is not valid for this hashkey"),
            SwapError::BadSignature(e) => write!(f, "signature chain invalid: {e}"),
            SwapError::NotAllUnlocked { unlocked, total } => {
                write!(f, "only {unlocked}/{total} hashlocks unlocked")
            }
            SwapError::NothingRefundable => write!(f, "no hashlock is dead yet"),
            SwapError::PublisherNotOwner => write!(f, "publisher does not own the asset"),
            SwapError::AlreadySettled => write!(f, "contract has already settled"),
        }
    }
}

impl std::error::Error for SwapError {}

/// A publicly readable record of a successful `unlock` — the hashkey as it
/// now exists on-chain. Observers copy `secret`/`path`/`sig` to build their
/// own extended hashkeys (`unlock(s, v + p, sig(σ, v))`).
#[derive(Debug, Clone)]
pub struct UnlockRecord {
    /// The revealed secret.
    pub secret: Secret,
    /// The path the presenter used.
    pub path: VertexPath,
    /// The signature chain the presenter used.
    pub sig: SigChain,
    /// When the unlock happened.
    pub at: SimTime,
}

/// Terminal state of a swap contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Settlement {
    /// Asset still in escrow.
    Pending,
    /// Counterparty claimed (the arc triggered).
    Claimed,
    /// Party refunded.
    Refunded,
}

/// The per-arc hashed timelock swap contract of Figures 4–5.
///
/// Logically every contract stores its own copy of the spec — that *is* the
/// O(|A|) per-contract storage Theorem 4.10 charges, and
/// [`SwapContract::storage_bytes`] still meters it per contract. In the
/// simulator's memory, though, the spec is held behind an [`Arc`] so the
/// |A| contracts of one swap share a single allocation instead of each
/// cloning an O(|A|)-sized spec at publication.
#[derive(Debug, Clone)]
pub struct SwapContract {
    spec: Arc<SwapSpec>,
    arc: ArcId,
    asset: AssetId,
    /// Per-hashlock unlock records (`unlocked[]` of Figure 4, enriched with
    /// the hashkey that did the unlocking).
    unlocked: Vec<Option<UnlockRecord>>,
    settlement: Settlement,
}

impl SwapContract {
    /// Creates a contract for `arc` of the spec's digraph, escrowing
    /// `asset`. Accepts an owned [`SwapSpec`] or an [`Arc`] handle —
    /// publishers deploying one contract per arc should share one `Arc`
    /// rather than cloning the spec per contract.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is not an arc of the spec's digraph. Specs are
    /// validated upstream; an out-of-range arc is a programming error.
    pub fn new(spec: impl Into<Arc<SwapSpec>>, arc: ArcId, asset: AssetId) -> Self {
        let spec = spec.into();
        assert!(arc.index() < spec.digraph.arc_count(), "arc out of range");
        let locks = spec.hashlocks.len();
        SwapContract {
            spec,
            arc,
            asset,
            unlocked: vec![None; locks],
            settlement: Settlement::Pending,
        }
    }

    /// The embedded spec (public readability).
    pub fn spec(&self) -> &SwapSpec {
        &self.spec
    }

    /// The shared handle to the embedded spec. Observers holding their own
    /// handle can verify a contract embeds the expected spec with a pointer
    /// comparison ([`Arc::ptr_eq`]) before falling back to a deep equality
    /// check.
    pub fn spec_handle(&self) -> &Arc<SwapSpec> {
        &self.spec
    }

    /// The arc this contract implements.
    pub fn arc(&self) -> ArcId {
        self.arc
    }

    /// The escrowed asset.
    pub fn asset(&self) -> AssetId {
        self.asset
    }

    /// The party (arc head, asset origin) address.
    pub fn party(&self) -> swap_crypto::Address {
        self.spec.address_of(self.spec.digraph.head(self.arc))
    }

    /// The counterparty (arc tail, asset destination) address.
    pub fn counterparty(&self) -> swap_crypto::Address {
        self.spec.address_of(self.spec.digraph.tail(self.arc))
    }

    /// Whether hashlock `index` is unlocked.
    pub fn is_unlocked(&self, index: usize) -> bool {
        self.unlocked.get(index).is_some_and(Option::is_some)
    }

    /// The hashkey that unlocked hashlock `index`, if any.
    pub fn unlock_record(&self, index: usize) -> Option<&UnlockRecord> {
        self.unlocked.get(index).and_then(Option::as_ref)
    }

    /// Number of unlocked hashlocks.
    pub fn unlocked_count(&self) -> usize {
        self.unlocked.iter().filter(|u| u.is_some()).count()
    }

    /// Whether every hashlock is unlocked (the arc is ready to trigger).
    pub fn fully_unlocked(&self) -> bool {
        self.unlocked.iter().all(Option::is_some)
    }

    /// Whether the counterparty claimed the asset (the arc *triggered*).
    pub fn is_claimed(&self) -> bool {
        self.settlement == Settlement::Claimed
    }

    /// Whether the party was refunded.
    pub fn is_refunded(&self) -> bool {
        self.settlement == Settlement::Refunded
    }

    /// Whether some hashlock can no longer ever be unlocked at `now`: it is
    /// locked and even the longest path's hashkey (`|p| = diam`) has timed
    /// out. This is the refund-enabling predicate.
    pub fn some_hashlock_dead(&self, now: SimTime) -> bool {
        let dead_after = self.spec.all_hashkeys_dead();
        now >= dead_after && !self.fully_unlocked()
    }

    fn check_unlock(
        &self,
        index: usize,
        secret: &Secret,
        path: &VertexPath,
        sig: &SigChain,
        now: SimTime,
    ) -> Result<(), SwapError> {
        let hashlock =
            self.spec.hashlocks.get(index).ok_or(SwapError::UnknownHashlockIndex(index))?;
        // Line 28: hashkey still valid?
        let deadline = self.spec.hashkey_deadline(path.len());
        if now >= deadline {
            return Err(SwapError::HashkeyExpired { deadline, now });
        }
        // Line 29: secret correct?
        if !hashlock.matches(secret) {
            return Err(SwapError::WrongSecret);
        }
        // Line 30: path valid? From the counterparty vertex to the leader
        // that generated s_i. With the §4.5 broadcast optimization, a
        // logical arc runs from every vertex to every leader, so a
        // length-one path is accepted even if D lacks the arc.
        let counterparty_vertex = self.spec.digraph.tail(self.arc);
        let leader_vertex = self.spec.leaders[index];
        let endpoint_ok = path.start() == counterparty_vertex && path.end() == leader_vertex;
        let route_ok =
            path.is_valid_in(&self.spec.digraph) || (self.spec.broadcast_arcs && path.len() == 1);
        if !endpoint_ok || !route_ok {
            return Err(SwapError::InvalidPath);
        }
        // Line 31: signatures valid? Keys in path order.
        let keys: Vec<_> = path.vertices().iter().map(|&v| *self.spec.key_of(v)).collect();
        sig.verify(secret, &keys).map_err(SwapError::BadSignature)?;
        Ok(())
    }
}

impl ContractLogic for SwapContract {
    type Call = SwapCall;
    type Event = SwapEvent;
    type Error = SwapError;

    /// Publication escrows the party's asset (the contract "assumes
    /// temporary control", §4.1). The publisher must be the arc's party and
    /// own the asset.
    fn on_publish(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Vec<SwapEvent>, SwapError> {
        if ctx.caller != self.party() {
            return Err(SwapError::NotParty);
        }
        ctx.assets
            .transfer_from(self.asset, Owner::Party(ctx.caller), Owner::Escrow(ctx.this))
            .map_err(|_| SwapError::PublisherNotOwner)?;
        Ok(vec![SwapEvent::Escrowed { asset: self.asset }])
    }

    /// Applies a call under the validate-then-commit rule the journaled
    /// rollback mode relies on (see [`ContractLogic`]): every arm checks
    /// all of its Figure 5 guard lines first and only then touches
    /// `self`/escrow, so an error here guarantees untouched contract state.
    fn apply(
        &mut self,
        call: SwapCall,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Vec<SwapEvent>, SwapError> {
        // Hosting chains already refuse calls to terminated contracts; this
        // guard keeps the state machine safe when driven directly.
        if self.is_terminated() {
            return Err(SwapError::AlreadySettled);
        }
        match call {
            SwapCall::Unlock { index, secret, path, sig } => {
                // Line 27: only the counterparty may unlock.
                if ctx.caller != self.counterparty() {
                    return Err(SwapError::NotCounterparty);
                }
                self.check_unlock(index, &secret, &path, &sig, ctx.now)?;
                // Idempotent: re-unlocking an open lock keeps the first
                // record (its hashkey already circulates).
                if self.unlocked[index].is_none() {
                    self.unlocked[index] = Some(UnlockRecord { secret, path, sig, at: ctx.now });
                    Ok(vec![SwapEvent::Unlocked { index }])
                } else {
                    Ok(vec![])
                }
            }
            SwapCall::Refund => {
                // Line 36: only the party may refund.
                if ctx.caller != self.party() {
                    return Err(SwapError::NotParty);
                }
                if !self.some_hashlock_dead(ctx.now) {
                    return Err(SwapError::NothingRefundable);
                }
                ctx.assets
                    .transfer_from(self.asset, Owner::Escrow(ctx.this), Owner::Party(ctx.caller))
                    .expect("asset escrowed at publication");
                self.settlement = Settlement::Refunded;
                Ok(vec![SwapEvent::Refunded])
            }
            SwapCall::Claim => {
                // Line 43: only the counterparty may claim.
                if ctx.caller != self.counterparty() {
                    return Err(SwapError::NotCounterparty);
                }
                if !self.fully_unlocked() {
                    return Err(SwapError::NotAllUnlocked {
                        unlocked: self.unlocked_count(),
                        total: self.unlocked.len(),
                    });
                }
                ctx.assets
                    .transfer_from(self.asset, Owner::Escrow(ctx.this), Owner::Party(ctx.caller))
                    .expect("asset escrowed at publication");
                self.settlement = Settlement::Claimed;
                Ok(vec![SwapEvent::Claimed])
            }
        }
    }

    fn storage_bytes(&self) -> usize {
        // Long-lived state of Figure 4: the spec (with its O(|A|) digraph
        // copy), the asset/arc scalars, the unlocked vector, and any stored
        // hashkeys (secret + path + signature chain).
        let records: usize = self
            .unlocked
            .iter()
            .flatten()
            .map(|r| 32 + r.path.encoded_len() + r.sig.byte_len() + 8)
            .sum();
        self.spec.storage_bytes() + 8 + 4 + self.unlocked.len() + records
    }

    fn is_terminated(&self) -> bool {
        self.settlement != Settlement::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{keypair_for, leader_secret, spec_for};
    use swap_chain::{AssetDescriptor, AssetRegistry};
    use swap_crypto::MssKeypair;
    use swap_digraph::{generators, VertexId};

    /// Harness around one contract on the alice→bob arc of the 3-cycle,
    /// with alice as the single leader.
    struct Rig {
        contract: SwapContract,
        assets: AssetRegistry,
        alice: VertexId,
        bob: VertexId,
        carol: VertexId,
        asset: AssetId,
    }

    const CONTRACT_ID: swap_chain::ContractId = swap_chain::ContractId::new(0);

    impl Rig {
        fn new() -> Rig {
            let d = generators::herlihy_three_party();
            let alice = d.vertex_by_name("alice").unwrap();
            let bob = d.vertex_by_name("bob").unwrap();
            let carol = d.vertex_by_name("carol").unwrap();
            let spec = spec_for(d, vec![alice]);
            let arc = spec.digraph.arcs_between(alice, bob)[0];
            let mut assets = AssetRegistry::new();
            let asset = assets.mint(AssetDescriptor::new("altcoin", 10), spec.address_of(alice));
            let mut contract = SwapContract::new(spec, arc, asset);
            // Publish (escrow) directly against the registry.
            let mut ctx = ExecCtx {
                caller: contract.party(),
                now: SimTime::from_ticks(10),
                this: CONTRACT_ID,
                assets: &mut assets,
            };
            let events = contract.on_publish(&mut ctx).unwrap();
            assert_eq!(events, vec![SwapEvent::Escrowed { asset }]);
            Rig { contract, assets, alice, bob, carol, asset }
        }

        fn call(
            &mut self,
            caller_vertex: VertexId,
            call: SwapCall,
            now_ticks: u64,
        ) -> Result<Vec<SwapEvent>, SwapError> {
            let caller = self.contract.spec().address_of(caller_vertex);
            let mut ctx = ExecCtx {
                caller,
                now: SimTime::from_ticks(now_ticks),
                this: CONTRACT_ID,
                assets: &mut self.assets,
            };
            self.contract.apply(call, &mut ctx)
        }

        /// Bob's legitimate hashkey: path (bob, carol, alice), chain signed
        /// alice → carol → bob.
        fn bob_hashkey(&self) -> (Secret, VertexPath, SigChain) {
            let secret = leader_secret(self.alice);
            let mut alice_kp = keypair_for(self.alice);
            let mut carol_kp = keypair_for(self.carol);
            let mut bob_kp = keypair_for(self.bob);
            let sig = SigChain::sign_secret(&mut alice_kp, &secret)
                .unwrap()
                .extend(&mut carol_kp)
                .unwrap()
                .extend(&mut bob_kp)
                .unwrap();
            let path = VertexPath::from_vertices(vec![self.bob, self.carol, self.alice]).unwrap();
            (secret, path, sig)
        }
    }

    #[test]
    fn full_unlock_then_claim() {
        let mut rig = Rig::new();
        let (secret, path, sig) = rig.bob_hashkey();
        // Timeout for |p| = 2: start(10) + (3 + 2)·10 = 60.
        let events =
            rig.call(rig.bob, SwapCall::Unlock { index: 0, secret, path, sig }, 59).unwrap();
        assert_eq!(events, vec![SwapEvent::Unlocked { index: 0 }]);
        assert!(rig.contract.fully_unlocked());
        let events = rig.call(rig.bob, SwapCall::Claim, 60).unwrap();
        assert_eq!(events, vec![SwapEvent::Claimed]);
        assert!(rig.contract.is_claimed());
        assert!(rig.contract.is_terminated());
        // Asset now belongs to bob.
        let bob_addr = rig.contract.spec().address_of(rig.bob);
        assert_eq!(rig.assets.owner(rig.asset), Some(Owner::Party(bob_addr)));
    }

    #[test]
    fn unlock_after_deadline_rejected() {
        let mut rig = Rig::new();
        let (secret, path, sig) = rig.bob_hashkey();
        let err =
            rig.call(rig.bob, SwapCall::Unlock { index: 0, secret, path, sig }, 60).unwrap_err();
        assert!(matches!(err, SwapError::HashkeyExpired { .. }));
        assert!(!rig.contract.is_unlocked(0));
    }

    #[test]
    fn longer_paths_get_later_deadlines() {
        // The leader's own degenerate path (|p| = 0) expires at start +
        // diam·Δ = 40; Bob's |p| = 2 path at 60. This asymmetry is the whole
        // point of hashkeys (§4.1).
        let rig = Rig::new();
        assert_eq!(rig.contract.spec().hashkey_deadline(0), SimTime::from_ticks(40));
        assert_eq!(rig.contract.spec().hashkey_deadline(2), SimTime::from_ticks(60));
    }

    #[test]
    fn wrong_secret_rejected() {
        let mut rig = Rig::new();
        let (_, path, sig) = rig.bob_hashkey();
        let wrong = Secret::from_bytes([0u8; 32]);
        let err = rig
            .call(rig.bob, SwapCall::Unlock { index: 0, secret: wrong, path, sig }, 30)
            .unwrap_err();
        assert_eq!(err, SwapError::WrongSecret);
    }

    #[test]
    fn non_counterparty_unlock_rejected() {
        let mut rig = Rig::new();
        let (secret, path, sig) = rig.bob_hashkey();
        let err =
            rig.call(rig.carol, SwapCall::Unlock { index: 0, secret, path, sig }, 30).unwrap_err();
        assert_eq!(err, SwapError::NotCounterparty);
    }

    #[test]
    fn invalid_path_rejected() {
        let mut rig = Rig::new();
        let (secret, _, sig) = rig.bob_hashkey();
        // Path starting at carol, not the counterparty bob.
        let bad = VertexPath::from_vertices(vec![rig.carol, rig.alice]).unwrap();
        let err = rig
            .call(rig.bob, SwapCall::Unlock { index: 0, secret, path: bad, sig }, 30)
            .unwrap_err();
        assert_eq!(err, SwapError::InvalidPath);
    }

    #[test]
    fn forged_signature_rejected() {
        let mut rig = Rig::new();
        let (secret, path, _) = rig.bob_hashkey();
        // Chain signed by the wrong parties (mallory twice + alice).
        let mut mallory = MssKeypair::from_seed_with_height([99u8; 32], 2);
        let mut alice_kp = keypair_for(rig.alice);
        let forged = SigChain::sign_secret(&mut alice_kp, &secret)
            .unwrap()
            .extend(&mut mallory)
            .unwrap()
            .extend(&mut mallory)
            .unwrap();
        let err = rig
            .call(rig.bob, SwapCall::Unlock { index: 0, secret, path, sig: forged }, 30)
            .unwrap_err();
        assert!(matches!(err, SwapError::BadSignature(_)));
    }

    #[test]
    fn signature_path_length_mismatch_rejected() {
        let mut rig = Rig::new();
        let (secret, path, _) = rig.bob_hashkey();
        // A chain with only the leader's link for a 3-vertex path.
        let mut alice_kp = keypair_for(rig.alice);
        let short = SigChain::sign_secret(&mut alice_kp, &secret).unwrap();
        let err = rig
            .call(rig.bob, SwapCall::Unlock { index: 0, secret, path, sig: short }, 30)
            .unwrap_err();
        assert!(matches!(err, SwapError::BadSignature(SigChainError::LengthMismatch { .. })));
    }

    #[test]
    fn unknown_index_rejected() {
        let mut rig = Rig::new();
        let (secret, path, sig) = rig.bob_hashkey();
        let err =
            rig.call(rig.bob, SwapCall::Unlock { index: 5, secret, path, sig }, 30).unwrap_err();
        assert_eq!(err, SwapError::UnknownHashlockIndex(5));
    }

    #[test]
    fn reunlock_is_idempotent() {
        let mut rig = Rig::new();
        let (secret, path, sig) = rig.bob_hashkey();
        rig.call(
            rig.bob,
            SwapCall::Unlock { index: 0, secret, path: path.clone(), sig: sig.clone() },
            30,
        )
        .unwrap();
        let first = rig.contract.unlock_record(0).unwrap().at;
        let events =
            rig.call(rig.bob, SwapCall::Unlock { index: 0, secret, path, sig }, 35).unwrap();
        assert!(events.is_empty());
        assert_eq!(rig.contract.unlock_record(0).unwrap().at, first);
    }

    #[test]
    fn claim_before_all_unlocked_rejected() {
        let mut rig = Rig::new();
        let err = rig.call(rig.bob, SwapCall::Claim, 30).unwrap_err();
        assert_eq!(err, SwapError::NotAllUnlocked { unlocked: 0, total: 1 });
    }

    #[test]
    fn refund_before_deadline_rejected() {
        let mut rig = Rig::new();
        // All hashkeys dead at start + 2·diam·Δ = 10 + 60 = 70.
        let err = rig.call(rig.alice, SwapCall::Refund, 69).unwrap_err();
        assert_eq!(err, SwapError::NothingRefundable);
    }

    #[test]
    fn refund_after_deadline_succeeds() {
        let mut rig = Rig::new();
        let events = rig.call(rig.alice, SwapCall::Refund, 70).unwrap();
        assert_eq!(events, vec![SwapEvent::Refunded]);
        assert!(rig.contract.is_refunded());
        let alice_addr = rig.contract.spec().address_of(rig.alice);
        assert_eq!(rig.assets.owner(rig.asset), Some(Owner::Party(alice_addr)));
    }

    #[test]
    fn refund_blocked_when_fully_unlocked() {
        let mut rig = Rig::new();
        let (secret, path, sig) = rig.bob_hashkey();
        rig.call(rig.bob, SwapCall::Unlock { index: 0, secret, path, sig }, 30).unwrap();
        // Even after the global deadline, a fully unlocked contract cannot
        // be refunded out from under the counterparty.
        let err = rig.call(rig.alice, SwapCall::Refund, 1000).unwrap_err();
        assert_eq!(err, SwapError::NothingRefundable);
        // The counterparty can still claim (no timeout on claim).
        rig.call(rig.bob, SwapCall::Claim, 1000).unwrap();
    }

    #[test]
    fn refund_by_non_party_rejected() {
        let mut rig = Rig::new();
        let err = rig.call(rig.bob, SwapCall::Refund, 70).unwrap_err();
        assert_eq!(err, SwapError::NotParty);
    }

    #[test]
    fn unlock_record_exposes_hashkey_publicly() {
        let mut rig = Rig::new();
        let (secret, path, sig) = rig.bob_hashkey();
        rig.call(
            rig.bob,
            SwapCall::Unlock { index: 0, secret, path: path.clone(), sig: sig.clone() },
            30,
        )
        .unwrap();
        let record = rig.contract.unlock_record(0).unwrap();
        assert_eq!(record.path, path);
        assert_eq!(record.secret, secret);
        assert_eq!(record.sig.len(), 3);
        assert_eq!(record.at, SimTime::from_ticks(30));
        assert_eq!(rig.contract.unlocked_count(), 1);
    }

    #[test]
    fn storage_grows_with_unlock_records() {
        let mut rig = Rig::new();
        let before = rig.contract.storage_bytes();
        let (secret, path, sig) = rig.bob_hashkey();
        rig.call(rig.bob, SwapCall::Unlock { index: 0, secret, path, sig }, 30).unwrap();
        assert!(rig.contract.storage_bytes() > before);
    }

    #[test]
    fn accessors() {
        let rig = Rig::new();
        assert_eq!(rig.contract.asset(), rig.asset);
        assert_eq!(rig.contract.arc().index(), 0);
        assert_eq!(rig.contract.party(), rig.contract.spec().address_of(rig.alice));
        assert_eq!(rig.contract.counterparty(), rig.contract.spec().address_of(rig.bob));
        assert!(!rig.contract.is_terminated());
    }

    #[test]
    fn shared_spec_is_one_allocation_with_unchanged_accounting() {
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let spec = Arc::new(spec_for(d, vec![alice]));
        let a = SwapContract::new(Arc::clone(&spec), ArcId::new(0), AssetId::new(0));
        let b = SwapContract::new(Arc::clone(&spec), ArcId::new(1), AssetId::new(1));
        assert!(Arc::ptr_eq(a.spec_handle(), b.spec_handle()), "contracts share the allocation");
        // Theorem 4.10 accounting is per contract regardless of sharing: a
        // contract built from an owned spec clone meters identically.
        let owned = SwapContract::new((*spec).clone(), ArcId::new(0), AssetId::new(0));
        assert_eq!(a.storage_bytes(), owned.storage_bytes());
        assert!(!Arc::ptr_eq(a.spec_handle(), owned.spec_handle()));
    }

    #[test]
    #[should_panic(expected = "arc out of range")]
    fn out_of_range_arc_panics() {
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let spec = spec_for(d, vec![alice]);
        let _ = SwapContract::new(spec, ArcId::new(9), AssetId::new(0));
    }

    #[test]
    fn error_display() {
        assert!(SwapError::WrongSecret.to_string().contains("secret"));
        assert!(SwapError::NotAllUnlocked { unlocked: 1, total: 2 }.to_string().contains("1/2"));
    }
}
