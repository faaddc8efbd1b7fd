//! The snapshot wire format — the one module that knows it.
//!
//! `swap-store` frames, checksums and files a snapshot as opaque payload
//! bytes; what those bytes *are* is decided here, by [`Wire`]: `put` writes
//! a value with the store's [`Encoder`], `get` reads it back with its
//! [`Decoder`]. The domain types implement it directly — there is no
//! mirror struct between the exchange's live state and the bytes — and
//! each struct does so through **one field list** (`wire_struct!`) that
//! serves both directions, so the two cannot drift apart. `get` is also
//! where a checksum-valid but inconsistent payload stops: tags, key
//! heights, leaf counts and offer-id references are checked before any
//! constructor that would assert them, so recovery sees a [`DecodeError`],
//! never a panic.
//!
//! **To persist a new field** of a persisted struct, touch two places: the
//! struct itself, and its list in this file (position in the list is
//! position on the wire). Forgetting the second does not compile — every
//! list destructures its struct without `..`. A change to the bytes an
//! existing store holds additionally needs a new `swap_store` frame
//! `VERSION`; `tests/golden_store.rs` fails when the bytes move.
//!
//! The trait is local to `swap-core` because most persisted types are
//! foreign to it (`swap-market`, `swap-crypto`, `swap-chain`, `swap-sim`)
//! and none of those crates should depend on the store. WAL records are a
//! different matter: a logged command has no domain twin, so
//! `swap_store::WalRecord` is the type and this module only maps
//! [`EpochStage`]/[`ExchangeError`] to its tags. The exchange's journaling
//! and recovery logic lives in [`crate::exchange`].

use std::borrow::Cow;
use std::collections::BTreeMap;

use swap_chain::StorageReport;
use swap_crypto::{sha256, Address, Digest32, Hashlock, MssKeypair, MssPublicKey, Secret};
use swap_market::{AssetKind, BookEntry, BookSnapshot, Offer, OfferId, OfferStatus, SwapId};
use swap_sim::SimTime;
use swap_store::{DecodeError, Decoder, Encoder, FailTag, StageTag};

use crate::exchange::{
    EpochStage, ExchangeConfig, ExchangeError, ExchangeReport, StageTicks, SwapSummary,
};
use crate::protocol::ProtocolKind;
use crate::runner::RunMetrics;

/// Digest of the *semantic* exchange configuration. Recovery refuses a
/// store written under a different digest: replaying a log against changed
/// clearing rules or stage costs would silently diverge instead of
/// rebuilding the crashed exchange. `threads` is excluded — it is a host
/// wall-clock knob the report is invariant under, so recovering on a
/// different worker count is explicitly allowed (and tested). The
/// signature scheme's name is included because a snapshot stores each
/// identity's leaf digests: under another one-time scheme the recovered
/// keypair would sign with chains its own tree does not commit to.
/// `max_rounds: None` and `leader_strategy=MinimumExact` are literals:
/// a run always waits `2·diam + 6` rounds and cleared swaps always elect
/// exact minimum leaders, and the text keeps the digest of every store
/// written while those were config fields.
pub(crate) fn config_digest(config: &ExchangeConfig) -> [u8; 32] {
    let semantic = format!(
        "scheme={};delta={:?};executing_slots={};\
         run=RunConfig {{ behaviors: {:?}, max_rounds: None, corrupt_arcs: {:?} }};\
         leader_strategy=MinimumExact;protocol={:?};stage_costs={:?}",
        swap_crypto::mss::SCHEME,
        config.delta,
        config.executing_slots.max(1),
        config.run.behaviors,
        config.run.corrupt_arcs,
        config.protocol,
        config.stage_costs,
    );
    *sha256(semantic.as_bytes()).as_bytes()
}

/// [`EpochStage`] → wire tag.
pub(crate) fn stage_tag(stage: EpochStage) -> StageTag {
    match stage {
        EpochStage::Clearing => StageTag::Clearing,
        EpochStage::Provisioning => StageTag::Provisioning,
        EpochStage::Executing => StageTag::Executing,
        EpochStage::Settling => StageTag::Settling,
    }
}

/// [`ExchangeError`] → wire tag (the stable identity of a logged failure;
/// inner error detail is regenerated by replay, not stored).
pub(crate) fn fail_tag(error: &ExchangeError) -> FailTag {
    match error {
        ExchangeError::Clear(_) => FailTag::Clear,
        ExchangeError::Verify { swap, .. } => FailTag::Verify { swap: swap.raw() },
        ExchangeError::WorkerPanicked(swap) => FailTag::WorkerPanicked { swap: swap.raw() },
        ExchangeError::KeysExhausted { swap, address } => {
            FailTag::KeysExhausted { swap: swap.raw(), address: *address.digest().as_bytes() }
        }
    }
}

/// A value with a place in the snapshot payload.
pub(crate) trait Wire: Sized {
    /// Appends the value's bytes.
    fn put(&self, e: &mut Encoder);

    /// Reads a value back: the inverse of [`Wire::put`], and an error —
    /// never a panic, here or in a constructor the value is later handed
    /// to — on bytes that hold no valid value.
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Encodes `value` as a complete payload.
#[cfg(test)]
pub(crate) fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    value.put(&mut e);
    e.into_bytes()
}

/// Decodes a complete payload: `bytes` must hold one `T` and nothing else.
pub(crate) fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut d = Decoder::new(bytes);
    let value = T::get(&mut d)?;
    d.finish()?;
    Ok(value)
}

impl Wire for u64 {
    fn put(&self, e: &mut Encoder) {
        e.put_u64(*self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.u64()
    }
}

/// Counts travel as `u64`, whatever the host's word size.
impl Wire for usize {
    fn put(&self, e: &mut Encoder) {
        e.put_u64(*self as u64);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        usize::try_from(d.u64()?).map_err(|_| DecodeError::Invalid("count exceeds usize"))
    }
}

impl Wire for bool {
    fn put(&self, e: &mut Encoder) {
        e.put_bool(*self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.bool()
    }
}

impl Wire for [u8; 32] {
    fn put(&self, e: &mut Encoder) {
        e.put_bytes32(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.bytes32()
    }
}

impl Wire for String {
    fn put(&self, e: &mut Encoder) {
        e.put_str(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Encoder) {
        e.put_option_tag(self.is_some());
        if let Some(value) = self {
            value.put(e);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.option_tag()?.then(|| T::get(d)).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Encoder) {
        e.put_len(self.len());
        self.iter().for_each(|item| item.put(e));
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // Collecting allocates as items decode, so a corrupt count (which
        // `len_prefix` already bounds by the bytes left) reserves nothing.
        (0..d.len_prefix()?).map(|_| T::get(d)).collect()
    }
}

/// A borrowed slice travels as a `Vec` does, and decodes into one.
impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    fn put(&self, e: &mut Encoder) {
        e.put_len(self.len());
        self.iter().for_each(|item| item.put(e));
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Vec::get(d).map(Cow::Owned)
    }
}

/// A map travels as its entries in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, e: &mut Encoder) {
        e.put_len(self.len());
        self.iter().for_each(|(key, value)| {
            key.put(e);
            value.put(e);
        });
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        (0..d.len_prefix()?).map(|_| Wire::get(d)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, e: &mut Encoder) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

impl<T: Wire> Wire for [T; 4] {
    fn put(&self, e: &mut Encoder) {
        self.iter().for_each(|item| item.put(e));
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok([T::get(d)?, T::get(d)?, T::get(d)?, T::get(d)?])
    }
}

/// Borrowed on the way out, owned on the way in: lets [`Snapshot`] encode
/// the exchange's live state in place and decode into values it can move.
impl<T: Wire + Clone> Wire for Cow<'_, T> {
    fn put(&self, e: &mut Encoder) {
        self.as_ref().put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        T::get(d).map(Cow::Owned)
    }
}

/// Implements [`Wire`] for a wrapper that travels as its one inner value:
/// `|v| <the inner value of v>`, then the constructor that takes it back.
macro_rules! wire_via {
    ($ty:ty, |$v:ident| $inner:expr, $rebuild:expr) => {
        impl Wire for $ty {
            fn put(&self, e: &mut Encoder) {
                let $v = self;
                $inner.put(e);
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Wire::get(d).map($rebuild)
            }
        }
    };
}

wire_via!(SimTime, |t| t.ticks(), SimTime::from_ticks);
wire_via!(OfferId, |id| id.raw(), OfferId::from_raw);
wire_via!(SwapId, |id| id.raw(), SwapId::from_raw);
wire_via!(Digest32, |digest| digest.0, Digest32);
wire_via!(Address, |address| address.digest(), Address::from_digest);
wire_via!(Hashlock, |hashlock| hashlock.digest(), Hashlock::from_digest);
wire_via!(Secret, |secret| secret.reveal(), Secret::from_bytes);
wire_via!(AssetKind, |kind| kind.0, AssetKind);

/// Implements [`Wire`] for a struct from its one field list: wire order is
/// list order, in both directions. `put` destructures without `..`, so a
/// field the struct gains and the list lacks is a compile error; an
/// optional `checked by` function vets the decoded value as a whole.
macro_rules! wire_struct {
    ($ty:ident $(<$lt:lifetime>)? { $($field:ident),+ $(,)? } $(checked by $check:path)?) => {
        impl $(<$lt>)? Wire for $ty $(<$lt>)? {
            fn put(&self, e: &mut Encoder) {
                let $ty { $($field),+ } = self;
                $(Wire::put($field, e);)+
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                let value = $ty { $($field: Wire::get(d)?),+ };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
}

/// Implements [`Wire`] for an enum from its one `tag => Variant { fields }`
/// table. `put`'s match has no wildcard arm, so a new variant is a compile
/// error until it gets a tag; `get` rejects every tag not in the table.
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),+ })?),+ $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, e: &mut Encoder) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        e.put_u8($tag);
                        $($(Wire::put($field, e);)+)?
                    })+
                }
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                match d.u8()? {
                    $($tag => Ok($ty::$variant $({ $($field: Wire::get(d)?),+ })?),)+
                    unknown => Err(DecodeError::BadTag(unknown)),
                }
            }
        }
    };
}

wire_enum!(ProtocolKind { 0 => Hashkey, 1 => Htlc });

wire_enum!(OfferStatus {
    0 => Open,
    1 => Cancelled,
    2 => Matched { epoch, swap },
    3 => Settled,
    4 => Refunded,
});

wire_struct!(RunMetrics {
    rounds,
    contracts_published,
    unlock_calls,
    unlock_bytes,
    claim_calls,
    refund_calls,
    direct_transfers,
    rejected_calls,
    announce_bytes,
});

wire_struct!(SwapSummary {
    swap,
    epoch,
    parties,
    leaders,
    protocol,
    settled,
    all_deal,
    rounds,
    metrics,
});

wire_struct!(StageTicks { clearing, provisioning, executing, settling });

wire_struct!(StorageReport { blocks, block_bytes, contract_bytes, asset_bytes, tx_bytes });

// Recovery restores the report verbatim, which is what makes it
// byte-identical across a crash.
wire_struct!(ExchangeReport {
    epochs,
    offers_submitted,
    offers_cancelled,
    swaps_cleared,
    swaps_settled,
    swaps_refunded,
    swaps_exhausted,
    identities_registered,
    identities_minted,
    mints_overlapping_execution,
    leaves_leased,
    wall_ticks,
    stage_ticks,
    executing_peak,
    executing_resident_ticks,
    tx_executed,
    tx_rolled_back,
    storage,
    swaps,
});

/// The tallest Merkle tree `swap-crypto` builds; its keypair constructors
/// assert it, so `get` must have refused a taller one first.
const MAX_KEY_HEIGHT: u8 = 16;

/// A key height travels as one byte.
fn put_height(height: u32, e: &mut Encoder) {
    let height = u8::try_from(height).ok().filter(|h| *h <= MAX_KEY_HEIGHT);
    e.put_u8(height.expect("every key the exchange admits comes from a keypair of height <= 16"));
}

fn get_height(d: &mut Decoder<'_>) -> Result<u32, DecodeError> {
    match d.u8()? {
        height if height <= MAX_KEY_HEIGHT => Ok(u32::from(height)),
        _ => Err(DecodeError::Invalid("key height above 16")),
    }
}

// A public key is its Merkle root and height; the signing leaves live with
// the identities, not in the book.
impl Wire for MssPublicKey {
    fn put(&self, e: &mut Encoder) {
        self.root().put(e);
        put_height(self.height(), e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(MssPublicKey::from_root(Wire::get(d)?, get_height(d)?))
    }
}

wire_struct!(Offer { key, hashlock, gives, wants });

wire_struct!(BookEntry { offer, status });

/// Every offer the book's deferred set and in-flight swaps name must be
/// one of its entries: `ClearingService::restore` indexes by them.
fn book_refers_to_its_own_entries(book: &BookSnapshot<'_>) -> Result<(), DecodeError> {
    let is_entry = |id: &OfferId| {
        id.raw().checked_sub(book.first_id).is_some_and(|i| i < book.entries.len() as u64)
    };
    let mut named = book.deferred.iter().chain(book.in_flight.iter().flat_map(|(_, ids)| ids));
    if named.all(is_entry) {
        Ok(())
    } else {
        Err(DecodeError::Invalid("offer id outside the book's entries"))
    }
}

// Entry ids are implicit (`first_id + index`), and addresses are
// recomputed from the public keys on restore. The entries are borrowed from
// the live book on the way out.
wire_struct!(
    BookSnapshot<'a> { first_id, epoch, next_swap, entries, deferred, in_flight }
    checked by book_refers_to_its_own_entries
);

// A master identity persists as `(seed, height, leaf cursor, leaf
// digests)`: enough to rebuild the keypair without re-deriving the W-OTS
// leaves, the expensive part of keygen — the Merkle tree is rebuilt from
// the stored digests (which is why `config_digest` names the scheme).
impl Wire for MssKeypair {
    fn put(&self, e: &mut Encoder) {
        self.seed().put(e);
        put_height(self.height(), e);
        self.next_leaf().put(e);
        self.leaf_digests().put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let seed = Wire::get(d)?;
        let height = get_height(d)?;
        let next_leaf: u64 = Wire::get(d)?;
        let leaves: Vec<Digest32> = Wire::get(d)?;
        let leaf_count = 1u64 << height;
        if leaves.len() as u64 != leaf_count {
            return Err(DecodeError::Invalid("identity leaf count is not 2^height"));
        }
        if next_leaf > leaf_count {
            return Err(DecodeError::Invalid("identity leaf cursor past its tree"));
        }
        Ok(MssKeypair::from_parts(seed, height, leaves, next_leaf))
    }
}

/// The complete durable state of an exchange at a *pipeline-empty* point
/// (no in-flight epochs), so it never has to hold mid-epoch engine state:
/// the clearing book, the offer material, the identity store, the report's
/// counters, and the simulation clock are the whole story. The ledger
/// itself is *not* persisted — the report's storage totals are kept as an
/// archived baseline and recovery restarts from fresh chains, which is
/// sound because settled epochs never influence later ones except through
/// those totals.
pub(crate) struct Snapshot<'a> {
    /// Sequence number of the last WAL record this snapshot covers;
    /// replay skips records with `seq <= last_seq`.
    pub(crate) last_seq: u64,
    /// [`config_digest`] of the exchange that wrote it.
    pub(crate) config_digest: [u8; 32],
    /// Simulation clock.
    pub(crate) now: SimTime,
    /// Per-stage vacated-at times of the pipeline frontier.
    pub(crate) vacated: [SimTime; 4],
    /// `Some(t)` if offers arrived at `t` and no clearing has seen them.
    pub(crate) dirty_since: Option<SimTime>,
    /// Next mint ticket.
    pub(crate) mint_ticket: u64,
    /// Total one-time leaves leased by the identity store.
    pub(crate) leaves_leased: u64,
    /// The report, restored verbatim.
    pub(crate) report: Cow<'a, ExchangeReport>,
    /// The clearing book.
    pub(crate) book: BookSnapshot<'a>,
    /// The secret (and its owner's address) held for each accepted offer.
    pub(crate) material: Cow<'a, BTreeMap<OfferId, (Address, Secret)>>,
    /// Master identities, in address order.
    pub(crate) identities: Vec<Cow<'a, MssKeypair>>,
}

wire_struct!(Snapshot<'a> {
    last_seq,
    config_digest,
    now,
    vacated,
    dirty_since,
    mint_ticket,
    leaves_leased,
    report,
    book,
    material,
    identities,
});

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use swap_store::{
        begin_frame, install_snapshot, seal_frame, write_snapshot_temp, Encoder, SNAPSHOT_KIND,
    };

    use super::*;
    use crate::exchange::{Exchange, JournalConfig, RecoverError};

    #[test]
    fn config_digest_ignores_threads_but_not_semantics() {
        let base = ExchangeConfig::default();
        let threads = ExchangeConfig { threads: 8, ..base.clone() };
        assert_eq!(config_digest(&base), config_digest(&threads));
        let slots = ExchangeConfig { executing_slots: 4, ..base.clone() };
        assert_ne!(config_digest(&base), config_digest(&slots));
        let costs = ExchangeConfig {
            stage_costs: crate::exchange::StageCosts { clearing_base: 1, ..Default::default() },
            ..base
        };
        assert_ne!(config_digest(&costs), config_digest(&slots));
    }

    /// `value` survives encode → decode, and re-encodes to the same bytes.
    fn assert_round_trips<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("own encoding decodes");
        assert_eq!(back, value);
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn protocol_kinds_round_trip_and_unknown_tags_are_refused() {
        for kind in [ProtocolKind::Hashkey, ProtocolKind::Htlc] {
            assert_round_trips(kind);
        }
        assert_eq!(from_bytes::<ProtocolKind>(&[2]), Err(DecodeError::BadTag(2)));
    }

    #[test]
    fn offer_statuses_round_trip_and_unknown_tags_are_refused() {
        let statuses = [
            OfferStatus::Open,
            OfferStatus::Cancelled,
            OfferStatus::Matched { epoch: 3, swap: SwapId::from_raw(7) },
            OfferStatus::Settled,
            OfferStatus::Refunded,
        ];
        for status in statuses {
            assert_round_trips(status);
        }
        assert_eq!(from_bytes::<OfferStatus>(&[5]), Err(DecodeError::BadTag(5)));
    }

    // ─── Strategies over the domain types a snapshot holds ───────────────

    fn asset() -> impl Strategy<Value = AssetKind> {
        prop::collection::vec(any::<u8>(), 0..12).prop_map(|bytes| {
            let label = bytes.into_iter().map(|b| match b % 29 {
                0 => '☃',
                1 => '"',
                2 => '\\',
                3 => '\n',
                n => (b'a' + (n - 4) % 26) as char,
            });
            AssetKind(label.collect())
        })
    }

    fn status() -> impl Strategy<Value = OfferStatus> {
        prop_oneof![
            Just(OfferStatus::Open),
            Just(OfferStatus::Cancelled),
            (any::<u64>(), any::<u64>()).prop_map(|(epoch, swap)| OfferStatus::Matched {
                epoch,
                swap: SwapId::from_raw(swap)
            }),
            Just(OfferStatus::Settled),
            Just(OfferStatus::Refunded),
        ]
    }

    fn offer() -> impl Strategy<Value = Offer> {
        (any::<[u8; 32]>(), 0u32..=16, any::<[u8; 32]>(), asset(), asset()).prop_map(
            |(root, height, hashlock, gives, wants)| Offer {
                key: MssPublicKey::from_root(Digest32(root), height),
                hashlock: Hashlock::from_digest(Digest32(hashlock)),
                gives,
                wants,
            },
        )
    }

    /// A book whose deferred set and in-flight swaps name only its own
    /// entries (none at all when it has no entries).
    fn book() -> impl Strategy<Value = BookSnapshot<'static>> {
        let picks = || prop::collection::vec(any::<u64>(), 0..4);
        (
            (0u64..1 << 40, any::<u64>(), any::<u64>()),
            prop::collection::vec((offer(), status()), 0..4),
            picks(),
            prop::collection::vec((any::<u64>(), picks()), 0..3),
        )
            .prop_map(|((first_id, epoch, next_swap), entries, deferred, in_flight)| {
                let n = entries.len() as u64;
                let ids = |picks: Vec<u64>| -> Vec<OfferId> {
                    let picks = picks.into_iter().filter(|_| n > 0);
                    picks.map(|pick| OfferId::from_raw(first_id + pick % n)).collect()
                };
                BookSnapshot {
                    first_id,
                    epoch,
                    next_swap,
                    entries: entries
                        .into_iter()
                        .map(|(offer, status)| BookEntry { offer, status })
                        .collect(),
                    deferred: ids(deferred),
                    in_flight: in_flight
                        .into_iter()
                        .map(|(swap, picks)| (SwapId::from_raw(swap), ids(picks)))
                        .collect(),
                }
            })
    }

    fn metrics() -> impl Strategy<Value = RunMetrics> {
        any::<[u64; 9]>().prop_map(|v| RunMetrics {
            rounds: v[0],
            contracts_published: v[1],
            unlock_calls: v[2],
            unlock_bytes: v[3],
            claim_calls: v[4],
            refund_calls: v[5],
            direct_transfers: v[6],
            rejected_calls: v[7],
            announce_bytes: v[8],
        })
    }

    fn summary() -> impl Strategy<Value = SwapSummary> {
        (
            any::<[u64; 5]>(),
            prop_oneof![Just(ProtocolKind::Hashkey), Just(ProtocolKind::Htlc)],
            (any::<bool>(), any::<bool>()),
            metrics(),
        )
            .prop_map(|(v, protocol, (settled, all_deal), metrics)| SwapSummary {
                swap: SwapId::from_raw(v[0]),
                epoch: v[1],
                parties: v[2] as usize,
                leaders: v[3] as usize,
                protocol,
                settled,
                all_deal,
                rounds: v[4],
                metrics,
            })
    }

    fn report() -> impl Strategy<Value = ExchangeReport> {
        (any::<[u64; 16]>(), any::<[u64; 9]>(), prop::collection::vec(summary(), 0..3)).prop_map(
            |(v, w, swaps)| ExchangeReport {
                epochs: v[0],
                offers_submitted: v[1],
                offers_cancelled: v[2],
                swaps_cleared: v[3],
                swaps_settled: v[4],
                swaps_refunded: v[5],
                swaps_exhausted: v[6],
                identities_registered: v[7],
                identities_minted: v[8],
                mints_overlapping_execution: v[9],
                leaves_leased: v[10],
                wall_ticks: v[11],
                stage_ticks: StageTicks {
                    clearing: w[0],
                    provisioning: w[1],
                    executing: w[2],
                    settling: w[3],
                },
                executing_peak: v[12],
                executing_resident_ticks: v[13],
                tx_executed: v[14],
                tx_rolled_back: v[15],
                storage: StorageReport {
                    blocks: w[4],
                    block_bytes: w[5] as usize,
                    contract_bytes: w[6] as usize,
                    asset_bytes: w[7] as usize,
                    tx_bytes: w[8] as usize,
                },
                swaps,
            },
        )
    }

    /// A master identity of height 0–3 over arbitrary leaf digests, its
    /// cursor anywhere from unused to exhausted.
    fn identity() -> impl Strategy<Value = MssKeypair> {
        (any::<[u8; 32]>(), 0u32..=3, any::<[[u8; 32]; 8]>(), any::<u64>()).prop_map(
            |(seed, height, leaves, cursor)| {
                let leaf_count = 1usize << height;
                let leaves = leaves[..leaf_count].iter().map(|l| Digest32(*l)).collect();
                MssKeypair::from_parts(seed, height, leaves, cursor % (leaf_count as u64 + 1))
            },
        )
    }

    fn snapshot() -> impl Strategy<Value = Snapshot<'static>> {
        let time = || any::<u64>().prop_map(SimTime::from_ticks);
        (
            (any::<u64>(), any::<[u8; 32]>(), time(), any::<[u64; 4]>()),
            (prop_oneof![Just(None), time().prop_map(Some)], any::<u64>(), any::<u64>()),
            report(),
            book(),
            prop::collection::vec((any::<u64>(), any::<[u8; 32]>(), any::<[u8; 32]>()), 0..4),
            prop::collection::vec(identity(), 0..3),
        )
            .prop_map(
                |(
                    (last_seq, config_digest, now, vacated),
                    (dirty_since, mint_ticket, leaves_leased),
                    report,
                    book,
                    material,
                    identities,
                )| Snapshot {
                    last_seq,
                    config_digest,
                    now,
                    vacated: vacated.map(SimTime::from_ticks),
                    dirty_since,
                    mint_ticket,
                    leaves_leased,
                    report: Cow::Owned(report),
                    book,
                    material: Cow::Owned(
                        material
                            .into_iter()
                            .map(|(offer, address, secret)| {
                                let address = Address::from_digest(Digest32(address));
                                (OfferId::from_raw(offer), (address, Secret::from_bytes(secret)))
                            })
                            .collect(),
                    ),
                    identities: identities.into_iter().map(Cow::Owned).collect(),
                },
            )
    }

    /// What identifies a master keypair (it has no `PartialEq`).
    fn identity_state(kp: &MssKeypair) -> ([u8; 32], u32, u64, Vec<Digest32>) {
        (*kp.seed(), kp.height(), kp.next_leaf(), kp.leaf_digests())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn snapshot_encode_decode_encode_is_byte_identical(snap in snapshot()) {
            let payload = to_bytes(&snap);
            let back = from_bytes::<Snapshot<'_>>(&payload);
            prop_assert!(back.is_ok(), "decode failed: {:?}", back.err());
            let back = back.unwrap();
            prop_assert_eq!(to_bytes(&back), payload);
            prop_assert_eq!(
                (back.last_seq, back.config_digest, back.now, back.vacated, back.dirty_since),
                (snap.last_seq, snap.config_digest, snap.now, snap.vacated, snap.dirty_since)
            );
            prop_assert_eq!(
                (back.mint_ticket, back.leaves_leased),
                (snap.mint_ticket, snap.leaves_leased)
            );
            prop_assert_eq!(&back.report, &snap.report);
            prop_assert_eq!(&back.book, &snap.book);
            prop_assert_eq!(&back.material, &snap.material);
            prop_assert_eq!(
                back.identities.iter().map(|kp| identity_state(kp)).collect::<Vec<_>>(),
                snap.identities.iter().map(|kp| identity_state(kp)).collect::<Vec<_>>()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn truncated_payload_is_an_error_not_a_panic(snap in snapshot()) {
            let payload = to_bytes(&snap);
            for cut in 0..payload.len() {
                prop_assert!(
                    from_bytes::<Snapshot<'_>>(&payload[..cut]).is_err(),
                    "cut at {} of {} decoded", cut, payload.len()
                );
            }
        }
    }

    // ─── Checksum-valid but inconsistent snapshots ───────────────────────

    /// The knobs of [`sample_payload`] an inconsistency can be planted
    /// next to.
    #[derive(Clone, Copy)]
    struct Sample {
        protocol: ProtocolKind,
        status: OfferStatus,
        key_height: u32,
        identity_height: u32,
        next_leaf: u64,
        deferred: u64,
        in_flight: u64,
    }

    const LAST_SEQ: u64 = 5;

    /// A small consistent snapshot of a default-configured exchange: a
    /// two-entry book (offers 10 and 11) with one swap in flight, one
    /// executed-swap line, one master identity.
    fn sample_payload(s: Sample) -> Vec<u8> {
        let offer = |byte: u8| Offer {
            key: MssPublicKey::from_root(Digest32([byte; 32]), s.key_height),
            hashlock: Secret::from_bytes([byte; 32]).hashlock(),
            gives: AssetKind::new("gold"),
            wants: AssetKind::new("silver"),
        };
        let swap = SwapId::from_raw(3);
        let line = SwapSummary {
            swap: SwapId::from_raw(2),
            epoch: 1,
            parties: 3,
            leaders: 1,
            protocol: s.protocol,
            settled: true,
            all_deal: true,
            rounds: 5,
            metrics: RunMetrics::default(),
        };
        to_bytes(&Snapshot {
            last_seq: LAST_SEQ,
            config_digest: config_digest(&ExchangeConfig::default()),
            now: SimTime::from_ticks(123),
            vacated: [SimTime::from_ticks(120); 4],
            dirty_since: None,
            mint_ticket: 9,
            leaves_leased: 1,
            report: Cow::Owned(ExchangeReport { swaps: vec![line], ..Default::default() }),
            book: BookSnapshot {
                first_id: 10,
                epoch: 2,
                next_swap: 4,
                entries: Cow::Owned(vec![
                    BookEntry { offer: offer(1), status: OfferStatus::Matched { epoch: 1, swap } },
                    BookEntry { offer: offer(2), status: s.status },
                ]),
                deferred: vec![OfferId::from_raw(s.deferred)],
                in_flight: vec![(swap, vec![OfferId::from_raw(s.in_flight)])],
            },
            material: Cow::Owned(BTreeMap::new()),
            identities: vec![Cow::Owned(
                MssKeypair::from_seed_with_height([7; 32], s.identity_height)
                    .with_leaf_cursor(s.next_leaf),
            )],
        })
    }

    /// Files `payload` as the store's only snapshot under frame sequence
    /// number `frame_seq` (a valid frame: the checksum covers whatever the
    /// payload holds) and recovers from it.
    fn recover_from(name: &str, frame_seq: u64, payload: &[u8]) -> Result<(), RecoverError> {
        let dir = std::env::temp_dir()
            .join(format!("swap-core-durability-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("store dir creatable");
        let mut frame = Encoder::new();
        begin_frame(&mut frame, SNAPSHOT_KIND, frame_seq);
        frame.put_raw(payload);
        seal_frame(&mut frame, 0);
        write_snapshot_temp(&dir, frame_seq, frame.as_bytes()).expect("snapshot file writes");
        install_snapshot(&dir, frame_seq).expect("snapshot file installs");
        let recovered = Exchange::recover(ExchangeConfig::default(), JournalConfig::new(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        recovered.map(|_| ())
    }

    #[test]
    fn inconsistent_snapshots_are_recover_errors_not_panics() {
        let base = Sample {
            protocol: ProtocolKind::Hashkey,
            status: OfferStatus::Open,
            key_height: 2,
            identity_height: 1,
            next_leaf: 0,
            deferred: 11,
            in_flight: 10,
        };
        let sound = sample_payload(base);
        recover_from("sound", LAST_SEQ, &sound).expect("the consistent sample recovers");

        // Each case names a neighbouring *consistent* sample; the first
        // byte where its payload differs from the base's is the byte that
        // holds the varied field, and the poison value goes there — so the
        // test finds its offsets without repeating the layout.
        let cases = [
            ("unknown protocol tag", Sample { protocol: ProtocolKind::Htlc, ..base }, 9),
            ("unknown offer-status tag", Sample { status: OfferStatus::Cancelled, ..base }, 9),
            ("offer key height above 16", Sample { key_height: 3, ..base }, 17),
            ("identity height above 16", Sample { identity_height: 2, ..base }, 17),
            ("leaf count is not 2^height", Sample { identity_height: 2, ..base }, 2),
            ("leaf cursor past the tree", Sample { next_leaf: 1, ..base }, 200),
            ("deferred offer outside the book", Sample { deferred: 10, ..base }, 250),
            ("in-flight offer outside the book", Sample { in_flight: 11, ..base }, 250),
        ];
        for (i, (what, neighbour, poison)) in cases.into_iter().enumerate() {
            let neighbour = sample_payload(neighbour);
            let at = sound.iter().zip(&neighbour).position(|(a, b)| a != b).expect("they differ");
            let mut poisoned = sound.clone();
            poisoned[at] = poison;
            assert!(from_bytes::<Snapshot<'_>>(&poisoned).is_err(), "{what}: payload decoded");
            match recover_from(&format!("case{i}"), LAST_SEQ, &poisoned) {
                Err(RecoverError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}");
                }
                other => panic!("{what}: expected an InvalidData error, got {other:?}"),
            }
        }

        // The frame's sequence number must agree with the payload's.
        match recover_from("frame-seq", LAST_SEQ + 1, &sound) {
            Err(RecoverError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("seq mismatch: expected an InvalidData error, got {other:?}"),
        }
    }
}
