//! Offer collection, the offer lifecycle, and epoch-based cycle clearing.
//!
//! The "clearing problem" — deciding *which* swaps to execute — is the
//! barter-exchange matching the paper cites (Kaplan; Abraham et al. for
//! kidney exchanges). This module implements the classic single-offer
//! variant: each party offers to give one asset kind and wants one asset
//! kind; the service matches gives to wants and decomposes the resulting
//! assignment into disjoint trade cycles, each of which becomes an atomic
//! swap instance.
//!
//! # Offer lifecycle
//!
//! Every submitted offer moves through a strict lifecycle:
//!
//! ```text
//! Open ──cancel()──────────────▶ Cancelled          (terminal)
//!   │
//!   └──clear()──▶ Matched { epoch, swap }
//!                    │
//!                    ├──settle_swap()──▶ Settled    (terminal)
//!                    └──refund_swap()──▶ Refunded   (terminal)
//! ```
//!
//! [`ClearingService::clear`] runs one *epoch*: it matches only the
//! currently [`OfferStatus::Open`] offers and consumes every offer it
//! matches — a matched offer can never be re-matched by a later epoch, and
//! a cancelled offer can never be matched at all. Unmatched offers stay
//! `Open` and roll into the next epoch's book.
//!
//! # The incremental clearing index
//!
//! The service maintains price-time FIFO queues — per-kind giver and
//! wanter sets, ordered by offer id (= submission order) — on every
//! `submit`/`cancel`/match/`settle_swap`/`refund_swap` delta. A clearing
//! epoch then touches only the *matchable* region of the book: the kinds
//! with both supply and demand (`active` kinds). Open offers whose
//! party is reserved by an in-flight swap are *parked* out of the index
//! and re-inserted when the swap resolves, so the reservation scan is
//! incremental too. An epoch over a million-offer book with a small
//! matchable churn region costs O(churn), not O(book).
//!
//! [`ClearingService::plan`] is the one planner production runs. The
//! original rescan-everything matcher stays beside it as the executable
//! specification, [`ClearingService::plan_full_rescan`]: a second planner
//! over the same book that ignores the index and re-derives the answer from
//! the open offers alone. The property tests commit both plans on copies of
//! the book before every clear and require the same [`ClearedSwap`]s and the
//! same resulting book; the two differ only in how much work
//! ([`ClearStats::offers_examined`]) reaching that answer costs.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};
use swap_contract::SwapSpec;
use swap_crypto::{Address, Hashlock, MssPublicKey};
use swap_digraph::{Digraph, VertexId};
use swap_sim::{Delta, SimTime};

use crate::builder::{BuildError, SpecBuilder};

/// A label for a tradable asset category, e.g. `"btc"`, `"altcoin"`,
/// `"cadillac-title"`. Matching is exact on the label.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AssetKind(pub String);

impl AssetKind {
    /// Creates a kind label.
    pub fn new(s: impl Into<String>) -> Self {
        AssetKind(s.into())
    }
}

impl fmt::Display for AssetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies a submitted offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OfferId(u64);

impl OfferId {
    /// The raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value (the durability-store path; ids
    /// are only meaningful against the service that issued them).
    pub const fn from_raw(raw: u64) -> Self {
        OfferId(raw)
    }
}

impl fmt::Display for OfferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offer{}", self.0)
    }
}

/// Identifies one cleared swap instance, unique across all epochs of a
/// [`ClearingService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SwapId(u64);

impl SwapId {
    /// The raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value (the durability-store path; ids
    /// are only meaningful against the service that issued them).
    pub const fn from_raw(raw: u64) -> Self {
        SwapId(raw)
    }
}

impl fmt::Display for SwapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "swap{}", self.0)
    }
}

/// Where an offer currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferStatus {
    /// Submitted and available to the next clearing epoch.
    Open,
    /// Withdrawn by its party before it was matched (terminal).
    Cancelled,
    /// Matched into a cleared swap; awaiting execution.
    Matched {
        /// The epoch whose clearing matched the offer.
        epoch: u64,
        /// The swap instance the offer is part of.
        swap: SwapId,
    },
    /// The matched swap executed and every arc triggered (terminal).
    Settled,
    /// The matched swap executed but was torn down with refunds (terminal).
    Refunded,
}

impl fmt::Display for OfferStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OfferStatus::Open => write!(f, "open"),
            OfferStatus::Cancelled => write!(f, "cancelled"),
            OfferStatus::Matched { epoch, swap } => {
                write!(f, "matched into {swap} at epoch {epoch}")
            }
            OfferStatus::Settled => write!(f, "settled"),
            OfferStatus::Refunded => write!(f, "refunded"),
        }
    }
}

/// What a party sends the clearing service (§4.2): its verification key,
/// its freshly generated hashlock, and the trade it is willing to make.
#[derive(Debug, Clone, PartialEq)]
pub struct Offer {
    /// The party's signature-verification key (address derives from it).
    pub key: MssPublicKey,
    /// The party's hashlock `H(s)` — every party sends one, whether or not
    /// it ends up a leader.
    pub hashlock: Hashlock,
    /// The asset kind this party will relinquish.
    pub gives: AssetKind,
    /// The asset kind this party demands.
    pub wants: AssetKind,
}

/// One cleared swap instance: the published spec plus the offer-level
/// bookkeeping parties need to re-verify it.
#[derive(Debug, Clone)]
pub struct ClearedSwap {
    /// The service-wide unique id of this swap instance.
    pub id: SwapId,
    /// The epoch whose clearing produced it.
    pub epoch: u64,
    /// The validated swap specification.
    pub spec: SwapSpec,
    /// Which offer each digraph vertex corresponds to.
    pub offer_of_vertex: Vec<OfferId>,
    /// The asset kind carried by each arc (indexed by arc id).
    pub arc_kinds: Vec<AssetKind>,
}

/// Errors from [`ClearingService::clear`].
#[derive(Debug, Clone, PartialEq)]
pub enum ClearError {
    /// Spec assembly failed for a matched cycle (should not happen for
    /// well-formed offers; surfaced rather than hidden).
    Build(BuildError),
    /// The book changed (a submit, cancel, clearing, settlement or refund)
    /// between drawing the plan and committing it; the plan's cycles may
    /// name offers that are no longer open. Draw a fresh plan.
    StalePlan,
}

impl fmt::Display for ClearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClearError::Build(e) => write!(f, "failed to assemble cleared swap: {e}"),
            ClearError::StalePlan => write!(f, "the book changed since the plan was drawn"),
        }
    }
}

impl std::error::Error for ClearError {}

impl From<BuildError> for ClearError {
    fn from(e: BuildError) -> Self {
        ClearError::Build(e)
    }
}

/// Errors from [`ClearingService::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelError {
    /// No offer with that id was ever submitted.
    UnknownOffer(OfferId),
    /// The offer has left the `Open` state (matched, resolved, or already
    /// cancelled) and can no longer be withdrawn.
    NotOpen(OfferId, OfferStatus),
}

impl fmt::Display for CancelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelError::UnknownOffer(id) => write!(f, "unknown {id}"),
            CancelError::NotOpen(id, status) => {
                write!(f, "{id} cannot be cancelled: it is {status}")
            }
        }
    }
}

impl std::error::Error for CancelError {}

/// Errors from [`ClearingService::settle_swap`] /
/// [`ClearingService::refund_swap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleError {
    /// The swap id was never issued, or its offers were already resolved.
    UnknownSwap(SwapId),
    /// The offer id was never issued by this service (stale, foreign, or
    /// out of range).
    UnknownOffer(OfferId),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::UnknownSwap(id) => {
                write!(f, "{id} is unknown or already resolved")
            }
            LifecycleError::UnknownOffer(id) => {
                write!(f, "{id} was never issued by this service")
            }
        }
    }
}

impl std::error::Error for LifecycleError {}

/// Measured work of one clearing epoch, attached to the [`ClearPlan`] and
/// retained as [`ClearingService::last_clear_stats`]. An execution layer
/// can derive *measured* stage costs from these instead of a synthetic
/// per-open-offer model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClearStats {
    /// Open offers in the book when the plan was drawn (parked included).
    pub open_offers: u64,
    /// Offers the planner actually examined: only the zip steps over
    /// active kinds for [`ClearingService::plan`]; every open offer for the
    /// [`ClearingService::plan_full_rescan`] reference. This is the work
    /// proxy that separates the two on large, mostly-unmatchable books.
    pub offers_examined: u64,
    /// Cycles selected for publication (after party-disjointness).
    pub cycles_emitted: u64,
    /// Offers matched into those cycles.
    pub offers_matched: u64,
}

/// An uncommitted clearing epoch: the cycles a [`ClearingService::plan`]
/// call selected plus the measured [`ClearStats`] of finding them.
///
/// The split exists so an execution layer can price the epoch (from the
/// stats) *before* publishing it — the publication instant feeds into every
/// spec's start time. Apply with [`ClearingService::commit`], which refuses
/// the plan ([`ClearError::StalePlan`]) if the book changed in between.
#[derive(Debug, Clone)]
pub struct ClearPlan {
    /// Party-disjoint cycles to publish, in emission order.
    selected: Vec<Vec<OfferId>>,
    /// Offers this clearing saw but skipped: reservation parks plus the
    /// members of cycles rejected by party-disjointness. These become the
    /// new deferred set on commit.
    skipped: Vec<OfferId>,
    stats: ClearStats,
    /// Staleness stamp: the book generation the plan was drawn at.
    generation: u64,
}

impl ClearPlan {
    /// The measured work of drawing this plan.
    pub fn stats(&self) -> &ClearStats {
        &self.stats
    }

    /// True if the plan publishes no swaps.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }
}

/// A durable image of a [`ClearingService`]: everything
/// [`restore`](ClearingService::restore) needs to rebuild the service — entries with
/// their lifecycle statuses, the id/epoch cursors, the deferred set, and
/// the in-flight swap membership.
///
/// Only *state* is captured, never the derived matching index: `restore`
/// rebuilds `open`, the reservation set (the union of in-flight parties),
/// the per-address fan-out, and the park/index split from these fields,
/// which keeps the snapshot format independent of index internals.
///
/// The entry table is the bulk of a deep book, and
/// [`snapshot`](ClearingService::snapshot) borrows it from the live
/// service rather than copying it; a decoded snapshot owns its own.
#[derive(Debug, Clone, PartialEq)]
pub struct BookSnapshot<'a> {
    /// Raw id of the first entry; entry `i` holds offer `first_id + i`.
    pub first_id: u64,
    /// The next epoch number.
    pub epoch: u64,
    /// The next swap id to issue.
    pub next_swap: u64,
    /// Every submitted offer with its status, in id order.
    pub entries: Cow<'a, [BookEntry]>,
    /// Offers skipped by the most recent committed clearing.
    pub deferred: Vec<OfferId>,
    /// Matched-but-unresolved swaps and their offers in vertex order.
    pub in_flight: Vec<(SwapId, Vec<OfferId>)>,
}

/// One submitted offer and its lifecycle state: an element of the
/// service's entry table, which a [`BookSnapshot`] borrows as it is.
#[derive(Debug, Clone, PartialEq)]
pub struct BookEntry {
    /// The offer as submitted.
    pub offer: Offer,
    /// Where it is in its lifecycle.
    pub status: OfferStatus,
}

/// The (untrusted) market-clearing service.
///
/// # Example
///
/// ```
/// use swap_crypto::{MssKeypair, Secret};
/// use swap_market::{AssetKind, ClearingService, Offer, OfferStatus};
/// use swap_sim::{Delta, SimTime};
///
/// let mut svc = ClearingService::new();
/// // Alice: altcoin → wants cadillac; Bob: btc → wants altcoin;
/// // Carol: cadillac → wants btc. One 3-cycle clears.
/// for (i, (gives, wants)) in [("altcoin", "cadillac"), ("btc", "altcoin"), ("cadillac", "btc")]
///     .iter()
///     .enumerate()
/// {
///     let kp = MssKeypair::from_seed_with_height([i as u8 + 1; 32], 2);
///     let s = Secret::from_bytes([i as u8 + 10; 32]);
///     svc.submit(Offer {
///         key: kp.public_key(),
///         hashlock: s.hashlock(),
///         gives: AssetKind::new(*gives),
///         wants: AssetKind::new(*wants),
///     });
/// }
/// let swaps = svc.clear(Delta::from_ticks(10), SimTime::ZERO).unwrap();
/// assert_eq!(swaps.len(), 1);
/// assert_eq!(swaps[0].spec.digraph.vertex_count(), 3);
/// // The epoch *consumed* the matched offers: they are in `Matched` now
/// // and a second clearing finds an empty book.
/// assert!(matches!(svc.status(swaps[0].offer_of_vertex[0]), Some(OfferStatus::Matched { .. })));
/// assert!(svc.clear(Delta::from_ticks(10), SimTime::ZERO).unwrap().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClearingService {
    /// Every submitted offer, in id order: entry `i` holds offer
    /// `first_id + i`.
    entries: Vec<BookEntry>,
    /// The party address of each entry, derived once at submission
    /// (hashing the key per lookup is measurable at book scale).
    addresses: Vec<Address>,
    /// Bumped by every lifecycle mutation (submit, cancel, commit, settle,
    /// refund); a [`ClearPlan`] is only committable at the generation it
    /// was drawn at.
    generation: u64,
    /// Raw id of the first offer this service issues (0 unless restored
    /// from a snapshot that says otherwise); entry `i` holds offer
    /// `first_id + i`.
    first_id: u64,
    /// The next epoch number `clear` will run as.
    epoch: u64,
    /// The next swap id to issue.
    next_swap: u64,
    /// Offers of every matched-but-unresolved swap.
    in_flight: BTreeMap<SwapId, Vec<OfferId>>,
    /// The `Open` offers (ascending id = submission order), so an epoch
    /// costs O(open book), not O(every offer ever submitted).
    open: BTreeSet<OfferId>,
    /// Open offers the most recent clearing *skipped* because their party
    /// was reserved by an in-flight swap (see
    /// [`ClearingService::any_deferred_from`]). Cleared when the offer is
    /// matched, cancelled, or seen unreserved by a later clearing.
    deferred: BTreeSet<OfferId>,
    /// Addresses locked by in-flight swaps, maintained incrementally:
    /// inserted when a clearing commits a match, removed when the swap
    /// settles or refunds.
    reserved: BTreeSet<Address>,
    /// Open offers per party address (the park/unpark fan-out).
    by_address: BTreeMap<Address, BTreeSet<OfferId>>,
    /// Open offers *excluded* from the matching index because their party
    /// address is reserved. Invariant: `parked` is exactly the open offers
    /// whose address is in `reserved`.
    parked: BTreeSet<OfferId>,
    // ---- the matching index (open, unparked offers only) ----
    /// Offers giving each kind. Entries are never empty.
    givers: BTreeMap<AssetKind, BTreeSet<OfferId>>,
    /// Offers wanting each kind. Entries are never empty.
    wanters: BTreeMap<AssetKind, BTreeSet<OfferId>>,
    /// Kinds with both supply and demand — the only kinds a clearing epoch
    /// visits.
    active: BTreeSet<AssetKind>,
    /// Stats of the most recent committed clearing.
    last_stats: Option<ClearStats>,
}

impl ClearingService {
    /// Creates an empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts an offer, returning its id. The offer starts `Open`.
    pub fn submit(&mut self, offer: Offer) -> OfferId {
        let id = OfferId(self.first_id + self.entries.len() as u64);
        let address = offer.key.address();
        self.entries.push(BookEntry { offer, status: OfferStatus::Open });
        self.addresses.push(address);
        self.generation += 1;
        self.open.insert(id);
        self.by_address.entry(address).or_default().insert(id);
        if self.reserved.contains(&address) {
            self.parked.insert(id);
        } else {
            self.index_insert(id);
        }
        id
    }

    /// The dense `entries` index of `id`, checked: stale or foreign ids
    /// (below the id base, past the entry table, or whose offset does not
    /// fit `usize` on narrow targets, where a bare cast would silently
    /// truncate) yield [`LifecycleError::UnknownOffer`] instead of an
    /// indexing panic. Every offer-id lookup in the service funnels
    /// through here.
    fn entry_index(&self, id: OfferId) -> Result<usize, LifecycleError> {
        id.0.checked_sub(self.first_id)
            .and_then(|off| usize::try_from(off).ok())
            .filter(|&i| i < self.entries.len())
            .ok_or(LifecycleError::UnknownOffer(id))
    }

    /// The entry for `id`, checked (see [`Self::entry_index`]).
    fn entry(&self, id: OfferId) -> Result<&BookEntry, LifecycleError> {
        self.entry_index(id).map(|i| &self.entries[i])
    }

    /// The id of the offer at entry index `i`.
    fn id_at(&self, i: usize) -> OfferId {
        OfferId(self.first_id + i as u64)
    }

    /// Withdraws an `Open` offer. A cancelled offer can never be matched by
    /// any later epoch.
    ///
    /// # Errors
    ///
    /// [`CancelError::UnknownOffer`] for ids never issued;
    /// [`CancelError::NotOpen`] once the offer has been matched, resolved,
    /// or already cancelled.
    pub fn cancel(&mut self, id: OfferId) -> Result<(), CancelError> {
        let i = self.entry_index(id).map_err(|_| CancelError::UnknownOffer(id))?;
        match self.entries[i].status {
            OfferStatus::Open => {
                self.entries[i].status = OfferStatus::Cancelled;
                self.generation += 1;
                self.open.remove(&id);
                self.deferred.remove(&id);
                let address = self.addresses[i];
                self.book_remove(id, &address);
                Ok(())
            }
            status => Err(CancelError::NotOpen(id, status)),
        }
    }

    /// The offer with the given id.
    pub fn offer(&self, id: OfferId) -> Option<&Offer> {
        self.entry(id).ok().map(|e| &e.offer)
    }

    /// The lifecycle status of the offer with the given id.
    pub fn status(&self, id: OfferId) -> Option<OfferStatus> {
        self.entry(id).ok().map(|e| e.status)
    }

    /// Number of submitted offers (any status).
    pub fn offer_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of offers currently `Open` (the next epoch's book).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// The epoch number the next [`clear`](Self::clear) call will run as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The offers of a matched-but-unresolved swap, in vertex order.
    pub fn offers_of_swap(&self, swap: SwapId) -> Option<&[OfferId]> {
        self.in_flight.get(&swap).map(Vec::as_slice)
    }

    /// Marks every offer of `swap` as `Settled` and retires the swap.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::UnknownSwap`] if the id was never issued or the
    /// swap was already resolved.
    pub fn settle_swap(&mut self, swap: SwapId) -> Result<(), LifecycleError> {
        self.resolve_swap(swap, OfferStatus::Settled)
    }

    /// Marks every offer of `swap` as `Refunded` and retires the swap.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::UnknownSwap`] if the id was never issued or the
    /// swap was already resolved.
    pub fn refund_swap(&mut self, swap: SwapId) -> Result<(), LifecycleError> {
        self.resolve_swap(swap, OfferStatus::Refunded)
    }

    fn resolve_swap(&mut self, swap: SwapId, terminal: OfferStatus) -> Result<(), LifecycleError> {
        let offers = self.in_flight.get(&swap).ok_or(LifecycleError::UnknownSwap(swap))?;
        // Validate every id before committing anything: in-flight ids are
        // internally issued and always valid, but a corrupted one must not
        // leave the resolution half-applied.
        let indices: Result<Vec<usize>, LifecycleError> =
            offers.iter().map(|&id| self.entry_index(id)).collect();
        let indices = indices?;
        self.in_flight.remove(&swap);
        self.generation += 1;
        for i in indices {
            self.entries[i].status = terminal;
            // Release the party's reservation and wake its parked offers
            // back into the matching index.
            let address = self.addresses[i];
            self.reserved.remove(&address);
            self.unpark_address(&address);
        }
        Ok(())
    }

    /// The addresses locked by in-flight (matched-but-unresolved) swaps,
    /// maintained incrementally (inserted at match, removed at
    /// settle/refund) and returned by reference — no per-call rebuild.
    /// Clearing never matches an `Open` offer whose party address is in
    /// this set: a party already driving an in-flight protocol run cannot
    /// commit its key material to a second concurrent swap. Its open
    /// offers simply roll over until the in-flight swap settles or refunds.
    pub fn reserved_addresses(&self) -> &BTreeSet<Address> {
        &self.reserved
    }

    /// True if any currently `Open` offer of one of `addresses` was
    /// skipped by a clearing while its party was reserved. An execution
    /// layer checks this when a swap resolves: releasing a reservation
    /// makes exactly these deferred offers matchable again, so the book
    /// deserves another clearing pass — whereas ordinary unmatched
    /// leftovers (no counterparty) do not warrant one.
    pub fn any_deferred_from(&self, addresses: &BTreeSet<Address>) -> bool {
        self.deferred.iter().any(|&id| {
            self.entry_index(id).is_ok_and(|i| {
                matches!(self.entries[i].status, OfferStatus::Open)
                    && addresses.contains(&self.addresses[i])
            })
        })
    }

    /// The measured work of the most recent committed clearing epoch.
    pub fn last_clear_stats(&self) -> Option<ClearStats> {
        self.last_stats
    }

    // ---- index maintenance ----

    /// Inserts an open, unreserved offer into the matching index.
    fn index_insert(&mut self, id: OfferId) {
        let i = self.entry_index(id).expect("indexed offers were issued by this service");
        let gives = self.entries[i].offer.gives.clone();
        let wants = self.entries[i].offer.wants.clone();
        self.givers.entry(gives.clone()).or_default().insert(id);
        if self.wanters.contains_key(&gives) {
            self.active.insert(gives);
        }
        self.wanters.entry(wants.clone()).or_default().insert(id);
        if self.givers.contains_key(&wants) {
            self.active.insert(wants);
        }
    }

    /// Removes an offer from the matching index, pruning emptied buckets
    /// (so `contains_key` on `givers`/`wanters` means non-empty).
    fn index_remove(&mut self, id: OfferId) {
        let i = self.entry_index(id).expect("indexed offers were issued by this service");
        let Offer { gives, wants, .. } = &self.entries[i].offer;
        if let Some(set) = self.givers.get_mut(gives) {
            set.remove(&id);
            if set.is_empty() {
                self.givers.remove(gives);
                self.active.remove(gives);
            }
        }
        if let Some(set) = self.wanters.get_mut(wants) {
            set.remove(&id);
            if set.is_empty() {
                self.wanters.remove(wants);
                self.active.remove(wants);
            }
        }
    }

    /// Removes an offer leaving the open book (cancelled or matched) from
    /// the address fan-out and from wherever it lives — parked set or
    /// matching index.
    fn book_remove(&mut self, id: OfferId, address: &Address) {
        if let Some(set) = self.by_address.get_mut(address) {
            set.remove(&id);
            if set.is_empty() {
                self.by_address.remove(address);
            }
        }
        if !self.parked.remove(&id) {
            self.index_remove(id);
        }
    }

    /// Moves every open offer of `address` out of the matching index into
    /// the parked set (the address just became reserved).
    fn park_address(&mut self, address: &Address) {
        let ids: Vec<OfferId> =
            self.by_address.get(address).into_iter().flatten().copied().collect();
        for id in ids {
            if self.parked.insert(id) {
                self.index_remove(id);
            }
        }
    }

    /// Moves every parked offer of `address` back into the matching index
    /// (the address's reservation was just released). Id-ordered sets make
    /// re-insertion restore the exact FIFO position.
    fn unpark_address(&mut self, address: &Address) {
        let ids: Vec<OfferId> =
            self.by_address.get(address).into_iter().flatten().copied().collect();
        for id in ids {
            if self.parked.remove(&id) {
                self.index_insert(id);
            }
        }
    }

    // ---- planning ----

    /// Draws (without committing) one clearing epoch's plan: the
    /// party-disjoint cycles the indexed matcher selects from the open
    /// book, plus the measured [`ClearStats`] of finding them. Apply with
    /// [`commit`](Self::commit), which refuses the plan if the book changed
    /// in between.
    pub fn plan(&self) -> ClearPlan {
        let mut examined = 0u64;
        let cycles = self.indexed_fifo(&mut examined);
        // Everything a full rescan would have skipped for reservation is,
        // by the park invariant, exactly the parked set.
        let mut skipped: Vec<OfferId> = self.parked.iter().copied().collect();
        let selected = self.select_disjoint(cycles, &mut skipped);
        self.finish_plan(examined, selected, skipped)
    }

    /// The executable specification of [`plan`](Self::plan): rescans the
    /// entire open book — O(open book), reading neither the matching index
    /// nor the parked set — and must select the same cycles and skip the
    /// same offers. Tests hold `plan` to it before every clear; committing
    /// its plan is as valid as committing `plan`'s.
    pub fn plan_full_rescan(&self) -> ClearPlan {
        // Dense view of the open book in submission order, minus the
        // reservation set.
        let mut open_idx: Vec<usize> = Vec::with_capacity(self.open.len());
        let mut skipped: Vec<OfferId> = Vec::new();
        for &id in &self.open {
            let i = self.entry_index(id).expect("open offers were issued by this service");
            if !self.reserved.is_empty() && self.reserved.contains(&self.addresses[i]) {
                skipped.push(id);
            } else {
                open_idx.push(i);
            }
        }
        // Cycles of entry indices → cycles of real offer ids (the two
        // coincide only when the id base is 0).
        let cycles: Vec<Vec<OfferId>> = self
            .fifo_cycles(&open_idx)
            .into_iter()
            .map(|cycle| cycle.into_iter().map(|i| self.id_at(i)).collect())
            .collect();
        let selected = self.select_disjoint(cycles, &mut skipped);
        self.finish_plan(self.open.len() as u64, selected, skipped)
    }

    fn finish_plan(
        &self,
        offers_examined: u64,
        selected: Vec<Vec<OfferId>>,
        skipped: Vec<OfferId>,
    ) -> ClearPlan {
        let stats = ClearStats {
            open_offers: self.open.len() as u64,
            offers_examined,
            cycles_emitted: selected.len() as u64,
            offers_matched: selected.iter().map(|c| c.len() as u64).sum(),
        };
        ClearPlan { selected, skipped, stats, generation: self.generation }
    }

    /// One party, one concurrent swap: accept cycles in order, rejecting
    /// any whose party address this epoch already committed — or that
    /// binds the same address to two of its own vertices (one keypair
    /// cannot drive two protocol roles at once). Rejected cycles' offers
    /// are *deferred* exactly like reservation skips: they stay open,
    /// and the blocking swap's resolution wakes the book for them.
    fn select_disjoint(
        &self,
        cycles: Vec<Vec<OfferId>>,
        skipped: &mut Vec<OfferId>,
    ) -> Vec<Vec<OfferId>> {
        let mut epoch_addresses: BTreeSet<Address> = BTreeSet::new();
        let mut selected: Vec<Vec<OfferId>> = Vec::with_capacity(cycles.len());
        for cycle in cycles {
            let addrs: Vec<Address> = cycle
                .iter()
                .map(|&id| {
                    let i =
                        self.entry_index(id).expect("matched offers were issued by this service");
                    self.addresses[i]
                })
                .collect();
            let disjoint = addrs.iter().all(|a| !epoch_addresses.contains(a))
                && addrs.iter().collect::<BTreeSet<_>>().len() == addrs.len();
            if disjoint {
                epoch_addresses.extend(addrs);
                selected.push(cycle);
            } else {
                skipped.extend(cycle.iter().copied());
            }
        }
        selected
    }

    // ---- committing ----

    /// Publishes a plan drawn by [`plan`](Self::plan) (or the
    /// [`plan_full_rescan`](Self::plan_full_rescan) reference): assembles one
    /// [`ClearedSwap`] per selected cycle, consumes the matched offers,
    /// reserves their parties (parking any further open offers they have),
    /// replaces the deferred set with the plan's skips, and advances the
    /// epoch.
    ///
    /// The start time of every published spec is `now + Δ` ("at least Δ in
    /// the future").
    ///
    /// # Errors
    ///
    /// [`ClearError::StalePlan`] if any submit, cancel, commit, settlement
    /// or refund reached the book after the plan was drawn — its cycles may
    /// name offers that are no longer open. Otherwise propagates
    /// spec-assembly failures (which indicate malformed offers, e.g.
    /// duplicate keys). On error no offer changes status and the epoch
    /// number does not advance.
    pub fn commit(
        &mut self,
        plan: ClearPlan,
        delta: Delta,
        now: SimTime,
    ) -> Result<Vec<ClearedSwap>, ClearError> {
        if plan.generation != self.generation {
            return Err(ClearError::StalePlan);
        }
        // Assemble every spec before mutating any lifecycle state, so a
        // build failure leaves the book untouched.
        let epoch = self.epoch;
        let mut swaps = Vec::with_capacity(plan.selected.len());
        for (k, cycle) in plan.selected.iter().enumerate() {
            let id = SwapId(self.next_swap + k as u64);
            swaps.push(self.assemble(id, epoch, cycle, delta, now)?);
        }
        // Commit: this clearing considered every open offer, so the
        // deferred set becomes exactly what it skipped (reservation parks
        // and rejected cycles).
        self.deferred = plan.skipped.into_iter().collect();
        for swap in &swaps {
            let mut addresses = Vec::with_capacity(swap.offer_of_vertex.len());
            for &oid in &swap.offer_of_vertex {
                let i = self.entry_index(oid).expect("cleared offers were issued by this service");
                self.entries[i].status = OfferStatus::Matched { epoch, swap: swap.id };
                self.open.remove(&oid);
                let address = self.addresses[i];
                self.book_remove(oid, &address);
                addresses.push(address);
            }
            for address in addresses {
                self.reserved.insert(address);
                self.park_address(&address);
            }
            self.in_flight.insert(swap.id, swap.offer_of_vertex.clone());
        }
        self.next_swap += swaps.len() as u64;
        self.epoch += 1;
        self.generation += 1;
        self.last_stats = Some(plan.stats);
        Ok(swaps)
    }

    /// Runs one clearing epoch: matches the `Open` offers into disjoint
    /// trade cycles and publishes one [`ClearedSwap`] per cycle. Every
    /// matched offer transitions to [`OfferStatus::Matched`] and is
    /// *consumed* — later epochs can never re-match it. Unmatched offers
    /// stay `Open` for the next epoch. Equivalent to
    /// [`plan`](Self::plan) + [`commit`](Self::commit); the split exists
    /// for callers that must price the epoch before publishing it.
    ///
    /// Clearing runs against the *reservation set* of in-flight parties
    /// ([`reserved_addresses`](Self::reserved_addresses)): an open offer
    /// whose key is already committed to a matched-but-unresolved swap is
    /// skipped this epoch and rolls over. This is what lets an execution
    /// layer clear epoch `k+1` while epoch `k` is still executing. The
    /// same invariant holds *within* an epoch: cleared cycles are
    /// party-disjoint by address — a party with several open offers gets
    /// at most one matched per clearing (the rest are deferred like
    /// reservation skips), and no cycle binds one address to two of its
    /// vertices.
    ///
    /// The matching is greedy FIFO per asset kind: the first submitted open
    /// demand for kind `k` is paired with the first open unmatched supply
    /// of `k`. Deterministic, order-sensitive, and O(n) — richer strategies
    /// (maximum-cycle-cover) belong to the clearing literature the paper
    /// cites, not to the swap protocol itself. Every cleared cycle is a
    /// simple ring, so any one vertex is a minimum feedback vertex set and
    /// every cleared swap elects a single leader. [`plan`](Self::plan)
    /// computes this answer from the incremental index — see the module
    /// docs.
    ///
    /// # Errors
    ///
    /// Propagates spec-assembly failures (which indicate malformed offers,
    /// e.g. duplicate keys). On error no offer changes status and the epoch
    /// number does not advance.
    pub fn clear(&mut self, delta: Delta, now: SimTime) -> Result<Vec<ClearedSwap>, ClearError> {
        let plan = self.plan();
        self.commit(plan, delta, now)
    }

    // ---- the indexed matcher ----

    /// Greedy FIFO matching from the index: for every *active* kind, zip
    /// the id-ordered givers against the id-ordered wanters (the i-th
    /// demand for a kind pairs with the i-th supply — exactly what the
    /// full-rescan queue matcher computes), then walk the resulting
    /// partial permutation's cycles from their smallest members upward.
    /// Each zip step counts one examined offer.
    fn indexed_fifo(&self, examined: &mut u64) -> Vec<Vec<OfferId>> {
        let mut succ: BTreeMap<OfferId, OfferId> = BTreeMap::new();
        let mut has_supplier: BTreeSet<OfferId> = BTreeSet::new();
        for kind in &self.active {
            let (Some(givers), Some(wanters)) = (self.givers.get(kind), self.wanters.get(kind))
            else {
                continue;
            };
            for (&giver, &wanter) in givers.iter().zip(wanters) {
                *examined += 1;
                succ.insert(giver, wanter);
                has_supplier.insert(wanter);
            }
        }
        // An offer participates only if it both gives to someone and
        // receives from someone; walk permutation cycles among those, from
        // ascending ids (the full-rescan matcher's discovery order).
        let mut visited: BTreeSet<OfferId> = BTreeSet::new();
        let mut cycles: Vec<Vec<OfferId>> = Vec::new();
        for (&start, &first) in &succ {
            if visited.contains(&start) || !has_supplier.contains(&start) {
                continue;
            }
            let mut cycle = vec![start];
            visited.insert(start);
            let mut cur = first;
            while !visited.contains(&cur) {
                visited.insert(cur);
                cycle.push(cur);
                match succ.get(&cur) {
                    Some(&next) => cur = next,
                    None => break,
                }
            }
            if cur == start && cycle.len() >= 2 {
                cycles.push(cycle);
            }
        }
        cycles
    }

    // ---- the reference (full-rescan) matcher ----

    /// Greedy FIFO matching over the given entry indices (submission
    /// order): pairs each demand with the earliest unmatched supply of the
    /// wanted kind and walks the resulting permutation's cycles. Returns
    /// cycles of *entry* indices.
    fn fifo_cycles(&self, idx: &[usize]) -> Vec<Vec<usize>> {
        let m = idx.len();
        // supply[kind] = queue of dense positions giving that kind.
        let mut supply: BTreeMap<&AssetKind, VecDeque<usize>> = BTreeMap::new();
        for (pos, &i) in idx.iter().enumerate() {
            supply.entry(&self.entries[i].offer.gives).or_default().push_back(pos);
        }
        // successor[pos] = dense position receiving pos's asset.
        let mut successor: Vec<Option<usize>> = vec![None; m];
        let mut has_supplier = vec![false; m];
        for (pos, &i) in idx.iter().enumerate() {
            if let Some(queue) = supply.get_mut(&self.entries[i].offer.wants) {
                if let Some(giver) = queue.pop_front() {
                    successor[giver] = Some(pos);
                    has_supplier[pos] = true;
                }
            }
        }
        // An offer participates only if it both gives to someone and
        // receives from someone; walk permutation cycles among those.
        let mut visited = vec![false; m];
        let mut cycles: Vec<Vec<usize>> = Vec::new();
        for start in 0..m {
            if visited[start] || successor[start].is_none() || !has_supplier[start] {
                continue;
            }
            // Trace the cycle; bail if it wanders into non-participants.
            let mut cycle = vec![start];
            visited[start] = true;
            let mut cur = successor[start].expect("checked above");
            let mut closed = false;
            while !visited[cur] {
                visited[cur] = true;
                cycle.push(cur);
                match successor[cur] {
                    Some(next) => cur = next,
                    None => break,
                }
            }
            if cur == start {
                closed = true;
            }
            if !closed || cycle.len() < 2 {
                continue;
            }
            cycles.push(cycle.into_iter().map(|pos| idx[pos]).collect());
        }
        cycles
    }

    /// Builds the digraph and spec for one cleared cycle of offer ids.
    fn assemble(
        &self,
        id: SwapId,
        epoch: u64,
        cycle: &[OfferId],
        delta: Delta,
        now: SimTime,
    ) -> Result<ClearedSwap, ClearError> {
        let mut digraph = Digraph::new();
        for &oid in cycle {
            digraph.add_vertex(format!("{oid}"));
        }
        let k = cycle.len();
        let mut arc_kinds = Vec::with_capacity(k);
        for (pos, &oid) in cycle.iter().enumerate() {
            let head = VertexId::new(pos as u32);
            let tail = VertexId::new(((pos + 1) % k) as u32);
            digraph.add_arc(head, tail).expect("cycle arcs valid");
            let i = self.entry_index(oid).expect("cleared offers were issued by this service");
            arc_kinds.push(self.entries[i].offer.gives.clone());
        }
        let mut builder = SpecBuilder::new(digraph);
        builder.delta(delta).start(now + delta.times(1));
        for (pos, &oid) in cycle.iter().enumerate() {
            let i = self.entry_index(oid).expect("cleared offers were issued by this service");
            let offer = &self.entries[i].offer;
            builder.identity(VertexId::new(pos as u32), offer.key, offer.hashlock);
        }
        let spec = builder.build()?;
        Ok(ClearedSwap { id, epoch, spec, offer_of_vertex: cycle.to_vec(), arc_kinds })
    }

    // ---- durability ----

    /// Captures the service's durable state (see [`BookSnapshot`]),
    /// borrowing the entry table.
    pub fn snapshot(&self) -> BookSnapshot<'_> {
        BookSnapshot {
            first_id: self.first_id,
            epoch: self.epoch,
            next_swap: self.next_swap,
            entries: Cow::Borrowed(&self.entries),
            deferred: self.deferred.iter().copied().collect(),
            in_flight: self.in_flight.iter().map(|(&s, o)| (s, o.clone())).collect(),
        }
    }

    /// Rebuilds a service from a [`BookSnapshot`], rederiving the matching
    /// index, the reservation set, and the park/index split. The restored
    /// service plans and commits exactly as the snapshotted one would
    /// ([`last_clear_stats`](Self::last_clear_stats) alone resets to `None`
    /// — it is a measurement, not book state).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot references offer ids outside its own entry
    /// table — `swap-core`'s snapshot decoder refuses such a book before it
    /// gets here.
    pub fn restore(snapshot: BookSnapshot<'_>) -> Self {
        let entries = snapshot.entries.into_owned();
        let addresses = entries.iter().map(|e| e.offer.key.address()).collect();
        let mut svc = ClearingService {
            entries,
            addresses,
            first_id: snapshot.first_id,
            epoch: snapshot.epoch,
            next_swap: snapshot.next_swap,
            ..Default::default()
        };
        svc.deferred = snapshot.deferred.into_iter().collect();
        // The reservation set is exactly the union of in-flight parties —
        // the invariant `commit`/`resolve_swap` maintain incrementally.
        for (swap, offers) in snapshot.in_flight {
            for &oid in &offers {
                let i = svc.entry_index(oid).expect("in-flight offer inside the snapshot");
                svc.reserved.insert(svc.addresses[i]);
            }
            svc.in_flight.insert(swap, offers);
        }
        // Open offers re-enter the book in id order, restoring FIFO
        // positions; reserved parties' offers park instead of indexing,
        // exactly as a live `submit` would have left them.
        let open: Vec<(OfferId, Address)> = (0..svc.entries.len())
            .filter(|&i| matches!(svc.entries[i].status, OfferStatus::Open))
            .map(|i| (svc.id_at(i), svc.addresses[i]))
            .collect();
        for (id, address) in open {
            svc.open.insert(id);
            svc.by_address.entry(address).or_default().insert(id);
            if svc.reserved.contains(&address) {
                svc.parked.insert(id);
            } else {
                svc.index_insert(id);
            }
        }
        svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_crypto::{MssKeypair, Secret};

    fn offer(seed: u8, gives: &str, wants: &str) -> Offer {
        let kp = MssKeypair::from_seed_with_height([seed; 32], 2);
        Offer {
            key: kp.public_key(),
            hashlock: Secret::from_bytes([seed + 100; 32]).hashlock(),
            gives: AssetKind::new(gives),
            wants: AssetKind::new(wants),
        }
    }

    /// One epoch through the production planner — after holding it to the
    /// full-rescan specification on this very book.
    fn clear(svc: &mut ClearingService) -> Vec<ClearedSwap> {
        let (plan, reference) = (svc.plan(), svc.plan_full_rescan());
        assert_eq!(plan.selected, reference.selected, "planners select different cycles");
        assert_eq!(plan.skipped, reference.skipped, "planners skip different offers");
        svc.commit(plan, Delta::from_ticks(10), SimTime::ZERO).unwrap()
    }

    #[test]
    fn snapshot_restore_mid_lifecycle_is_equivalent() {
        // Build a book with every lifecycle state live at once: settled,
        // refunded, cancelled, matched (in-flight, so its party is
        // reserved), open-and-parked, open-and-indexed, and deferred.
        let mut svc = ClearingService { first_id: 7, ..ClearingService::default() };
        svc.submit(offer(1, "a", "b"));
        svc.submit(offer(2, "b", "a"));
        let settled = clear(&mut svc)[0].id;
        svc.settle_swap(settled).unwrap();
        svc.submit(offer(3, "c", "d"));
        svc.submit(offer(4, "d", "c"));
        let refunded = clear(&mut svc)[0].id;
        svc.refund_swap(refunded).unwrap();
        let gone = svc.submit(offer(5, "e", "f"));
        svc.cancel(gone).unwrap();
        svc.submit(offer(6, "g", "h"));
        svc.submit(offer(7, "h", "g"));
        // Party 6 offers a second trade: it parks when the first matches.
        svc.submit(offer(6, "x", "y"));
        let in_flight = clear(&mut svc);
        assert_eq!(in_flight.len(), 1);
        // A fresh unmatched offer stays open and indexed.
        svc.submit(offer(8, "y", "x"));

        let snap = svc.snapshot();
        let restored = ClearingService::restore(snap.clone());

        // Same durable state...
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.epoch(), svc.epoch());
        assert_eq!(restored.offer_count(), svc.offer_count());
        assert_eq!(restored.open_count(), svc.open_count());
        assert_eq!(restored.reserved_addresses(), svc.reserved_addresses());
        for raw in 0..svc.offer_count() as u64 {
            let id = OfferId::from_raw(7 + raw);
            assert_eq!(restored.status(id), svc.status(id), "{id}");
        }
        // ...and the same future: both draw identical plans, and resolving
        // the in-flight swap wakes both books identically.
        let (mut live, mut back) = (svc, restored);
        let a = live.clear(Delta::from_ticks(10), SimTime::from_ticks(50)).unwrap();
        let b = back.clear(Delta::from_ticks(10), SimTime::from_ticks(50)).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.offer_of_vertex, y.offer_of_vertex);
        }
        live.settle_swap(in_flight[0].id).unwrap();
        back.settle_swap(in_flight[0].id).unwrap();
        assert_eq!(live.snapshot(), back.snapshot());
        let a = live.clear(Delta::from_ticks(10), SimTime::from_ticks(90)).unwrap();
        let b = back.clear(Delta::from_ticks(10), SimTime::from_ticks(90)).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(live.snapshot(), back.snapshot());
    }

    #[test]
    fn three_way_cycle_clears() {
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "altcoin", "cadillac"));
        svc.submit(offer(2, "btc", "altcoin"));
        svc.submit(offer(3, "cadillac", "btc"));
        let swaps = clear(&mut svc);
        assert_eq!(swaps.len(), 1);
        let swap = &swaps[0];
        assert_eq!(swap.spec.digraph.vertex_count(), 3);
        assert_eq!(swap.spec.digraph.arc_count(), 3);
        assert!(swap.spec.digraph.is_strongly_connected());
        swap.spec.validate().unwrap();
        // Start at least Δ in the future.
        assert!(swap.spec.start >= SimTime::ZERO + Delta::from_ticks(10).times(1));
        // Arc kinds follow the givers around the cycle.
        assert_eq!(swap.arc_kinds.len(), 3);
        assert_eq!(swap.epoch, 0);
    }

    #[test]
    fn two_way_swap_clears() {
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "btc", "eth"));
        svc.submit(offer(2, "eth", "btc"));
        let swaps = svc.clear(Delta::from_ticks(5), SimTime::from_ticks(100)).unwrap();
        assert_eq!(swaps.len(), 1);
        assert_eq!(swaps[0].spec.digraph.vertex_count(), 2);
        assert_eq!(swaps[0].spec.leaders.len(), 1);
    }

    #[test]
    fn disjoint_cycles_clear_separately() {
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "a", "b"));
        svc.submit(offer(2, "b", "a"));
        svc.submit(offer(3, "x", "y"));
        svc.submit(offer(4, "y", "z"));
        svc.submit(offer(5, "z", "x"));
        let swaps = clear(&mut svc);
        assert_eq!(swaps.len(), 2);
        let sizes: Vec<usize> = swaps.iter().map(|s| s.spec.digraph.vertex_count()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&3));
        // Swap ids are distinct and issued in order.
        assert_ne!(swaps[0].id, swaps[1].id);
    }

    #[test]
    fn unmatched_offers_left_open() {
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "btc", "eth"));
        svc.submit(offer(2, "eth", "btc"));
        let straggler = svc.submit(offer(3, "doge", "btc")); // nobody wants doge
        let swaps = clear(&mut svc);
        // The btc/eth pair clears; doge cannot.
        assert_eq!(swaps.len(), 1);
        assert_eq!(swaps[0].spec.digraph.vertex_count(), 2);
        assert_eq!(svc.offer_count(), 3);
        assert_eq!(svc.status(straggler), Some(OfferStatus::Open));
        assert_eq!(svc.open_count(), 1);
    }

    #[test]
    fn no_offers_no_swaps() {
        let mut svc = ClearingService::new();
        assert!(clear(&mut svc).is_empty());
    }

    #[test]
    fn foreign_offer_ids_are_rejected_not_panicking() {
        // A stale or foreign id — including one far past the entry table,
        // where the historical `id.0 as usize` indexing panicked — answers
        // through every lookup surface without panicking.
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "btc", "eth"));
        for bogus in [OfferId(1), OfferId(999), OfferId(u64::MAX)] {
            assert_eq!(svc.offer(bogus).map(|o| o.gives.clone()), None, "{bogus}");
            assert_eq!(svc.status(bogus), None, "{bogus}");
            assert_eq!(svc.cancel(bogus), Err(CancelError::UnknownOffer(bogus)));
        }
        // The one real offer is untouched by the probing.
        assert_eq!(svc.status(OfferId(0)), Some(OfferStatus::Open));
        assert_eq!(svc.open_count(), 1);
    }

    #[test]
    fn offer_ids_decoupled_from_entry_indices() {
        // Regression for the entry-index/OfferId conflation: with an id
        // base, every id the service reports must be a real issued id —
        // the historical `OfferId(entry_index as u64)` in the clear path
        // would fabricate unissued low ids for skipped/deferred cycles.
        let mut svc = ClearingService { first_id: 1_000, ..ClearingService::default() };
        let a1 = svc.submit(offer(1, "x", "y"));
        assert_eq!(a1.raw(), 1_000);
        let a2 = svc.submit(offer(1, "p", "q")); // same party as a1
        let b = svc.submit(offer(2, "y", "x"));
        let c = svc.submit(offer(3, "q", "p"));
        let swaps = clear(&mut svc);
        assert_eq!(swaps.len(), 1, "one concurrent swap per party");
        assert!(swaps[0].offer_of_vertex.contains(&a1));
        assert!(swaps[0].offer_of_vertex.contains(&b));
        assert!(swaps[0].offer_of_vertex.iter().all(|id| id.raw() >= 1_000));
        // The rejected (a2, c) cycle deferred under its *real* ids: the
        // in-flight party's resolution must wake exactly those offers.
        assert!(svc.any_deferred_from(svc.reserved_addresses()));
        svc.settle_swap(swaps[0].id).unwrap();
        let next = clear(&mut svc);
        assert_eq!(next.len(), 1);
        assert!(next[0].offer_of_vertex.contains(&a2));
        assert!(next[0].offer_of_vertex.contains(&c));
        // Sub-base ids (the old entry indices) are foreign here.
        assert_eq!(svc.status(OfferId(0)), None);
        assert_eq!(svc.cancel(OfferId(3)), Err(CancelError::UnknownOffer(OfferId(3))));
    }

    #[test]
    fn planners_agree_on_a_mixed_book() {
        // A deterministic agreement check (the property tests cover random
        // streams): multi-epoch, reservations, cancels, same-party re-entry
        // — `clear` holds the indexed plan to the full-rescan one before
        // every commit.
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "a", "b"));
        svc.submit(offer(2, "b", "c"));
        svc.submit(offer(3, "c", "a"));
        svc.submit(offer(4, "p", "q"));
        let cancelled = svc.submit(offer(5, "q", "p"));
        svc.cancel(cancelled).unwrap();
        svc.submit(offer(6, "q", "p"));
        let first = clear(&mut svc);
        assert_eq!(first.len(), 2);
        // Same parties return mid-flight plus fresh counterparties.
        let parked = svc.submit(offer(1, "m", "n"));
        svc.submit(offer(7, "n", "m"));
        assert!(clear(&mut svc).is_empty(), "party 1 is reserved");
        for swap in &first {
            svc.settle_swap(swap.id).unwrap();
        }
        let third = clear(&mut svc);
        assert_eq!(third.len(), 1);
        assert!(third[0].offer_of_vertex.contains(&parked));
    }

    #[test]
    fn commit_refuses_a_plan_the_book_moved_under() {
        // plan → cancel a selected offer → commit: publishing the plan would
        // flip the cancelled offer to `Matched` and hand out a swap for it.
        let mut svc = ClearingService::new();
        let a = svc.submit(offer(1, "x", "y"));
        let b = svc.submit(offer(2, "y", "x"));
        let plan = svc.plan();
        assert!(!plan.is_empty());
        svc.cancel(a).unwrap();
        let err = svc.commit(plan, Delta::from_ticks(10), SimTime::ZERO).unwrap_err();
        assert_eq!(err, ClearError::StalePlan);
        // The book is untouched by the refused commit.
        assert_eq!(svc.status(a), Some(OfferStatus::Cancelled));
        assert_eq!(svc.status(b), Some(OfferStatus::Open));
        assert_eq!(svc.open_count(), 1);
        assert_eq!(svc.epoch(), 0);
        assert!(svc.reserved_addresses().is_empty());
        // Settlement between plan and commit is just as stale.
        let c = svc.submit(offer(3, "x", "y"));
        let in_flight = clear(&mut svc);
        assert_eq!(in_flight.len(), 1);
        svc.submit(offer(3, "p", "q"));
        svc.submit(offer(4, "q", "p"));
        let parked_plan = svc.plan();
        svc.settle_swap(in_flight[0].id).unwrap();
        let err = svc.commit(parked_plan, Delta::from_ticks(10), SimTime::ZERO).unwrap_err();
        assert_eq!(err, ClearError::StalePlan);
        assert_eq!(svc.status(c), Some(OfferStatus::Settled));
        assert_eq!(clear(&mut svc).len(), 1, "a fresh plan commits");
    }

    #[test]
    fn indexed_examines_only_active_kinds() {
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "btc", "eth"));
        svc.submit(offer(2, "eth", "btc"));
        for seed in 3..13 {
            // An inert tail: kinds nobody else gives or wants.
            svc.submit(offer(seed, &format!("dead{seed}a"), &format!("dead{seed}b")));
        }
        // The reference planner pays for the whole book to reach the same
        // answer.
        assert_eq!(svc.plan_full_rescan().stats().offers_examined, 12);
        let swaps = clear(&mut svc);
        assert_eq!(swaps.len(), 1);
        let stats = svc.last_clear_stats().unwrap();
        assert_eq!(stats.open_offers, 12);
        assert_eq!(stats.offers_examined, 2, "two zip steps: kinds btc and eth");
    }

    #[test]
    fn plan_prices_the_epoch_before_commit() {
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "x", "y"));
        svc.submit(offer(2, "y", "x"));
        let plan = svc.plan();
        assert!(!plan.is_empty());
        assert_eq!(plan.stats().cycles_emitted, 1);
        assert_eq!(plan.stats().offers_matched, 2);
        // The plan's cost is known before any swap is published; commit
        // then produces exactly what a one-shot clear would.
        let swaps = svc.commit(plan, Delta::from_ticks(10), SimTime::ZERO).unwrap();
        assert_eq!(swaps.len(), 1);
        assert_eq!(svc.epoch(), 1);
        assert_eq!(svc.last_clear_stats().unwrap().offers_matched, 2);
    }

    #[test]
    fn self_satisfying_offer_not_a_swap() {
        // A party giving and wanting the same kind would form a self-loop;
        // cycles of length 1 are rejected.
        let mut svc = ClearingService::new();
        svc.submit(offer(1, "btc", "btc"));
        assert!(clear(&mut svc).is_empty());
    }

    #[test]
    fn offer_of_vertex_maps_back() {
        let mut svc = ClearingService::new();
        let id0 = svc.submit(offer(1, "a", "b"));
        let id1 = svc.submit(offer(2, "b", "a"));
        let swaps = clear(&mut svc);
        let cleared = &swaps[0];
        assert_eq!(cleared.offer_of_vertex.len(), 2);
        assert!(cleared.offer_of_vertex.contains(&id0));
        assert!(cleared.offer_of_vertex.contains(&id1));
        // Vertex identities match the offers' keys.
        for (pos, oid) in cleared.offer_of_vertex.iter().enumerate() {
            let o = svc.offer(*oid).unwrap();
            assert_eq!(cleared.spec.keys[pos], o.key);
        }
    }

    #[test]
    fn clearing_is_deterministic_across_services() {
        let build = || {
            let mut svc = ClearingService::new();
            for i in 0..4 {
                svc.submit(offer(i + 1, &format!("k{i}"), &format!("k{}", (i + 1) % 4)));
            }
            svc
        };
        let a = clear(&mut build());
        let b = clear(&mut build());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.id, y.id);
        }
    }

    #[test]
    fn epoch_clearing_consumes_matched_offers() {
        // The old `clear(&self)` re-matched the same offers on every call;
        // epoch clearing must hand them out exactly once.
        let mut svc = ClearingService::new();
        let a = svc.submit(offer(1, "x", "y"));
        let b = svc.submit(offer(2, "y", "x"));
        let first = clear(&mut svc);
        assert_eq!(first.len(), 1);
        let swap = first[0].id;
        assert_eq!(svc.status(a), Some(OfferStatus::Matched { epoch: 0, swap }));
        assert_eq!(svc.status(b), Some(OfferStatus::Matched { epoch: 0, swap }));
        // Second epoch: the book is empty, nothing re-matches.
        assert!(clear(&mut svc).is_empty());
        assert_eq!(svc.epoch(), 2);
        assert_eq!(svc.open_count(), 0);
    }

    #[test]
    fn later_epoch_matches_new_offers_with_leftovers() {
        let mut svc = ClearingService::new();
        let straggler = svc.submit(offer(1, "gbp", "usd"));
        assert!(clear(&mut svc).is_empty());
        // A counterparty arrives in the next epoch.
        let late = svc.submit(offer(2, "usd", "gbp"));
        let swaps = clear(&mut svc);
        assert_eq!(swaps.len(), 1);
        assert_eq!(swaps[0].epoch, 1);
        assert!(swaps[0].offer_of_vertex.contains(&straggler));
        assert!(swaps[0].offer_of_vertex.contains(&late));
    }

    #[test]
    fn cancelled_offer_never_matches() {
        let mut svc = ClearingService::new();
        let a = svc.submit(offer(1, "x", "y"));
        let b = svc.submit(offer(2, "y", "x"));
        svc.cancel(a).unwrap();
        assert_eq!(svc.status(a), Some(OfferStatus::Cancelled));
        // b's only counterparty is gone: no cycle forms, this epoch or any
        // later one.
        assert!(clear(&mut svc).is_empty());
        assert!(clear(&mut svc).is_empty());
        assert_eq!(svc.status(b), Some(OfferStatus::Open));
    }

    #[test]
    fn cancel_rejects_non_open_offers() {
        let mut svc = ClearingService::new();
        let a = svc.submit(offer(1, "x", "y"));
        let b = svc.submit(offer(2, "y", "x"));
        let swaps = clear(&mut svc);
        let swap = swaps[0].id;
        assert_eq!(
            svc.cancel(a),
            Err(CancelError::NotOpen(a, OfferStatus::Matched { epoch: 0, swap }))
        );
        svc.cancel(b).unwrap_err();
        assert_eq!(svc.cancel(OfferId(99)), Err(CancelError::UnknownOffer(OfferId(99))));
        // Double-cancel is also rejected.
        let c = svc.submit(offer(3, "p", "q"));
        svc.cancel(c).unwrap();
        assert_eq!(svc.cancel(c), Err(CancelError::NotOpen(c, OfferStatus::Cancelled)));
    }

    #[test]
    fn settle_and_refund_resolve_the_lifecycle() {
        let mut svc = ClearingService::new();
        let a = svc.submit(offer(1, "x", "y"));
        let b = svc.submit(offer(2, "y", "x"));
        let p = svc.submit(offer(3, "s", "t"));
        let q = svc.submit(offer(4, "t", "s"));
        let swaps = clear(&mut svc);
        assert_eq!(swaps.len(), 2);
        let (first, second) = (swaps[0].id, swaps[1].id);
        assert_eq!(svc.offers_of_swap(first), Some(swaps[0].offer_of_vertex.as_slice()));
        svc.settle_swap(first).unwrap();
        svc.refund_swap(second).unwrap();
        assert_eq!(svc.status(a), Some(OfferStatus::Settled));
        assert_eq!(svc.status(b), Some(OfferStatus::Settled));
        assert_eq!(svc.status(p), Some(OfferStatus::Refunded));
        assert_eq!(svc.status(q), Some(OfferStatus::Refunded));
        // Both resolutions released their reservations.
        assert!(svc.reserved_addresses().is_empty());
        // Resolution is one-shot.
        assert_eq!(svc.settle_swap(first), Err(LifecycleError::UnknownSwap(first)));
        assert_eq!(svc.refund_swap(second), Err(LifecycleError::UnknownSwap(second)));
        assert!(svc.offers_of_swap(first).is_none());
    }

    #[test]
    fn fifo_decomposes_each_book_into_its_recorded_cycles() {
        // Books that admit more than one decomposition into cycles, and the
        // ring sizes FIFO matching picks (`clear` holds the indexed planner
        // to `plan_full_rescan` on each). The first weaves one 4-cycle
        // where two 2-cycles would tie on matched offers; in the second,
        // pairing off (a→b, b→a) would orphan the (b→c, c→a) tail, and FIFO
        // matches all three into one 3-cycle instead; the third drains two
        // opposing 2-cycles and leaves the counterpartyless offer open.
        let books = [
            (vec![("a", "b"), ("b", "c"), ("c", "b"), ("b", "a")], vec![4]),
            (vec![("a", "b"), ("b", "c"), ("c", "a"), ("b", "a")], vec![3]),
            (vec![("a", "b"), ("b", "a"), ("b", "a"), ("a", "b"), ("zzz", "a")], vec![2, 2]),
        ];
        for (book, rings) in books {
            let mut svc = ClearingService::new();
            for (i, (g, w)) in book.iter().enumerate() {
                svc.submit(offer(i as u8 + 1, g, w));
            }
            let swaps = clear(&mut svc);
            let sizes: Vec<usize> = swaps.iter().map(|s| s.spec.digraph.vertex_count()).collect();
            assert_eq!(sizes, rings, "{book:?}");
            for swap in &swaps {
                assert_eq!(swap.spec.leaders.len(), 1, "a ring elects one leader");
            }
            let matched: usize = rings.iter().sum();
            assert_eq!(svc.open_count(), book.len() - matched, "{book:?}");
        }
    }

    #[test]
    fn in_flight_parties_are_reserved() {
        let mut svc = ClearingService::new();
        let a = svc.submit(offer(1, "x", "y"));
        let b = svc.submit(offer(2, "y", "x"));
        let first = clear(&mut svc);
        assert_eq!(first.len(), 1);
        let in_flight = first[0].id;
        assert_eq!(svc.reserved_addresses().len(), 2);

        // The same party (same key, seed 1) returns with a fresh trade
        // while its first swap is still in flight; a counterparty is ready.
        let c = svc.submit(offer(1, "p", "q"));
        let d = svc.submit(offer(3, "q", "p"));
        // Before any clearing saw it, c is not (yet) deferred.
        assert!(!svc.any_deferred_from(svc.reserved_addresses()));
        assert!(clear(&mut svc).is_empty(), "reserved party must not re-match in flight");
        assert_eq!(svc.status(a), Some(OfferStatus::Matched { epoch: 0, swap: in_flight }));
        assert_eq!(svc.status(b), Some(OfferStatus::Matched { epoch: 0, swap: in_flight }));
        assert_eq!(svc.status(c), Some(OfferStatus::Open));
        assert_eq!(svc.status(d), Some(OfferStatus::Open));
        // The clearing skipped c under the reservation: it is deferred (d,
        // merely unmatched for lack of a counterparty, is not).
        assert!(svc.any_deferred_from(svc.reserved_addresses()));

        // Settlement releases the reservation; the rolled-over offers clear.
        svc.settle_swap(in_flight).unwrap();
        assert!(svc.reserved_addresses().is_empty());
        let next = clear(&mut svc);
        assert_eq!(next.len(), 1);
        assert!(next[0].offer_of_vertex.contains(&c));
        assert!(next[0].offer_of_vertex.contains(&d));
    }

    #[test]
    fn same_epoch_double_commit_rejected() {
        // One clearing must never match two offers of the same party into
        // two concurrent swaps (shared key material breaks the pooled
        // executor's party-disjointness). The second cycle is deferred and
        // clears after the first swap resolves.
        let mut svc = ClearingService::new();
        let a1 = svc.submit(offer(1, "x", "y"));
        let a2 = svc.submit(offer(1, "p", "q")); // same party as a1
        let b = svc.submit(offer(2, "y", "x"));
        let c = svc.submit(offer(3, "q", "p"));
        let swaps = clear(&mut svc);
        assert_eq!(swaps.len(), 1, "one concurrent swap per party");
        assert!(swaps[0].offer_of_vertex.contains(&a1));
        assert!(swaps[0].offer_of_vertex.contains(&b));
        assert_eq!(svc.status(a2), Some(OfferStatus::Open));
        assert_eq!(svc.status(c), Some(OfferStatus::Open));
        // The rejected cycle is deferred on the in-flight party, so the
        // swap's resolution is what re-opens the book for it.
        assert!(svc.any_deferred_from(svc.reserved_addresses()));
        svc.settle_swap(swaps[0].id).unwrap();
        let next = clear(&mut svc);
        assert_eq!(next.len(), 1);
        assert!(next[0].offer_of_vertex.contains(&a2));
        assert!(next[0].offer_of_vertex.contains(&c));
    }

    #[test]
    fn self_cycle_through_one_party_rejected() {
        // Both sides of the trade belong to one keypair: the cycle would
        // bind the same address to two vertices, so it must not clear.
        let mut svc = ClearingService::new();
        let a = svc.submit(offer(1, "x", "y"));
        let b = svc.submit(offer(1, "y", "x"));
        assert!(clear(&mut svc).is_empty(), "one party cannot occupy two vertices");
        assert_eq!(svc.status(a), Some(OfferStatus::Open));
        assert_eq!(svc.status(b), Some(OfferStatus::Open));
    }

    #[test]
    fn larger_market_mixed_kinds() {
        let mut svc = ClearingService::new();
        // 4-cycle plus a 2-cycle plus two stragglers.
        svc.submit(offer(1, "a", "b"));
        svc.submit(offer(2, "b", "c"));
        svc.submit(offer(3, "c", "d"));
        svc.submit(offer(4, "d", "a"));
        svc.submit(offer(5, "p", "q"));
        svc.submit(offer(6, "q", "p"));
        svc.submit(offer(7, "zzz", "a")); // loses the race for kind "a"
        let swaps = clear(&mut svc);
        assert_eq!(swaps.len(), 2);
        let total: usize = swaps.iter().map(|s| s.spec.digraph.vertex_count()).sum();
        assert_eq!(total, 6);
        for s in &swaps {
            s.spec.validate().unwrap();
        }
        assert_eq!(svc.open_count(), 1);
    }
}
