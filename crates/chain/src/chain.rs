//! The [`Blockchain`] ledger: publish, call, observe, meter.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use swap_crypto::sha256::{sha256_concat, Digest32};
use swap_crypto::Address;
use swap_sim::SimTime;

use crate::asset::{AssetDescriptor, AssetError, AssetId, AssetRegistry, Owner};
use crate::block::Block;
use crate::contract::{ContractId, ContractLogic, ExecCtx};

/// Typed seal payload for one transaction — what [`Blockchain`] digests
/// into the sealed block in place of the old per-transaction `format!`
/// string. Encoding goes through a per-chain scratch buffer, so sealing a
/// transaction allocates nothing in steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxTag {
    /// An asset was minted to a party.
    Mint {
        /// The minted asset.
        asset: AssetId,
        /// The initial owner.
        owner: Address,
    },
    /// A direct party-to-party transfer.
    Transfer {
        /// The transferred asset.
        asset: AssetId,
        /// The receiving party.
        to: Address,
    },
    /// A contract was published.
    Publish {
        /// The new contract's id.
        contract: ContractId,
    },
    /// A contract was called.
    Call {
        /// The called contract.
        contract: ContractId,
    },
}

impl TxTag {
    /// Serializes the tag into `buf`: one discriminant byte, then the
    /// fields (little-endian ids, raw 32-byte addresses).
    fn encode(self, buf: &mut Vec<u8>) {
        match self {
            TxTag::Mint { asset, owner } => {
                buf.push(0);
                buf.extend_from_slice(&asset.raw().to_le_bytes());
                buf.extend_from_slice(&owner.digest().0);
            }
            TxTag::Transfer { asset, to } => {
                buf.push(1);
                buf.extend_from_slice(&asset.raw().to_le_bytes());
                buf.extend_from_slice(&to.digest().0);
            }
            TxTag::Publish { contract } => {
                buf.push(2);
                buf.extend_from_slice(&contract.raw().to_le_bytes());
            }
            TxTag::Call { contract } => {
                buf.push(3);
                buf.extend_from_slice(&contract.raw().to_le_bytes());
            }
        }
    }
}

/// Why a transaction was rejected. Rejected transactions never reach the
/// ledger — like a mempool rejection, they leave no on-chain trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError<E> {
    /// No contract with that id on this chain.
    UnknownContract(ContractId),
    /// The contract has already terminated (claimed or refunded).
    ContractTerminated(ContractId),
    /// An asset-level failure (unknown asset, wrong owner).
    Asset(AssetError),
    /// The contract's own logic rejected the call.
    Contract(E),
}

impl<E: fmt::Display> fmt::Display for TxError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::UnknownContract(c) => write!(f, "unknown {c}"),
            TxError::ContractTerminated(c) => write!(f, "{c} has terminated"),
            TxError::Asset(e) => write!(f, "asset error: {e}"),
            TxError::Contract(e) => write!(f, "contract rejected: {e}"),
        }
    }
}

impl<E: std::error::Error> std::error::Error for TxError<E> {}

impl<E> From<AssetError> for TxError<E> {
    fn from(e: AssetError) -> Self {
        TxError::Asset(e)
    }
}

/// A timestamped contract event, as seen by observers polling the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEvent<E> {
    /// When the emitting transaction executed.
    pub time: SimTime,
    /// The contract that emitted the event.
    pub contract: ContractId,
    /// The event payload.
    pub event: E,
}

/// Position in a chain's event log; advance it with
/// [`Blockchain::events_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EventCursor(usize);

/// Byte-level accounting of everything stored on one chain — the measured
/// quantity in the Theorem 4.10 space experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StorageReport {
    /// Number of sealed blocks.
    pub blocks: u64,
    /// Header bytes across all blocks.
    pub block_bytes: usize,
    /// Persistent contract storage (`ContractLogic::storage_bytes`).
    pub contract_bytes: usize,
    /// Asset registry storage.
    pub asset_bytes: usize,
    /// Transaction payload bytes (publish payloads + call wire bytes).
    pub tx_bytes: usize,
}

impl StorageReport {
    /// Sum of all byte categories.
    pub fn total_bytes(&self) -> usize {
        self.block_bytes + self.contract_bytes + self.asset_bytes + self.tx_bytes
    }

    /// Component-wise sum, for aggregating across a [`crate::ChainSet`].
    pub fn merge(&self, other: &StorageReport) -> StorageReport {
        StorageReport {
            blocks: self.blocks + other.blocks,
            block_bytes: self.block_bytes + other.block_bytes,
            contract_bytes: self.contract_bytes + other.contract_bytes,
            asset_bytes: self.asset_bytes + other.asset_bytes,
            tx_bytes: self.tx_bytes + other.tx_bytes,
        }
    }
}

#[derive(Debug, Clone)]
struct ContractEntry<C> {
    state: C,
    publisher: Address,
    published_at: SimTime,
}

/// A single simulated blockchain hosting contracts of logic type `C`.
///
/// Every mutation is a transaction: it executes atomically, lands in its own
/// sealed block, and is publicly readable afterwards. Contracts are
/// irrevocable once published — there is deliberately no remove/replace
/// API, matching §2.2.
///
/// A failing hook is rolled back through the registry's undo log
/// ([`crate::asset::UndoJournal`]): every ownership change of the
/// transaction is recorded and popped-and-reverted on `Err` — O(ops in the
/// transaction), independent of registry size. Contract state needs no
/// restore because [`ContractLogic`] hooks are validate-then-commit (reject
/// before mutating `self`). `tests/properties.rs` holds this to a
/// clone-and-compare oracle on every failing transaction.
///
/// # Example
///
/// See the crate tests; `swap-contract` hosts the paper's swap contract on
/// this type.
#[derive(Debug, Clone)]
pub struct Blockchain<C: ContractLogic> {
    name: String,
    blocks: Vec<Block>,
    assets: AssetRegistry,
    contracts: BTreeMap<ContractId, ContractEntry<C>>,
    next_contract: u64,
    events: Vec<ChainEvent<C::Event>>,
    tx_bytes: usize,
    version: u64,
    last_mutation_at: SimTime,
    txs_rolled_back: u64,
    scratch: Vec<u8>,
}

impl<C: ContractLogic> Blockchain<C> {
    /// Creates a chain with a genesis block at `genesis_time`.
    pub fn new(name: impl Into<String>, genesis_time: SimTime) -> Self {
        Blockchain {
            name: name.into(),
            blocks: vec![Block::genesis(genesis_time)],
            assets: AssetRegistry::new(),
            contracts: BTreeMap::new(),
            next_contract: 0,
            events: Vec::new(),
            tx_bytes: 0,
            version: 0,
            last_mutation_at: genesis_time,
            txs_rolled_back: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of sealed (successful) transactions — an alias of
    /// [`Blockchain::version`] under its metering name.
    pub fn txs_executed(&self) -> u64 {
        self.version
    }

    /// Number of transactions whose contract hook failed after starting to
    /// execute, forcing a rollback. Mempool-style rejections (unknown or
    /// terminated contract, direct transfer by a non-owner) never start
    /// executing and are not counted.
    pub fn txs_rolled_back(&self) -> u64 {
        self.txs_rolled_back
    }

    /// The chain's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotone state-version counter: bumps once per sealed transaction
    /// (rejected transactions leave it untouched). Observers compare
    /// versions to decide whether a cached view of this chain is stale —
    /// the substrate that makes dirty-state tracking O(changed chains)
    /// instead of O(all chains).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// When the last transaction sealed (the genesis time if none has).
    /// Paired with [`Blockchain::version`], this timestamps the state a
    /// cached observation of this chain reflects.
    pub fn last_mutation_at(&self) -> SimTime {
        self.last_mutation_at
    }

    /// Current height (genesis = 0).
    pub fn height(&self) -> u64 {
        self.blocks.last().expect("genesis always present").height
    }

    /// The sealed blocks, genesis first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Mints an asset owned by `owner` (a genesis-style faucet operation —
    /// real chains would have richer issuance, the swap protocol only needs
    /// assets to exist).
    pub fn mint_asset(
        &mut self,
        descriptor: AssetDescriptor,
        owner: Address,
        now: SimTime,
    ) -> AssetId {
        let id = self.assets.mint(descriptor, owner);
        self.seal_tag(now, TxTag::Mint { asset: id, owner }, 48);
        id
    }

    /// Direct owner-to-owner transfer (no contract involved).
    ///
    /// # Errors
    ///
    /// Fails if `caller` does not own `asset`.
    pub fn transfer_asset(
        &mut self,
        asset: AssetId,
        caller: Address,
        to: Address,
        now: SimTime,
    ) -> Result<(), TxError<C::Error>> {
        self.assets.transfer_from(asset, Owner::Party(caller), Owner::Party(to))?;
        self.seal_tag(now, TxTag::Transfer { asset, to }, 48);
        Ok(())
    }

    /// Publishes a contract. Its `on_publish` hook runs atomically (escrow
    /// typically happens there); failure aborts publication with no trace —
    /// no id is consumed, no block seals, no event lands in the log (see
    /// the `failed_publish_*` regression tests).
    ///
    /// # Errors
    ///
    /// Propagates the contract's own publication error.
    pub fn publish_contract(
        &mut self,
        mut contract: C,
        publisher: Address,
        now: SimTime,
    ) -> Result<ContractId, TxError<C::Error>> {
        let id = ContractId::new(self.next_contract);
        self.assets.begin_journal();
        let mut ctx = ExecCtx { caller: publisher, now, this: id, assets: &mut self.assets };
        match contract.on_publish(&mut ctx) {
            Ok(events) => {
                self.assets.commit_journal();
                self.next_contract += 1;
                let storage = contract.storage_bytes();
                self.contracts
                    .insert(id, ContractEntry { state: contract, publisher, published_at: now });
                for event in events {
                    self.events.push(ChainEvent { time: now, contract: id, event });
                }
                self.seal_tag(now, TxTag::Publish { contract: id }, storage);
                Ok(id)
            }
            Err(e) => {
                // The not-yet-inserted contract value is simply dropped;
                // only its asset ops need reverting.
                self.assets.rollback_journal();
                self.txs_rolled_back += 1;
                Err(TxError::Contract(e))
            }
        }
    }

    /// Calls a contract. Execution is atomic: on error, contract state and
    /// asset registry roll back and nothing is recorded.
    ///
    /// The emitted events are moved into the chain's log and returned as a
    /// borrowed slice of that log — observers poll the same entries through
    /// [`Blockchain::events_since`], so nothing is cloned per caller.
    ///
    /// `wire_bytes` is the size of the call as transmitted — hashkey calls
    /// carry multi-kilobyte signature chains, and the communication
    /// experiment (O(|A|·|L|)) sums exactly these.
    ///
    /// # Errors
    ///
    /// Fails for unknown/terminated contracts or when the logic rejects.
    pub fn call_contract(
        &mut self,
        id: ContractId,
        caller: Address,
        call: C::Call,
        now: SimTime,
        wire_bytes: usize,
    ) -> Result<&[ChainEvent<C::Event>], TxError<C::Error>> {
        let entry = self.contracts.get_mut(&id).ok_or(TxError::UnknownContract(id))?;
        if entry.state.is_terminated() {
            return Err(TxError::ContractTerminated(id));
        }
        // Contract state needs no snapshot: `ContractLogic::apply` is
        // validate-then-commit (rejects before mutating), and any asset op
        // a failing hook did make is undone by the journal.
        self.assets.begin_journal();
        let mut ctx = ExecCtx { caller, now, this: id, assets: &mut self.assets };
        match entry.state.apply(call, &mut ctx) {
            Ok(events) => {
                self.assets.commit_journal();
                let logged_from = self.events.len();
                for event in events {
                    self.events.push(ChainEvent { time: now, contract: id, event });
                }
                self.seal_tag(now, TxTag::Call { contract: id }, wire_bytes);
                Ok(&self.events[logged_from..])
            }
            Err(e) => {
                self.assets.rollback_journal();
                self.txs_rolled_back += 1;
                Err(TxError::Contract(e))
            }
        }
    }

    /// Public read of a contract's current state.
    pub fn contract(&self, id: ContractId) -> Option<&C> {
        self.contracts.get(&id).map(|e| &e.state)
    }

    /// Who published a contract, and when.
    pub fn contract_provenance(&self, id: ContractId) -> Option<(Address, SimTime)> {
        self.contracts.get(&id).map(|e| (e.publisher, e.published_at))
    }

    /// Iterator over `(id, state)` for all published contracts.
    pub fn contracts(&self) -> impl Iterator<Item = (ContractId, &C)> {
        self.contracts.iter().map(|(&id, e)| (id, &e.state))
    }

    /// The asset registry (read-only; mutation goes through transactions).
    pub fn assets(&self) -> &AssetRegistry {
        &self.assets
    }

    /// Events recorded at or after `cursor`; returns the slice and the new
    /// cursor. Polling with the returned cursor yields each event exactly
    /// once.
    pub fn events_since(&self, cursor: EventCursor) -> (&[ChainEvent<C::Event>], EventCursor) {
        let start = cursor.0.min(self.events.len());
        (&self.events[start..], EventCursor(self.events.len()))
    }

    /// All events ever recorded.
    pub fn all_events(&self) -> &[ChainEvent<C::Event>] {
        &self.events
    }

    /// Byte-level storage accounting.
    pub fn storage_report(&self) -> StorageReport {
        StorageReport {
            blocks: self.blocks.len() as u64,
            block_bytes: self.blocks.len() * Block::HEADER_BYTES
                + self.blocks.iter().map(|b| 32 * b.tx_digests.len()).sum::<usize>(),
            contract_bytes: self.contracts.values().map(|e| e.state.storage_bytes()).sum(),
            asset_bytes: self.assets.storage_bytes(),
            tx_bytes: self.tx_bytes,
        }
    }

    /// Re-derives every block hash link and Merkle root. `true` iff the
    /// ledger is internally consistent — the "tamper-proof" property made
    /// checkable.
    pub fn verify_integrity(&self) -> bool {
        let mut prev: Option<&Block> = None;
        for block in &self.blocks {
            if !block.is_consistent() {
                return false;
            }
            match prev {
                None => {
                    if block.height != 0 || block.parent != Digest32::ZERO {
                        return false;
                    }
                }
                Some(p) => {
                    if block.height != p.height + 1 || block.parent != p.hash() {
                        return false;
                    }
                }
            }
            prev = Some(block);
        }
        true
    }

    /// Seals one transaction tagged by `tag`, serializing it through the
    /// chain's scratch buffer — no per-transaction allocation once the
    /// buffer has grown to the largest tag (41 bytes).
    fn seal_tag(&mut self, now: SimTime, tag: TxTag, wire_bytes: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        tag.encode(&mut scratch);
        self.seal_tx(now, &scratch, wire_bytes);
        self.scratch = scratch;
    }

    /// Seals one transaction into its own block and meters its bytes.
    fn seal_tx(&mut self, now: SimTime, payload: &[u8], wire_bytes: usize) {
        let digest = sha256_concat(&[b"swap/tx/v1", payload]);
        let parent = self.blocks.last().expect("genesis always present");
        let block = Block::seal(parent, now, vec![digest]);
        self.blocks.push(block);
        self.tx_bytes += wire_bytes;
        self.version += 1;
        self.last_mutation_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy escrow contract: locks an asset at publish, releases it to a
    /// named beneficiary when called with the right PIN.
    #[derive(Debug, Clone)]
    struct PinLock {
        asset: AssetId,
        beneficiary: Address,
        pin: u32,
        done: bool,
    }

    #[derive(Debug, Clone)]
    enum PinCall {
        Open { pin: u32 },
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum PinEvent {
        Escrowed,
        Released,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum PinError {
        WrongPin,
        NotAssetOwner,
    }

    impl fmt::Display for PinError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                PinError::WrongPin => write!(f, "wrong pin"),
                PinError::NotAssetOwner => write!(f, "publisher does not own the asset"),
            }
        }
    }
    impl std::error::Error for PinError {}

    impl ContractLogic for PinLock {
        type Call = PinCall;
        type Event = PinEvent;
        type Error = PinError;

        fn on_publish(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Vec<PinEvent>, PinError> {
            ctx.assets
                .transfer_from(self.asset, Owner::Party(ctx.caller), Owner::Escrow(ctx.this))
                .map_err(|_| PinError::NotAssetOwner)?;
            Ok(vec![PinEvent::Escrowed])
        }

        fn apply(
            &mut self,
            call: PinCall,
            ctx: &mut ExecCtx<'_>,
        ) -> Result<Vec<PinEvent>, PinError> {
            match call {
                PinCall::Open { pin } => {
                    if pin != self.pin {
                        return Err(PinError::WrongPin);
                    }
                    ctx.assets
                        .transfer_from(
                            self.asset,
                            Owner::Escrow(ctx.this),
                            Owner::Party(self.beneficiary),
                        )
                        .expect("escrowed at publish");
                    self.done = true;
                    Ok(vec![PinEvent::Released])
                }
            }
        }

        fn storage_bytes(&self) -> usize {
            8 + 32 + 4 + 1
        }

        fn is_terminated(&self) -> bool {
            self.done
        }
    }

    fn addr(b: u8) -> Address {
        Address::from_digest(swap_crypto::Digest32([b; 32]))
    }

    fn setup() -> (Blockchain<PinLock>, AssetId) {
        let mut chain = Blockchain::new("testnet", SimTime::ZERO);
        let asset = chain.mint_asset(AssetDescriptor::unique("car"), addr(1), SimTime::ZERO);
        (chain, asset)
    }

    #[test]
    fn publish_escrows_asset() {
        let (mut chain, asset) = setup();
        let lock = PinLock { asset, beneficiary: addr(2), pin: 1234, done: false };
        let id = chain.publish_contract(lock, addr(1), SimTime::from_ticks(1)).unwrap();
        assert_eq!(chain.assets().owner(asset), Some(Owner::Escrow(id)));
        assert_eq!(chain.contract_provenance(id), Some((addr(1), SimTime::from_ticks(1))));
        assert_eq!(chain.all_events().len(), 1);
        assert!(chain.contract(id).is_some());
    }

    #[test]
    fn publish_by_non_owner_fails_without_trace() {
        let (mut chain, asset) = setup();
        let height_before = chain.height();
        let lock = PinLock { asset, beneficiary: addr(2), pin: 1, done: false };
        let err = chain.publish_contract(lock, addr(9), SimTime::from_ticks(1)).unwrap_err();
        assert_eq!(err, TxError::Contract(PinError::NotAssetOwner));
        assert_eq!(chain.height(), height_before);
        assert_eq!(chain.assets().owner(asset), Some(Owner::Party(addr(1))));
        assert_eq!(chain.contracts().count(), 0);
    }

    #[test]
    fn failed_publish_bumps_no_id_seals_no_tx_leaves_no_events() {
        // Regression: a failing `on_publish` must not consume a contract
        // id, seal a block, bump the version, count as executed, or leave
        // any event in the log.
        let (mut chain, asset) = setup();
        let height = chain.height();
        let version = chain.version();
        let bad = PinLock { asset, beneficiary: addr(2), pin: 1, done: false };
        chain.publish_contract(bad, addr(9), SimTime::from_ticks(1)).unwrap_err();
        assert_eq!(chain.height(), height, "no block sealed");
        assert_eq!(chain.version(), version, "no version bump");
        assert_eq!(chain.txs_executed(), version, "not executed");
        assert_eq!(chain.txs_rolled_back(), 1, "rollback counted");
        assert!(chain.all_events().is_empty(), "zero event trace");
        // The failed publish consumed no id: the next publish gets the
        // id the failed one would have had.
        let good = PinLock { asset, beneficiary: addr(2), pin: 1, done: false };
        let id = chain.publish_contract(good, addr(1), SimTime::from_ticks(2)).unwrap();
        assert_eq!(id, ContractId::new(0), "id not bumped by failure");
    }

    #[test]
    fn correct_call_releases_escrow() {
        let (mut chain, asset) = setup();
        let lock = PinLock { asset, beneficiary: addr(2), pin: 42, done: false };
        let id = chain.publish_contract(lock, addr(1), SimTime::from_ticks(1)).unwrap();
        let events = chain
            .call_contract(id, addr(2), PinCall::Open { pin: 42 }, SimTime::from_ticks(2), 16)
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, PinEvent::Released);
        assert_eq!(events[0].contract, id);
        assert_eq!(chain.assets().owner(asset), Some(Owner::Party(addr(2))));
    }

    #[test]
    fn failed_call_rolls_back_atomically() {
        let (mut chain, asset) = setup();
        let lock = PinLock { asset, beneficiary: addr(2), pin: 42, done: false };
        let id = chain.publish_contract(lock, addr(1), SimTime::from_ticks(1)).unwrap();
        let height = chain.height();
        let err = chain
            .call_contract(id, addr(2), PinCall::Open { pin: 1 }, SimTime::from_ticks(2), 16)
            .unwrap_err();
        assert_eq!(err, TxError::Contract(PinError::WrongPin));
        assert_eq!(chain.height(), height, "rejected tx must not seal a block");
        assert_eq!(chain.assets().owner(asset), Some(Owner::Escrow(id)));
        assert!(!chain.contract(id).unwrap().is_terminated());
    }

    #[test]
    fn terminated_contract_rejects_calls() {
        let (mut chain, asset) = setup();
        let lock = PinLock { asset, beneficiary: addr(2), pin: 42, done: false };
        let id = chain.publish_contract(lock, addr(1), SimTime::from_ticks(1)).unwrap();
        chain
            .call_contract(id, addr(2), PinCall::Open { pin: 42 }, SimTime::from_ticks(2), 16)
            .unwrap();
        let err = chain
            .call_contract(id, addr(2), PinCall::Open { pin: 42 }, SimTime::from_ticks(3), 16)
            .unwrap_err();
        assert_eq!(err, TxError::ContractTerminated(id));
    }

    #[test]
    fn unknown_contract_rejected() {
        let (mut chain, _) = setup();
        let err = chain
            .call_contract(ContractId::new(9), addr(1), PinCall::Open { pin: 0 }, SimTime::ZERO, 1)
            .unwrap_err();
        assert_eq!(err, TxError::UnknownContract(ContractId::new(9)));
        assert!(err.to_string().contains("contract9"));
    }

    #[test]
    fn event_cursor_sees_each_event_once() {
        let (mut chain, asset) = setup();
        let lock = PinLock { asset, beneficiary: addr(2), pin: 42, done: false };
        let id = chain.publish_contract(lock, addr(1), SimTime::from_ticks(1)).unwrap();
        let (events, cursor) = chain.events_since(EventCursor::default());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, PinEvent::Escrowed);
        let (none_yet, cursor) = chain.events_since(cursor);
        assert!(none_yet.is_empty());
        chain
            .call_contract(id, addr(2), PinCall::Open { pin: 42 }, SimTime::from_ticks(2), 16)
            .unwrap();
        let (more, _) = chain.events_since(cursor);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].event, PinEvent::Released);
        assert_eq!(more[0].contract, id);
        assert_eq!(more[0].time, SimTime::from_ticks(2));
    }

    #[test]
    fn integrity_verifies_and_detects_tampering() {
        let (mut chain, asset) = setup();
        let lock = PinLock { asset, beneficiary: addr(2), pin: 42, done: false };
        chain.publish_contract(lock, addr(1), SimTime::from_ticks(1)).unwrap();
        assert!(chain.verify_integrity());
        // Tamper with a sealed block.
        chain.blocks[1].time = SimTime::from_ticks(999);
        assert!(!chain.verify_integrity());
    }

    #[test]
    fn storage_report_accounts_for_contracts_and_calls() {
        let (mut chain, asset) = setup();
        let before = chain.storage_report();
        let lock = PinLock { asset, beneficiary: addr(2), pin: 42, done: false };
        let id = chain.publish_contract(lock, addr(1), SimTime::from_ticks(1)).unwrap();
        let mid = chain.storage_report();
        assert!(mid.contract_bytes > before.contract_bytes);
        assert!(mid.total_bytes() > before.total_bytes());
        chain
            .call_contract(id, addr(2), PinCall::Open { pin: 42 }, SimTime::from_ticks(2), 1000)
            .unwrap();
        let after = chain.storage_report();
        assert_eq!(after.tx_bytes, mid.tx_bytes + 1000);
        let merged = before.merge(&after);
        assert_eq!(merged.blocks, before.blocks + after.blocks);
    }

    #[test]
    fn version_counts_sealed_transactions_only() {
        let (mut chain, asset) = setup();
        // Mint sealed one transaction already.
        assert_eq!(chain.version(), 1);
        assert_eq!(chain.last_mutation_at(), SimTime::ZERO);
        let lock = PinLock { asset, beneficiary: addr(2), pin: 42, done: false };
        let id = chain.publish_contract(lock, addr(1), SimTime::from_ticks(1)).unwrap();
        assert_eq!(chain.version(), 2);
        assert_eq!(chain.last_mutation_at(), SimTime::from_ticks(1));
        // Rejected calls leave version and timestamp untouched.
        chain
            .call_contract(id, addr(2), PinCall::Open { pin: 1 }, SimTime::from_ticks(2), 16)
            .unwrap_err();
        assert_eq!(chain.version(), 2);
        assert_eq!(chain.last_mutation_at(), SimTime::from_ticks(1));
        chain
            .call_contract(id, addr(2), PinCall::Open { pin: 42 }, SimTime::from_ticks(3), 16)
            .unwrap();
        assert_eq!(chain.version(), 3);
        assert_eq!(chain.last_mutation_at(), SimTime::from_ticks(3));
    }

    #[test]
    fn direct_transfer_checks_ownership() {
        let (mut chain, asset) = setup();
        assert!(chain.transfer_asset(asset, addr(9), addr(2), SimTime::ZERO).is_err());
        chain.transfer_asset(asset, addr(1), addr(2), SimTime::ZERO).unwrap();
        assert_eq!(chain.assets().owner(asset), Some(Owner::Party(addr(2))));
    }

    #[test]
    fn chain_metadata() {
        let (chain, _) = setup();
        assert_eq!(chain.name(), "testnet");
        assert_eq!(chain.blocks().len() as u64, chain.height() + 1);
    }
}
