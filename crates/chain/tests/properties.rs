//! Property tests for the ledger substrate: ownership is conserved,
//! integrity survives arbitrary operation sequences, and tampering is
//! always detected.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swap_chain::{
    AssetDescriptor, AssetId, AssetRegistry, Blockchain, ContractLogic, ExecCtx, Owner, TxError,
};
use swap_crypto::{Address, Digest32};
use swap_sim::SimTime;

fn addr(b: u8) -> Address {
    Address::from_digest(Digest32([b; 32]))
}

/// A trivial contract so we can instantiate `Blockchain` in tests.
#[derive(Debug, Clone)]
struct Nop;

#[derive(Debug, Clone, PartialEq, Eq)]
struct NopError;
impl std::fmt::Display for NopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nop")
    }
}
impl std::error::Error for NopError {}

impl ContractLogic for Nop {
    type Call = ();
    type Event = ();
    type Error = NopError;
    fn on_publish(&mut self, _ctx: &mut ExecCtx<'_>) -> Result<Vec<()>, NopError> {
        Ok(vec![])
    }
    fn apply(&mut self, _call: (), _ctx: &mut ExecCtx<'_>) -> Result<Vec<()>, NopError> {
        Ok(vec![])
    }
    fn storage_bytes(&self) -> usize {
        1
    }
    fn is_terminated(&self) -> bool {
        false
    }
}

/// An escrow contract whose calls can succeed, fail before mutating, or
/// fail *after* moving an asset — the "rare mid-apply failure" the undo
/// journal exists to revert.
#[derive(Debug, Clone)]
struct Vault {
    asset: AssetId,
    beneficiary: Address,
    done: bool,
}

#[derive(Debug, Clone, Copy)]
enum VaultCall {
    /// Release the escrow to the beneficiary and terminate.
    Release,
    /// Reject before touching anything (validate-then-commit reject path).
    FailClean,
    /// Move the escrowed asset, then error anyway (mid-apply failure; the
    /// ledger must revert the move).
    FailAfterMove,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum VaultEvent {
    Escrowed,
    Released,
}

impl ContractLogic for Vault {
    type Call = VaultCall;
    type Event = VaultEvent;
    type Error = NopError;

    fn on_publish(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Vec<VaultEvent>, NopError> {
        ctx.assets
            .transfer_from(self.asset, Owner::Party(ctx.caller), Owner::Escrow(ctx.this))
            .map_err(|_| NopError)?;
        Ok(vec![VaultEvent::Escrowed])
    }

    fn apply(
        &mut self,
        call: VaultCall,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Vec<VaultEvent>, NopError> {
        match call {
            VaultCall::Release => {
                ctx.assets
                    .transfer_from(
                        self.asset,
                        Owner::Escrow(ctx.this),
                        Owner::Party(self.beneficiary),
                    )
                    .map_err(|_| NopError)?;
                self.done = true;
                Ok(vec![VaultEvent::Released])
            }
            VaultCall::FailClean => Err(NopError),
            VaultCall::FailAfterMove => {
                ctx.assets
                    .transfer_from(
                        self.asset,
                        Owner::Escrow(ctx.this),
                        Owner::Party(self.beneficiary),
                    )
                    .map_err(|_| NopError)?;
                Err(NopError)
            }
        }
    }

    fn storage_bytes(&self) -> usize {
        8 + 32 + 1
    }

    fn is_terminated(&self) -> bool {
        self.done
    }
}

/// One randomized ledger operation.
#[derive(Debug, Clone)]
enum Op {
    Mint { owner: u8 },
    Transfer { asset: usize, from: u8, to: u8 },
    Publish { publisher: u8 },
}

/// One randomized operation for the rollback-oracle stream, mixing
/// succeeding and failing publishes, calls, and transfers.
#[derive(Debug, Clone)]
enum MixedOp {
    Mint { owner: u8 },
    Transfer { asset: usize, from: u8, to: u8 },
    Publish { asset: usize, publisher: u8, beneficiary: u8 },
    Call { contract: usize, caller: u8, kind: u8 },
}

fn arb_mixed_op() -> impl Strategy<Value = MixedOp> {
    prop_oneof![
        (1u8..5).prop_map(|owner| MixedOp::Mint { owner }),
        (0usize..16, 1u8..5, 1u8..5).prop_map(|(asset, from, to)| MixedOp::Transfer {
            asset,
            from,
            to
        }),
        (0usize..16, 1u8..5, 1u8..5).prop_map(|(asset, publisher, beneficiary)| {
            MixedOp::Publish { asset, publisher, beneficiary }
        }),
        (0usize..16, 1u8..5, 0u8..3).prop_map(|(contract, caller, kind)| MixedOp::Call {
            contract,
            caller,
            kind
        }),
    ]
}

/// Everything observable on `chain` except the rolled-back counter:
/// assets, contracts, events, storage, version, and the head block hash.
fn fingerprint(chain: &Blockchain<Vault>) -> String {
    let contracts: Vec<_> = chain.contracts().collect();
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{:?}",
        chain.assets(),
        contracts,
        chain.all_events(),
        chain.storage_report(),
        chain.txs_executed(),
        chain.blocks().last().unwrap().hash(),
    )
}

/// The clone-the-world reference for one transaction: given the chain's
/// fingerprint and rolled-back count taken *before* it, a transaction that
/// returned `Err` must have left everything as it was — except that a
/// failing contract hook (as opposed to a mempool-style rejection) counts
/// one rollback.
fn assert_no_trace<T>(
    chain: &Blockchain<Vault>,
    before: &(String, u64),
    result: &Result<T, TxError<NopError>>,
) -> Result<(), TestCaseError> {
    if let Err(e) = result {
        prop_assert_eq!(&fingerprint(chain), &before.0, "failed tx left a trace: {:?}", e);
        let hook_failed = matches!(e, TxError::Contract(_));
        prop_assert_eq!(chain.txs_rolled_back(), before.1 + u64::from(hook_failed));
    }
    Ok(())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..5).prop_map(|owner| Op::Mint { owner }),
        (0usize..16, 1u8..5, 1u8..5).prop_map(|(asset, from, to)| Op::Transfer { asset, from, to }),
        (1u8..5).prop_map(|publisher| Op::Publish { publisher }),
    ]
}

proptest! {
    /// Every asset has exactly one owner at all times, transfers only
    /// succeed from the true owner, and chain integrity holds after any
    /// operation sequence.
    #[test]
    fn ledger_invariants_under_random_ops(ops in prop::collection::vec(arb_op(), 0..60)) {
        let mut chain: Blockchain<Nop> = Blockchain::new("prop", SimTime::ZERO);
        let mut minted: Vec<(swap_chain::AssetId, u8)> = Vec::new(); // (asset, owner)
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_ticks(step as u64 + 1);
            match op {
                Op::Mint { owner } => {
                    let id = chain.mint_asset(
                        AssetDescriptor::unique("t"),
                        addr(owner),
                        now,
                    );
                    minted.push((id, owner));
                }
                Op::Transfer { asset, from, to } => {
                    if minted.is_empty() {
                        continue;
                    }
                    let slot = asset % minted.len();
                    let (id, true_owner) = minted[slot];
                    let result = chain.transfer_asset(id, addr(from), addr(to), now);
                    if from == true_owner {
                        prop_assert!(result.is_ok());
                        minted[slot].1 = to;
                    } else {
                        prop_assert!(result.is_err(), "transfer from non-owner succeeded");
                    }
                }
                Op::Publish { publisher } => {
                    chain
                        .publish_contract(Nop, addr(publisher), now)
                        .expect("nop publishes");
                }
            }
        }
        // Final ownership agrees with the model.
        for (id, owner) in &minted {
            prop_assert_eq!(chain.assets().owner(*id), Some(Owner::Party(addr(*owner))));
        }
        prop_assert!(chain.verify_integrity());
        // Heights line up: genesis + one block per successful tx.
        prop_assert_eq!(chain.height() + 1, chain.blocks().len() as u64);
    }

    /// Tampering with any *interior* sealed block breaks verification (the
    /// head block's own header is pinned only once a successor links to it,
    /// exactly as on real chains).
    #[test]
    fn any_block_tamper_detected(n_txs in 2usize..20, victim in 0usize..20, field in 0u8..3) {
        let mut chain: Blockchain<Nop> = Blockchain::new("prop", SimTime::ZERO);
        for i in 0..n_txs {
            chain.mint_asset(AssetDescriptor::unique("t"), addr(1), SimTime::from_ticks(i as u64));
        }
        prop_assert!(chain.verify_integrity());
        let copy = chain.clone();
        // Skip genesis and ensure a successor exists to anchor the victim.
        let idx = 1 + victim % (n_txs - 1);
        // Reach in through the public surface: rebuild blocks with a tweak.
        // (Blockchain fields are private; simulate tampering by serializing
        // the block list through its public accessor and checking that any
        // single-field change is caught via a fresh chain comparison.)
        let blocks = copy.blocks().to_vec();
        let mut tampered = blocks.clone();
        match field {
            0 => tampered[idx].height += 1,
            1 => tampered[idx].time = SimTime::from_ticks(9_999),
            _ => tampered[idx].parent = swap_crypto::sha256::sha256(b"evil"),
        }
        // A fresh chain with the tampered block list must fail the same
        // checks verify_integrity performs.
        let mut consistent = true;
        let mut prev: Option<&swap_chain::block::Block> = None;
        for b in &tampered {
            if !b.is_consistent() {
                consistent = false;
            }
            if let Some(p) = prev {
                if b.height != p.height + 1 || b.parent != p.hash() {
                    consistent = false;
                }
            }
            prev = Some(b);
        }
        prop_assert!(!consistent, "tampering with field {field} went undetected");
    }

    /// The undo journal against its clone-and-compare oracle, per step:
    /// over random interleavings of succeeding and failing
    /// publish/call/transfer streams, every transaction that returns `Err`
    /// — including calls that move an asset and *then* fail, the case only
    /// the journal can revert — leaves the whole chain exactly as it was
    /// and advances nothing but `txs_rolled_back`.
    #[test]
    fn failed_transactions_leave_no_trace(ops in prop::collection::vec(arb_mixed_op(), 0..80)) {
        let mut chain: Blockchain<Vault> = Blockchain::new("oracle", SimTime::ZERO);
        let mut minted: Vec<AssetId> = Vec::new();
        let mut published: Vec<swap_chain::ContractId> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_ticks(step as u64 + 1);
            let before = (fingerprint(&chain), chain.txs_rolled_back());
            match op {
                MixedOp::Mint { owner } => {
                    minted.push(chain.mint_asset(AssetDescriptor::unique("t"), addr(owner), now));
                }
                MixedOp::Transfer { asset, from, to } if !minted.is_empty() => {
                    let id = minted[asset % minted.len()];
                    let result = chain.transfer_asset(id, addr(from), addr(to), now);
                    assert_no_trace(&chain, &before, &result)?;
                }
                MixedOp::Publish { asset, publisher, beneficiary } if !minted.is_empty() => {
                    let vault = Vault {
                        asset: minted[asset % minted.len()],
                        beneficiary: addr(beneficiary),
                        done: false,
                    };
                    let result = chain.publish_contract(vault, addr(publisher), now);
                    assert_no_trace(&chain, &before, &result)?;
                    published.extend(result);
                }
                MixedOp::Call { contract, caller, kind } if !published.is_empty() => {
                    let id = published[contract % published.len()];
                    let call = match kind {
                        0 => VaultCall::Release,
                        1 => VaultCall::FailClean,
                        _ => VaultCall::FailAfterMove,
                    };
                    let result = chain.call_contract(id, addr(caller), call, now, 16).map(drop);
                    assert_no_trace(&chain, &before, &result)?;
                }
                _ => {}
            }
        }
        prop_assert!(chain.verify_integrity());
    }

    /// The registry's compare-and-swap refuses stale expected owners.
    #[test]
    fn registry_compare_and_swap(owners in prop::collection::vec(1u8..6, 1..10)) {
        let mut reg = AssetRegistry::new();
        let id = reg.mint(AssetDescriptor::unique("x"), addr(owners[0]));
        let mut current = owners[0];
        for &next in &owners[1..] {
            // Stale transfer attempt from a random non-owner.
            let stale = if current == 1 { 2 } else { 1 };
            if stale != current {
                prop_assert!(reg
                    .transfer_from(id, Owner::Party(addr(stale)), Owner::Party(addr(next)))
                    .is_err());
            }
            reg.transfer_from(id, Owner::Party(addr(current)), Owner::Party(addr(next)))
                .expect("owner-initiated transfer");
            current = next;
        }
        prop_assert_eq!(reg.owner(id), Some(Owner::Party(addr(current))));
    }
}
