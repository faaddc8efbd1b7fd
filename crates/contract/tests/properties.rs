//! Property tests for the contracts: no sequence of invalid inputs may
//! ever move an escrowed asset — or leave any other trace. The contracts
//! are hosted on a real `Blockchain<AnyContract>`, whose rollback restores
//! only the asset registry and relies on `apply` rejecting *before* it
//! mutates the contract (validate-then-commit); every rejected call below
//! checks that rule on the real contracts.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swap_chain::{AssetDescriptor, AssetId, Blockchain, ContractId, Owner, TxError};
use swap_contract::testkit::{keypair_for, leader_secret, spec_for};
use swap_contract::{AnyCall, AnyContract, HtlcCall, HtlcContract, SwapCall, SwapContract};
use swap_crypto::{Address, Digest32, Secret, SigChain};
use swap_digraph::{generators, VertexPath};
use swap_sim::SimTime;

fn addr(b: u8) -> Address {
    Address::from_digest(Digest32([b; 32]))
}

/// A chain with one asset minted to `owner` and `contract` published by
/// `owner` (escrowing the asset) at tick `at`.
fn host(
    owner: Address,
    at: u64,
    contract: impl FnOnce(AssetId) -> AnyContract,
) -> (Blockchain<AnyContract>, AssetId, ContractId) {
    let mut chain = Blockchain::new("prop", SimTime::ZERO);
    let asset = chain.mint_asset(AssetDescriptor::unique("x"), owner, SimTime::ZERO);
    let id = chain
        .publish_contract(contract(asset), owner, SimTime::from_ticks(at))
        .expect("the owner escrows its asset");
    (chain, asset, id)
}

/// Sends `call` to contract `id` at tick `when`; returns whether it was
/// accepted. A rejected call must leave no trace — the contract's state
/// (via `Debug`), the asset registry, the event log and the sealed version
/// all as they were — and advance `txs_rolled_back` by one exactly when
/// the contract's own hook (not the chain's terminated-contract guard) did
/// the rejecting.
fn call(
    chain: &mut Blockchain<AnyContract>,
    id: ContractId,
    caller: Address,
    call: impl Into<AnyCall>,
    when: u64,
) -> Result<bool, TestCaseError> {
    let before = (
        format!("{:?}", chain.contract(id)),
        chain.assets().clone(),
        chain.all_events().to_vec(),
        chain.version(),
        chain.txs_rolled_back(),
    );
    let rejection =
        match chain.call_contract(id, caller, call.into(), SimTime::from_ticks(when), 16) {
            Ok(_) => return Ok(true),
            Err(e) => e,
        };
    prop_assert_eq!(format!("{:?}", chain.contract(id)), before.0, "{:?} mutated state", rejection);
    prop_assert_eq!(chain.assets(), &before.1, "{:?} moved an asset", rejection);
    prop_assert_eq!(chain.all_events(), &before.2[..], "{:?} logged an event", rejection);
    prop_assert_eq!(chain.version(), before.3, "{:?} sealed a block", rejection);
    let hook_rejected = matches!(rejection, TxError::Contract(_));
    prop_assert_eq!(chain.txs_rolled_back(), before.4 + u64::from(hook_rejected));
    Ok(false)
}

proptest! {
    /// HTLC: arbitrary wrong secrets never trigger, regardless of timing
    /// and of who sends them, and the escrow stays intact.
    #[test]
    fn htlc_rejects_wrong_secrets(
        real in any::<[u8; 32]>(),
        guess in any::<[u8; 32]>(),
        when in 0u64..200,
    ) {
        prop_assume!(real != guess);
        let secret = Secret::from_bytes(real);
        let (mut chain, asset, id) = host(addr(1), 0, |asset| {
            HtlcContract::new(asset, addr(1), addr(2), secret.hashlock(), SimTime::from_ticks(100))
                .into()
        });
        let reveal = HtlcCall::Reveal { secret: Secret::from_bytes(guess) };
        prop_assert!(!call(&mut chain, id, addr(2), reveal, when)?);
        // Wrong caller (even with the right secret) and wrong flavor.
        prop_assert!(!call(&mut chain, id, addr(3), HtlcCall::Reveal { secret }, when)?);
        prop_assert!(!call(&mut chain, id, addr(2), SwapCall::Claim, when)?);
        let htlc = chain.contract(id).and_then(AnyContract::as_htlc).expect("published");
        prop_assert!(!htlc.is_triggered());
        prop_assert_eq!(chain.assets().owner(asset), Some(Owner::Escrow(id)));
    }

    /// HTLC: reveal succeeds iff before the timeout; refund succeeds iff
    /// at/after — and once one has succeeded the other never can.
    #[test]
    fn htlc_timeout_dichotomy(timeout in 1u64..100, when in 0u64..200) {
        let secret = Secret::from_bytes([9u8; 32]);
        let (mut chain, _, id) = host(addr(1), 0, |asset| {
            HtlcContract::new(
                asset, addr(1), addr(2), secret.hashlock(), SimTime::from_ticks(timeout),
            )
            .into()
        });
        // Only the party may refund, at any instant.
        prop_assert!(!call(&mut chain, id, addr(2), HtlcCall::Refund, when)?);
        let revealed = call(&mut chain, id, addr(2), HtlcCall::Reveal { secret }, when)?;
        prop_assert_eq!(revealed, when < timeout);
        if !revealed {
            let refunded = call(&mut chain, id, addr(1), HtlcCall::Refund, when)?;
            prop_assert_eq!(refunded, when >= timeout);
        } else {
            // Triggered contracts never refund.
            prop_assert!(!call(&mut chain, id, addr(1), HtlcCall::Refund, when + 1000)?);
        }
    }

    /// Swap contract: random (index, secret, path-shape) garbage never
    /// unlocks anything.
    #[test]
    fn swap_rejects_garbage_unlocks(
        index in 0usize..4,
        guess in any::<[u8; 32]>(),
        path_pick in 0usize..3,
        when in 0u64..100,
    ) {
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let bob = d.vertex_by_name("bob").unwrap();
        let carol = d.vertex_by_name("carol").unwrap();
        let spec = spec_for(d, vec![alice]);
        let arc = spec.digraph.arcs_between(alice, bob)[0];
        let (mut chain, asset, id) = host(spec.address_of(alice), 10, |asset| {
            SwapContract::new(spec.clone(), arc, asset).into()
        });

        // The guess differs from the leader's real secret by assumption.
        prop_assume!(Secret::from_bytes(guess) != leader_secret(alice));
        let path = match path_pick {
            0 => VertexPath::single(bob),
            1 => VertexPath::from_vertices(vec![bob, carol]).unwrap(),
            _ => VertexPath::from_vertices(vec![bob, carol, alice]).unwrap(),
        };
        // A syntactically fine chain signed by the wrong story.
        let mut mallory = keypair_for(carol);
        let sig = SigChain::sign_secret(&mut mallory, &Secret::from_bytes(guess)).unwrap();
        let unlock = SwapCall::Unlock { index, secret: Secret::from_bytes(guess), path, sig };
        prop_assert!(!call(&mut chain, id, spec.address_of(bob), unlock, when)?);
        let contract = chain.contract(id).and_then(AnyContract::as_swap).expect("published");
        prop_assert!(!contract.is_unlocked(0));
        prop_assert_eq!(chain.assets().owner(asset), Some(Owner::Escrow(id)));
    }

    /// Swap contract: claims before full unlocking and refunds before the
    /// global deadline always fail, at any instant and from either side.
    #[test]
    fn swap_claim_refund_guards(when in 0u64..69) {
        let d = generators::herlihy_three_party();
        let alice = d.vertex_by_name("alice").unwrap();
        let bob = d.vertex_by_name("bob").unwrap();
        let spec = spec_for(d, vec![alice]);
        let arc = spec.digraph.arcs_between(alice, bob)[0];
        let (party, counterparty) = (spec.address_of(alice), spec.address_of(bob));
        let (mut chain, asset, id) =
            host(party, 10, |asset| SwapContract::new(spec.clone(), arc, asset).into());
        prop_assert!(!call(&mut chain, id, counterparty, SwapCall::Claim, when)?);
        // all_hashkeys_dead = start(10) + 2·3·10 = 70 > when.
        prop_assert!(!call(&mut chain, id, party, SwapCall::Refund, when)?);
        // Wrong callers, and an HTLC call sent to a swap contract.
        prop_assert!(!call(&mut chain, id, party, SwapCall::Claim, when)?);
        prop_assert!(!call(&mut chain, id, counterparty, SwapCall::Refund, when)?);
        prop_assert!(!call(&mut chain, id, party, HtlcCall::Refund, when)?);
        prop_assert_eq!(chain.assets().owner(asset), Some(Owner::Escrow(id)));
    }
}
