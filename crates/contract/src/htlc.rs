//! The classic two-party hashed timelock contract (HTLC).
//!
//! This is the contract of the paper's §1 worked example and §4.6
//! single-leader protocol: **one** hashlock `h`, **one** absolute timeout
//! `t`. If the counterparty presents `s` with `H(s) = h` before `t`, the
//! asset transfers irrevocably; otherwise the party can reclaim it after
//! `t`. No paths, no signatures — which is exactly why it only works when
//! the follower subdigraph is acyclic (Figure 6).

use std::fmt;

use swap_chain::{AssetId, ContractLogic, ExecCtx, Owner};
use swap_crypto::{Address, Hashlock, Secret};
use swap_sim::SimTime;

/// Calls accepted by an [`HtlcContract`].
#[derive(Debug, Clone)]
pub enum HtlcCall {
    /// Present the secret before the timeout, triggering the transfer.
    Reveal {
        /// The claimed preimage of the hashlock.
        secret: Secret,
    },
    /// Reclaim the asset after the timeout.
    Refund,
}

/// Rejection reasons for [`HtlcContract`] calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtlcError {
    /// Only the counterparty may reveal.
    NotCounterparty,
    /// Only the party may refund.
    NotParty,
    /// The timeout has already passed; revealing no longer works.
    Expired {
        /// The timeout that passed.
        timeout: SimTime,
    },
    /// The timeout has not passed yet; refunding is premature.
    NotYetExpired {
        /// The pending timeout.
        timeout: SimTime,
    },
    /// The secret does not hash to the hashlock.
    WrongSecret,
    /// The publisher does not own the asset to escrow.
    PublisherNotOwner,
    /// The contract already triggered or refunded; no further calls apply.
    Terminated,
}

impl fmt::Display for HtlcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HtlcError::NotCounterparty => write!(f, "caller is not the counterparty"),
            HtlcError::NotParty => write!(f, "caller is not the party"),
            HtlcError::Expired { timeout } => write!(f, "timelock {timeout} has expired"),
            HtlcError::NotYetExpired { timeout } => {
                write!(f, "timelock {timeout} has not expired yet")
            }
            HtlcError::WrongSecret => write!(f, "secret does not match hashlock"),
            HtlcError::PublisherNotOwner => write!(f, "publisher does not own the asset"),
            HtlcError::Terminated => write!(f, "contract has already terminated"),
        }
    }
}

impl std::error::Error for HtlcError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HtlcState {
    Pending,
    Triggered,
    Refunded,
}

/// A hashed timelock contract: `(h, t)` protecting one asset transfer.
///
/// # Example
///
/// ```
/// use swap_contract::HtlcContract;
/// use swap_chain::AssetId;
/// use swap_crypto::{Address, Digest32, Secret};
/// use swap_sim::SimTime;
///
/// let party = Address::from_digest(Digest32([1u8; 32]));
/// let counterparty = Address::from_digest(Digest32([2u8; 32]));
/// let s = Secret::from_bytes([9u8; 32]);
/// let htlc = HtlcContract::new(
///     AssetId::new(0),
///     party,
///     counterparty,
///     s.hashlock(),
///     SimTime::from_ticks(60),
/// );
/// assert!(!htlc.is_triggered());
/// ```
#[derive(Debug, Clone)]
pub struct HtlcContract {
    asset: AssetId,
    party: Address,
    counterparty: Address,
    hashlock: Hashlock,
    timeout: SimTime,
    state: HtlcState,
    revealed: Option<Secret>,
}

impl HtlcContract {
    /// Creates an HTLC transferring `asset` from `party` to `counterparty`
    /// if the preimage of `hashlock` appears before `timeout`.
    pub fn new(
        asset: AssetId,
        party: Address,
        counterparty: Address,
        hashlock: Hashlock,
        timeout: SimTime,
    ) -> Self {
        HtlcContract {
            asset,
            party,
            counterparty,
            hashlock,
            timeout,
            state: HtlcState::Pending,
            revealed: None,
        }
    }

    /// The escrowed asset.
    pub fn asset(&self) -> AssetId {
        self.asset
    }

    /// The party (asset origin).
    pub fn party(&self) -> Address {
        self.party
    }

    /// The counterparty (asset destination).
    pub fn counterparty(&self) -> Address {
        self.counterparty
    }

    /// The hashlock.
    pub fn hashlock(&self) -> Hashlock {
        self.hashlock
    }

    /// The absolute timeout.
    pub fn timeout(&self) -> SimTime {
        self.timeout
    }

    /// Whether the transfer fired.
    pub fn is_triggered(&self) -> bool {
        self.state == HtlcState::Triggered
    }

    /// Whether the asset was refunded.
    pub fn is_refunded(&self) -> bool {
        self.state == HtlcState::Refunded
    }

    /// The revealed secret, if the contract has triggered. Publicly
    /// readable — this is how secrets propagate in the timeout protocol.
    pub fn revealed_secret(&self) -> Option<&Secret> {
        self.revealed.as_ref()
    }
}

impl ContractLogic for HtlcContract {
    type Call = HtlcCall;
    type Error = HtlcError;

    fn on_publish(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), HtlcError> {
        if ctx.caller != self.party {
            return Err(HtlcError::NotParty);
        }
        ctx.assets
            .transfer_from(self.asset, Owner::Party(ctx.caller), Owner::Escrow(ctx.this))
            .map_err(|_| HtlcError::PublisherNotOwner)
    }

    /// Applies a call under the validate-then-commit rule the journaled
    /// rollback mode relies on (see [`ContractLogic`]): each arm runs all
    /// of its guards before the escrow move and state write, so an error
    /// here guarantees untouched contract state.
    fn apply(&mut self, call: HtlcCall, ctx: &mut ExecCtx<'_>) -> Result<(), HtlcError> {
        // Hosting chains already refuse calls to terminated contracts; this
        // guard keeps the state machine safe when driven directly.
        if self.is_terminated() {
            return Err(HtlcError::Terminated);
        }
        match call {
            HtlcCall::Reveal { secret } => {
                if ctx.caller != self.counterparty {
                    return Err(HtlcError::NotCounterparty);
                }
                if ctx.now >= self.timeout {
                    return Err(HtlcError::Expired { timeout: self.timeout });
                }
                if !self.hashlock.matches(&secret) {
                    return Err(HtlcError::WrongSecret);
                }
                ctx.assets
                    .transfer_from(self.asset, Owner::Escrow(ctx.this), Owner::Party(ctx.caller))
                    .expect("asset escrowed at publication");
                self.state = HtlcState::Triggered;
                self.revealed = Some(secret);
                Ok(())
            }
            HtlcCall::Refund => {
                if ctx.caller != self.party {
                    return Err(HtlcError::NotParty);
                }
                if ctx.now < self.timeout {
                    return Err(HtlcError::NotYetExpired { timeout: self.timeout });
                }
                ctx.assets
                    .transfer_from(self.asset, Owner::Escrow(ctx.this), Owner::Party(ctx.caller))
                    .expect("asset escrowed at publication");
                self.state = HtlcState::Refunded;
                Ok(())
            }
        }
    }

    fn storage_bytes(&self) -> usize {
        // asset id + two addresses + hashlock + timeout + state + optional
        // revealed secret.
        8 + 32 + 32 + 32 + 8 + 1 + if self.revealed.is_some() { 32 } else { 0 }
    }

    fn is_terminated(&self) -> bool {
        self.state != HtlcState::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_chain::{AssetDescriptor, AssetRegistry, ContractId};
    use swap_crypto::Digest32;

    fn addr(b: u8) -> Address {
        Address::from_digest(Digest32([b; 32]))
    }

    const THIS: ContractId = ContractId::new(0);

    struct Rig {
        htlc: HtlcContract,
        assets: AssetRegistry,
        asset: AssetId,
        secret: Secret,
    }

    impl Rig {
        fn new(timeout: u64) -> Rig {
            let mut assets = AssetRegistry::new();
            let asset = assets.mint(AssetDescriptor::new("btc", 1), addr(1));
            let secret = Secret::from_bytes([5u8; 32]);
            let mut htlc = HtlcContract::new(
                asset,
                addr(1),
                addr(2),
                secret.hashlock(),
                SimTime::from_ticks(timeout),
            );
            let mut ctx =
                ExecCtx { caller: addr(1), now: SimTime::ZERO, this: THIS, assets: &mut assets };
            htlc.on_publish(&mut ctx).unwrap();
            Rig { htlc, assets, asset, secret }
        }

        fn call(&mut self, caller: Address, call: HtlcCall, now: u64) -> Result<(), HtlcError> {
            let mut ctx = ExecCtx {
                caller,
                now: SimTime::from_ticks(now),
                this: THIS,
                assets: &mut self.assets,
            };
            self.htlc.apply(call, &mut ctx)
        }
    }

    #[test]
    fn reveal_before_timeout_transfers() {
        let mut rig = Rig::new(60);
        rig.call(addr(2), HtlcCall::Reveal { secret: rig.secret }, 59).unwrap();
        assert!(rig.htlc.is_triggered());
        assert!(rig.htlc.is_terminated());
        assert_eq!(rig.assets.owner(rig.asset), Some(Owner::Party(addr(2))));
        // The secret is now public.
        assert_eq!(rig.htlc.revealed_secret(), Some(&rig.secret));
    }

    #[test]
    fn reveal_at_timeout_rejected() {
        let mut rig = Rig::new(60);
        let err = rig.call(addr(2), HtlcCall::Reveal { secret: rig.secret }, 60).unwrap_err();
        assert_eq!(err, HtlcError::Expired { timeout: SimTime::from_ticks(60) });
        assert!(!rig.htlc.is_triggered());
    }

    #[test]
    fn wrong_secret_rejected() {
        let mut rig = Rig::new(60);
        let err = rig
            .call(addr(2), HtlcCall::Reveal { secret: Secret::from_bytes([0u8; 32]) }, 10)
            .unwrap_err();
        assert_eq!(err, HtlcError::WrongSecret);
    }

    #[test]
    fn only_counterparty_reveals() {
        let mut rig = Rig::new(60);
        let err = rig.call(addr(3), HtlcCall::Reveal { secret: rig.secret }, 10).unwrap_err();
        assert_eq!(err, HtlcError::NotCounterparty);
        let err = rig.call(addr(1), HtlcCall::Reveal { secret: rig.secret }, 10).unwrap_err();
        assert_eq!(err, HtlcError::NotCounterparty);
    }

    #[test]
    fn refund_after_timeout() {
        let mut rig = Rig::new(60);
        rig.call(addr(1), HtlcCall::Refund, 60).unwrap();
        assert!(rig.htlc.is_refunded());
        assert_eq!(rig.assets.owner(rig.asset), Some(Owner::Party(addr(1))));
    }

    #[test]
    fn refund_before_timeout_rejected() {
        let mut rig = Rig::new(60);
        let err = rig.call(addr(1), HtlcCall::Refund, 59).unwrap_err();
        assert_eq!(err, HtlcError::NotYetExpired { timeout: SimTime::from_ticks(60) });
    }

    #[test]
    fn only_party_refunds() {
        let mut rig = Rig::new(60);
        let err = rig.call(addr(2), HtlcCall::Refund, 99).unwrap_err();
        assert_eq!(err, HtlcError::NotParty);
    }

    #[test]
    fn publish_requires_asset_ownership() {
        let mut assets = AssetRegistry::new();
        let asset = assets.mint(AssetDescriptor::new("btc", 1), addr(7));
        let secret = Secret::from_bytes([5u8; 32]);
        let mut htlc =
            HtlcContract::new(asset, addr(1), addr(2), secret.hashlock(), SimTime::from_ticks(9));
        let mut ctx =
            ExecCtx { caller: addr(1), now: SimTime::ZERO, this: THIS, assets: &mut assets };
        assert_eq!(htlc.on_publish(&mut ctx), Err(HtlcError::PublisherNotOwner));
    }

    #[test]
    fn publish_requires_party_caller() {
        let mut assets = AssetRegistry::new();
        let asset = assets.mint(AssetDescriptor::new("btc", 1), addr(2));
        let secret = Secret::from_bytes([5u8; 32]);
        let mut htlc =
            HtlcContract::new(asset, addr(1), addr(2), secret.hashlock(), SimTime::from_ticks(9));
        // addr(2) owns the asset but is not the contract's party.
        let mut ctx =
            ExecCtx { caller: addr(2), now: SimTime::ZERO, this: THIS, assets: &mut assets };
        assert_eq!(htlc.on_publish(&mut ctx), Err(HtlcError::NotParty));
    }

    #[test]
    fn storage_accounts_revealed_secret() {
        let mut rig = Rig::new(60);
        let before = rig.htlc.storage_bytes();
        rig.call(addr(2), HtlcCall::Reveal { secret: rig.secret }, 10).unwrap();
        assert_eq!(rig.htlc.storage_bytes(), before + 32);
    }

    #[test]
    fn accessors() {
        let rig = Rig::new(60);
        assert_eq!(rig.htlc.asset(), rig.asset);
        assert_eq!(rig.htlc.party(), addr(1));
        assert_eq!(rig.htlc.counterparty(), addr(2));
        assert_eq!(rig.htlc.timeout(), SimTime::from_ticks(60));
        assert!(rig.htlc.hashlock().matches(&rig.secret));
    }

    #[test]
    fn error_display() {
        assert!(HtlcError::WrongSecret.to_string().contains("secret"));
        assert!(HtlcError::Expired { timeout: SimTime::from_ticks(5) }.to_string().contains("t=5"));
    }
}
