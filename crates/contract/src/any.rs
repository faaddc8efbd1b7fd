//! [`AnyContract`]: one chain type hosting either contract flavor.
//!
//! Simulated chains are generic over a single [`ContractLogic`]; this enum
//! lets a runner mix the general swap contract and plain HTLCs in one
//! [`swap_chain::ChainSet`] (e.g. when comparing the two protocols on the
//! same scenario).

use std::fmt;

use swap_chain::{ContractLogic, ExecCtx};

use crate::htlc::{HtlcCall, HtlcContract, HtlcError};
use crate::swap::{SwapCall, SwapContract, SwapError};

/// Either contract flavor.
#[derive(Debug, Clone)]
pub enum AnyContract {
    /// Classic two-party HTLC.
    Htlc(HtlcContract),
    /// General multi-leader swap contract.
    Swap(SwapContract),
}

/// A call to either contract flavor.
#[derive(Debug, Clone)]
pub enum AnyCall {
    /// A call to an [`HtlcContract`].
    Htlc(HtlcCall),
    /// A call to a [`SwapContract`].
    Swap(SwapCall),
}

/// An error from either contract flavor, or a flavor mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnyError {
    /// From an [`HtlcContract`].
    Htlc(HtlcError),
    /// From a [`SwapContract`].
    Swap(SwapError),
    /// An HTLC call was sent to a swap contract or vice versa.
    WrongFlavor,
}

impl fmt::Display for AnyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyError::Htlc(e) => write!(f, "{e}"),
            AnyError::Swap(e) => write!(f, "{e}"),
            AnyError::WrongFlavor => write!(f, "call flavor does not match contract flavor"),
        }
    }
}

impl std::error::Error for AnyError {}

impl From<HtlcContract> for AnyContract {
    fn from(c: HtlcContract) -> Self {
        AnyContract::Htlc(c)
    }
}

impl From<SwapContract> for AnyContract {
    fn from(c: SwapContract) -> Self {
        AnyContract::Swap(c)
    }
}

impl From<HtlcCall> for AnyCall {
    fn from(c: HtlcCall) -> Self {
        AnyCall::Htlc(c)
    }
}

impl From<SwapCall> for AnyCall {
    fn from(c: SwapCall) -> Self {
        AnyCall::Swap(c)
    }
}

impl AnyContract {
    /// The inner HTLC, if that is the flavor.
    pub fn as_htlc(&self) -> Option<&HtlcContract> {
        match self {
            AnyContract::Htlc(c) => Some(c),
            AnyContract::Swap(_) => None,
        }
    }

    /// The inner swap contract, if that is the flavor.
    pub fn as_swap(&self) -> Option<&SwapContract> {
        match self {
            AnyContract::Swap(c) => Some(c),
            AnyContract::Htlc(_) => None,
        }
    }

    /// Whether this contract's transfer has irrevocably happened, in the
    /// flavor's own terms: an HTLC *triggered* (secret revealed in time); a
    /// swap contract *fully unlocked or claimed* (once every hashlock is
    /// open, only the counterparty can ever take the asset).
    pub fn transfer_triggered(&self) -> bool {
        match self {
            AnyContract::Htlc(c) => c.is_triggered(),
            AnyContract::Swap(c) => c.fully_unlocked() || c.is_claimed(),
        }
    }

    /// Whether the contract reached a terminal state: the escrowed asset
    /// left escrow, either toward the counterparty or back to the party.
    pub fn settled(&self) -> bool {
        match self {
            AnyContract::Htlc(c) => c.is_terminated(),
            AnyContract::Swap(c) => c.is_claimed() || c.is_refunded(),
        }
    }
}

impl ContractLogic for AnyContract {
    type Call = AnyCall;
    type Error = AnyError;

    fn on_publish(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), AnyError> {
        match self {
            AnyContract::Htlc(c) => c.on_publish(ctx).map_err(AnyError::Htlc),
            AnyContract::Swap(c) => c.on_publish(ctx).map_err(AnyError::Swap),
        }
    }

    fn apply(&mut self, call: AnyCall, ctx: &mut ExecCtx<'_>) -> Result<(), AnyError> {
        match (self, call) {
            (AnyContract::Htlc(c), AnyCall::Htlc(call)) => {
                c.apply(call, ctx).map_err(AnyError::Htlc)
            }
            (AnyContract::Swap(c), AnyCall::Swap(call)) => {
                c.apply(call, ctx).map_err(AnyError::Swap)
            }
            _ => Err(AnyError::WrongFlavor),
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            AnyContract::Htlc(c) => c.storage_bytes(),
            AnyContract::Swap(c) => c.storage_bytes(),
        }
    }

    fn is_terminated(&self) -> bool {
        match self {
            AnyContract::Htlc(c) => c.is_terminated(),
            AnyContract::Swap(c) => c.is_terminated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_chain::{AssetDescriptor, AssetRegistry, ContractId};
    use swap_crypto::{Address, Digest32, Secret};
    use swap_sim::SimTime;

    fn addr(b: u8) -> Address {
        Address::from_digest(Digest32([b; 32]))
    }

    fn htlc_any() -> (AnyContract, AssetRegistry) {
        let mut assets = AssetRegistry::new();
        let asset = assets.mint(AssetDescriptor::new("x", 1), addr(1));
        let secret = Secret::from_bytes([5u8; 32]);
        let htlc =
            HtlcContract::new(asset, addr(1), addr(2), secret.hashlock(), SimTime::from_ticks(60));
        let mut any: AnyContract = htlc.into();
        let mut ctx = ExecCtx {
            caller: addr(1),
            now: SimTime::ZERO,
            this: ContractId::new(0),
            assets: &mut assets,
        };
        any.on_publish(&mut ctx).unwrap();
        (any, assets)
    }

    #[test]
    fn htlc_flavor_roundtrip() {
        let (mut any, mut assets) = htlc_any();
        assert!(any.as_htlc().is_some());
        assert!(any.as_swap().is_none());
        let mut ctx = ExecCtx {
            caller: addr(2),
            now: SimTime::from_ticks(10),
            this: ContractId::new(0),
            assets: &mut assets,
        };
        any.apply(
            AnyCall::Htlc(HtlcCall::Reveal { secret: Secret::from_bytes([5u8; 32]) }),
            &mut ctx,
        )
        .unwrap();
        assert!(any.as_htlc().unwrap().is_triggered());
        assert!(any.is_terminated());
        assert!(any.storage_bytes() > 0);
    }

    #[test]
    fn htlc_trigger_and_settle_semantics() {
        let (mut any, mut assets) = htlc_any();
        assert!(!any.transfer_triggered());
        assert!(!any.settled());
        let mut ctx = ExecCtx {
            caller: addr(2),
            now: SimTime::from_ticks(10),
            this: ContractId::new(0),
            assets: &mut assets,
        };
        any.apply(
            AnyCall::Htlc(HtlcCall::Reveal { secret: Secret::from_bytes([5u8; 32]) }),
            &mut ctx,
        )
        .unwrap();
        assert!(any.transfer_triggered());
        assert!(any.settled());
    }

    #[test]
    fn htlc_refund_settles_without_triggering() {
        let (mut any, mut assets) = htlc_any();
        let mut ctx = ExecCtx {
            caller: addr(1),
            now: SimTime::from_ticks(99),
            this: ContractId::new(0),
            assets: &mut assets,
        };
        any.apply(AnyCall::Htlc(HtlcCall::Refund), &mut ctx).unwrap();
        assert!(!any.transfer_triggered());
        assert!(any.settled());
    }

    #[test]
    fn flavor_mismatch_rejected() {
        let (mut any, mut assets) = htlc_any();
        let mut ctx = ExecCtx {
            caller: addr(2),
            now: SimTime::from_ticks(10),
            this: ContractId::new(0),
            assets: &mut assets,
        };
        let err = any.apply(AnyCall::Swap(SwapCall::Claim), &mut ctx).unwrap_err();
        assert_eq!(err, AnyError::WrongFlavor);
        assert!(err.to_string().contains("flavor"));
    }
}
