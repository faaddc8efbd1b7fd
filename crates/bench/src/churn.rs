//! The transaction-tier churn workload shared by the `chain` criterion
//! bench and experiment E22: a non-terminating escrow contract and a chain
//! rigged with a pre-minted registry for it to run on.

use swap_chain::{AssetDescriptor, AssetId, Blockchain, ContractId, ContractLogic, ExecCtx, Owner};
use swap_crypto::Address;
use swap_sim::SimTime;

/// A non-terminating escrow contract: [`ChurnCall::Toggle`] moves its asset
/// between the home party and escrow (always succeeds),
/// [`ChurnCall::Fail`] rejects before touching anything (the pure rollback
/// path).
#[derive(Debug, Clone)]
pub struct Churn {
    /// The asset the contract shuttles in and out of escrow.
    pub asset: AssetId,
    /// The party the asset returns to.
    pub home: Address,
    /// Whether the asset currently sits in escrow.
    pub held: bool,
}

/// The calls [`Churn`] accepts.
#[derive(Debug, Clone, Copy)]
pub enum ChurnCall {
    /// Move the asset to the other side (escrow ↔ home).
    Toggle,
    /// Reject, forcing a rollback.
    Fail,
}

/// [`Churn`]'s only rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnError;

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "churn rejected")
    }
}
impl std::error::Error for ChurnError {}

impl ContractLogic for Churn {
    type Call = ChurnCall;
    type Event = ();
    type Error = ChurnError;

    fn on_publish(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Vec<()>, ChurnError> {
        ctx.assets
            .transfer_from(self.asset, Owner::Party(ctx.caller), Owner::Escrow(ctx.this))
            .map_err(|_| ChurnError)?;
        self.held = true;
        Ok(vec![])
    }

    fn apply(&mut self, call: ChurnCall, ctx: &mut ExecCtx<'_>) -> Result<Vec<()>, ChurnError> {
        match call {
            ChurnCall::Toggle => {
                let (from, to) = if self.held {
                    (Owner::Escrow(ctx.this), Owner::Party(self.home))
                } else {
                    (Owner::Party(self.home), Owner::Escrow(ctx.this))
                };
                ctx.assets.transfer_from(self.asset, from, to).map_err(|_| ChurnError)?;
                self.held = !self.held;
                Ok(vec![])
            }
            ChurnCall::Fail => Err(ChurnError),
        }
    }

    fn storage_bytes(&self) -> usize {
        8 + 32 + 1
    }

    fn is_terminated(&self) -> bool {
        false
    }
}

/// A chain whose registry holds `assets` assets pre-minted to `home`, with
/// one [`Churn`] contract already published on the first of them.
///
/// # Panics
///
/// Panics if `assets` is zero.
pub fn rigged_chain(home: Address, assets: usize) -> (Blockchain<Churn>, ContractId) {
    let mut chain = Blockchain::new("churn", SimTime::ZERO);
    let mut first = None;
    for _ in 0..assets {
        let id = chain.mint_asset(AssetDescriptor::unique("t"), home, SimTime::ZERO);
        first.get_or_insert(id);
    }
    let asset = first.expect("at least one asset");
    let id = chain
        .publish_contract(Churn { asset, home, held: false }, home, SimTime::from_ticks(1))
        .expect("publishes");
    (chain, id)
}
