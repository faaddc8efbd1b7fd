//! End-to-end swap setup: keys, secrets, spec, chains, and assets.
//!
//! [`SwapSetup`] packages everything a protocol run needs: a validated
//! [`SwapSpec`], each party's signing keypair, each leader's secret, one
//! blockchain per arc, and one escrowable asset per arc minted to the arc's
//! party. Both the general runner and the experiment harness start here.

use std::fmt;

use swap_chain::{AssetDescriptor, AssetId, ChainId, ChainSet};
use swap_contract::{AnyContract, SwapSpec};
use swap_crypto::{MssKeypair, Secret};
use swap_digraph::{Digraph, VertexId};
use swap_market::{BuildError, SpecBuilder};
use swap_sim::{Delta, SimRng, SimTime};

/// Default MSS key-tree height for generated parties: `2^6 = 64` one-time
/// signatures, enough for any leader count the experiments use.
pub const DEFAULT_KEY_HEIGHT: u32 = 6;

/// Errors from [`SwapSetup::generate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SetupError {
    /// Spec assembly failed.
    Build(BuildError),
    /// The start time must be at least Δ after `now` for Phase One to fit.
    StartTooSoon,
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::Build(e) => write!(f, "{e}"),
            SetupError::StartTooSoon => write!(f, "start must be at least Δ in the future"),
        }
    }
}

impl std::error::Error for SetupError {}

impl From<BuildError> for SetupError {
    fn from(e: BuildError) -> Self {
        SetupError::Build(e)
    }
}

/// A fully provisioned swap instance, ready to run. `Clone` exists so
/// harnesses can provision once (key generation dominates) and replay the
/// same instance under many configurations.
#[derive(Debug, Clone)]
pub struct SwapSetup {
    /// The validated specification.
    pub spec: SwapSpec,
    /// Signing keypair per vertex (index = vertex index).
    pub keypairs: Vec<MssKeypair>,
    /// Secret per vertex (every party generates one, §4.2; only leaders'
    /// matter to the spec).
    pub secrets: Vec<Secret>,
    /// One blockchain per arc (index = arc index). Chains host
    /// [`AnyContract`], so the same setup runs under either
    /// [`crate::protocol::ProtocolKind`].
    pub chains: ChainSet<AnyContract>,
    /// The chain hosting each arc's contract (index = arc index).
    pub chain_of_arc: Vec<ChainId>,
    /// The escrowable asset for each arc (index = arc index), minted on the
    /// arc's chain to the arc head's address.
    pub asset_of_arc: Vec<AssetId>,
}

/// Configuration for [`SwapSetup::generate`].
#[derive(Debug, Clone)]
pub struct SetupConfig {
    /// The synchrony parameter Δ.
    pub delta: Delta,
    /// "Now": when the clearing service publishes. The protocol start is
    /// `now + delta` (the minimum §4.2 allows).
    pub now: SimTime,
    /// Explicit leaders; `None` elects the exact minimum feedback vertex
    /// set.
    pub leaders: Option<Vec<VertexId>>,
    /// MSS key height per party.
    pub key_height: u32,
}

impl Default for SetupConfig {
    fn default() -> Self {
        SetupConfig {
            delta: Delta::from_ticks(10),
            now: SimTime::ZERO,
            leaders: None,
            key_height: DEFAULT_KEY_HEIGHT,
        }
    }
}

impl SwapSetup {
    /// Provisions a swap over `digraph` with deterministic key material
    /// drawn from `rng`.
    ///
    /// # Errors
    ///
    /// Propagates spec-assembly failures (e.g. non-strongly-connected
    /// digraphs, leader sets that are not feedback vertex sets).
    pub fn generate(
        digraph: Digraph,
        config: &SetupConfig,
        rng: &mut SimRng,
    ) -> Result<SwapSetup, SetupError> {
        let n = digraph.vertex_count();
        let mut key_rng = rng.stream("setup/keys");
        let mut secret_rng = rng.stream("setup/secrets");
        let keypairs: Vec<MssKeypair> = (0..n)
            .map(|_| MssKeypair::from_seed_with_height(key_rng.bytes32(), config.key_height))
            .collect();
        let secrets: Vec<Secret> = (0..n).map(|_| Secret::random(&mut secret_rng)).collect();

        let mut builder = SpecBuilder::new(digraph.clone());
        builder.delta(config.delta).start(config.now + config.delta.times(1));
        if let Some(ls) = &config.leaders {
            builder.leaders(ls.clone());
        }
        for v in digraph.vertices() {
            builder.identity(v, keypairs[v.index()].public_key(), secrets[v.index()].hashlock());
        }
        let spec = builder.build()?;
        Ok(SwapSetup::from_parts(spec, keypairs, secrets, config.now))
    }

    /// Provisions one chain and one asset per arc for `spec`, created at
    /// `now`; each asset starts with the arc's party (its head). Every
    /// setup is made here: [`SwapSetup::generate`] after validating its
    /// freshly built spec, the exchange when it admits a cleared swap, and
    /// the impossibility experiments (Lemma 3.4's free-riding coalition on
    /// a digraph that is not strongly connected; Theorem 4.12's
    /// non-feedback leader set) on specs a conforming market would reject —
    /// no validation happens here.
    ///
    /// `keypairs` and `secrets` must be indexed by vertex and match the
    /// spec's key and hashlock tables for the run to make sense.
    pub fn from_parts(
        spec: SwapSpec,
        keypairs: Vec<MssKeypair>,
        secrets: Vec<Secret>,
        now: SimTime,
    ) -> SwapSetup {
        let digraph = &spec.digraph;
        let mut chains: ChainSet<AnyContract> = ChainSet::new();
        let mut chain_of_arc = Vec::with_capacity(digraph.arc_count());
        let mut asset_of_arc = Vec::with_capacity(digraph.arc_count());
        for arc in digraph.arcs() {
            let chain_id = chains.create_chain(
                format!("chain-{}-{}", digraph.name(arc.head), digraph.name(arc.tail)),
                now,
            );
            let chain = chains.get_mut(chain_id).expect("just created");
            let descriptor =
                AssetDescriptor::unique(format!("asset-of-{}", digraph.name(arc.head)));
            let owner = spec.address_of(arc.head);
            let asset = chain.mint_asset(descriptor, owner, now);
            chain_of_arc.push(chain_id);
            asset_of_arc.push(asset);
        }
        SwapSetup { spec, keypairs, secrets, chains, chain_of_arc, asset_of_arc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_chain::Owner;
    use swap_digraph::generators;

    fn rng() -> SimRng {
        SimRng::from_seed(42)
    }

    #[test]
    fn generate_three_party() {
        let d = generators::herlihy_three_party();
        let setup = SwapSetup::generate(d, &SetupConfig::default(), &mut rng()).unwrap();
        assert_eq!(setup.keypairs.len(), 3);
        assert_eq!(setup.secrets.len(), 3);
        assert_eq!(setup.chains.len(), 3);
        assert_eq!(setup.spec.leaders.len(), 1);
        setup.spec.validate().unwrap();
        // Keys in the spec match the generated keypairs.
        for (i, kp) in setup.keypairs.iter().enumerate() {
            assert_eq!(setup.spec.keys[i], kp.public_key());
        }
        // Leader hashlock matches the leader's secret.
        let leader = setup.spec.leaders[0];
        assert!(setup.spec.hashlocks[0].matches(&setup.secrets[leader.index()]));
    }

    #[test]
    fn assets_minted_to_arc_heads() {
        let d = generators::herlihy_three_party();
        let setup = SwapSetup::generate(d.clone(), &SetupConfig::default(), &mut rng()).unwrap();
        for arc in d.arcs() {
            let chain = setup.chains.get(setup.chain_of_arc[arc.id.index()]).unwrap();
            let asset = setup.asset_of_arc[arc.id.index()];
            assert_eq!(
                chain.assets().owner(asset),
                Some(Owner::Party(setup.spec.address_of(arc.head))),
                "asset for arc {}",
                arc.id
            );
        }
    }

    #[test]
    fn start_is_delta_after_now() {
        let d = generators::herlihy_three_party();
        let config = SetupConfig { now: SimTime::from_ticks(100), ..SetupConfig::default() };
        let setup = SwapSetup::generate(d, &config, &mut rng()).unwrap();
        assert_eq!(setup.spec.start, SimTime::from_ticks(110));
    }

    #[test]
    fn deterministic_per_seed() {
        let d = generators::herlihy_three_party();
        let a = SwapSetup::generate(d.clone(), &SetupConfig::default(), &mut rng()).unwrap();
        let b = SwapSetup::generate(d, &SetupConfig::default(), &mut rng()).unwrap();
        assert_eq!(a.spec, b.spec);
    }

    #[test]
    fn explicit_leaders_respected() {
        let d = generators::herlihy_three_party();
        let bob = d.vertex_by_name("bob").unwrap();
        let config = SetupConfig { leaders: Some(vec![bob]), ..SetupConfig::default() };
        let setup = SwapSetup::generate(d, &config, &mut rng()).unwrap();
        assert_eq!(setup.spec.leaders, vec![bob]);
    }

    #[test]
    fn non_strongly_connected_rejected() {
        let d = generators::one_way_pair();
        let err = SwapSetup::generate(d, &SetupConfig::default(), &mut rng()).unwrap_err();
        assert!(matches!(err, SetupError::Build(_)));
    }

    #[test]
    fn two_leader_setup() {
        let d = generators::two_leader_triangle();
        let setup = SwapSetup::generate(d, &SetupConfig::default(), &mut rng()).unwrap();
        assert_eq!(setup.spec.leaders.len(), 2);
        assert_eq!(setup.chains.len(), 6);
        // Both leader hashlocks match their secrets.
        for (i, &l) in setup.spec.leaders.iter().enumerate() {
            assert!(setup.spec.hashlocks[i].matches(&setup.secrets[l.index()]));
        }
    }
}
