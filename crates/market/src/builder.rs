//! [`SpecBuilder`]: assemble a validated [`SwapSpec`] from parts.

use std::fmt;

use swap_contract::spec::SpecError;
use swap_contract::SwapSpec;
use swap_crypto::{Address, Hashlock, MssPublicKey};
use swap_digraph::algo::EXACT_DIAMETER_LIMIT;
use swap_digraph::{Digraph, FeedbackVertexSet, VertexId};
use swap_sim::{Delta, SimTime};

/// Errors from [`SpecBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A vertex has no identity (key + hashlock) registered.
    MissingIdentity(VertexId),
    /// An identity was registered for a nonexistent vertex.
    UnknownVertex(VertexId),
    /// Exact leader search exceeded its budget; pass explicit leaders,
    /// e.g. [`FeedbackVertexSet::greedy`], through
    /// [`SpecBuilder::leaders`].
    LeaderSearchExceeded,
    /// The assembled spec failed validation.
    Spec(SpecError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingIdentity(v) => write!(f, "vertex {v} has no identity"),
            BuildError::UnknownVertex(v) => write!(f, "identity given for unknown vertex {v}"),
            BuildError::LeaderSearchExceeded => {
                write!(f, "exact leader search exceeded its budget")
            }
            BuildError::Spec(e) => write!(f, "invalid spec: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SpecError> for BuildError {
    fn from(e: SpecError) -> Self {
        BuildError::Spec(e)
    }
}

/// Incremental construction of a [`SwapSpec`] over a given digraph.
///
/// # Example
///
/// ```
/// use swap_crypto::{MssKeypair, Secret};
/// use swap_digraph::generators;
/// use swap_market::SpecBuilder;
/// use swap_sim::{Delta, SimTime};
///
/// let d = generators::herlihy_three_party();
/// let mut builder = SpecBuilder::new(d.clone());
/// for (i, v) in d.vertices().enumerate() {
///     let kp = MssKeypair::from_seed_with_height([i as u8 + 1; 32], 2);
///     let secret = Secret::from_bytes([i as u8 + 50; 32]);
///     builder.identity(v, kp.public_key(), secret.hashlock());
/// }
/// let spec = builder
///     .delta(Delta::from_ticks(10))
///     .start(SimTime::from_ticks(10))
///     .build()
///     .unwrap();
/// assert_eq!(spec.leaders.len(), 1);
/// spec.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    digraph: Digraph,
    identities: Vec<Option<(MssPublicKey, Hashlock)>>,
    /// The first vertex an identity was registered for that the digraph
    /// does not have; [`build`](SpecBuilder::build) reports it.
    unknown_vertex: Option<VertexId>,
    delta: Delta,
    start: SimTime,
    leaders: Option<Vec<VertexId>>,
    diam_override: Option<u64>,
    broadcast_arcs: bool,
}

impl SpecBuilder {
    /// Starts a builder for `digraph` with default Δ and a start of Δ after
    /// zero ("a starting time T, at least Δ in the future").
    pub fn new(digraph: Digraph) -> Self {
        let n = digraph.vertex_count();
        let delta = Delta::default();
        SpecBuilder {
            digraph,
            identities: vec![None; n],
            unknown_vertex: None,
            delta,
            start: SimTime::ZERO + delta.times(1),
            leaders: None,
            diam_override: None,
            broadcast_arcs: false,
        }
    }

    /// Registers vertex `v`'s verification key and hashlock. A vertex the
    /// digraph does not have is remembered and fails
    /// [`build`](SpecBuilder::build) with [`BuildError::UnknownVertex`].
    pub fn identity(&mut self, v: VertexId, key: MssPublicKey, hashlock: Hashlock) -> &mut Self {
        match self.identities.get_mut(v.index()) {
            Some(slot) => *slot = Some((key, hashlock)),
            None => {
                self.unknown_vertex.get_or_insert(v);
            }
        }
        self
    }

    /// Sets the synchrony parameter Δ.
    pub fn delta(&mut self, delta: Delta) -> &mut Self {
        self.delta = delta;
        self
    }

    /// Sets the protocol start time `T`.
    pub fn start(&mut self, start: SimTime) -> &mut Self {
        self.start = start;
        self
    }

    /// Fixes the leader set explicitly (it is still validated as an FVS).
    pub fn leaders(&mut self, leaders: Vec<VertexId>) -> &mut Self {
        self.leaders = Some(leaders);
        self
    }

    /// Enables the §4.5 broadcast optimization: contracts will accept
    /// length-one hashkey paths from any vertex to any leader.
    pub fn broadcast_arcs(&mut self, enabled: bool) -> &mut Self {
        self.broadcast_arcs = enabled;
        self
    }

    /// Overrides the published diameter value (it is still validated to be
    /// large enough). Useful for testing looser timelocks.
    pub fn diameter(&mut self, diam: u64) -> &mut Self {
        self.diam_override = Some(diam);
        self
    }

    /// Assembles and validates the spec.
    ///
    /// # Errors
    ///
    /// See [`BuildError`]; notably, every vertex needs an identity, every
    /// identity a vertex, and the final spec must pass
    /// [`SwapSpec::validate`].
    pub fn build(&self) -> Result<SwapSpec, BuildError> {
        if let Some(v) = self.unknown_vertex {
            return Err(BuildError::UnknownVertex(v));
        }
        let n = self.digraph.vertex_count();
        let mut keys = Vec::with_capacity(n);
        let mut addresses: Vec<Address> = Vec::with_capacity(n);
        let mut hashlocks_by_vertex = Vec::with_capacity(n);
        for (i, slot) in self.identities.iter().enumerate() {
            let (key, hashlock) =
                slot.as_ref().ok_or(BuildError::MissingIdentity(VertexId::new(i as u32)))?;
            keys.push(*key);
            addresses.push(key.address());
            hashlocks_by_vertex.push(*hashlock);
        }
        let leaders = match &self.leaders {
            Some(ls) => {
                let mut ls = ls.clone();
                ls.sort();
                ls.dedup();
                ls
            }
            None => FeedbackVertexSet::minimum(&self.digraph)
                .ok_or(BuildError::LeaderSearchExceeded)?
                .into_vertices()
                .into_iter()
                .collect(),
        };
        let hashlocks = leaders
            .iter()
            .map(|&l| {
                hashlocks_by_vertex
                    .get(l.index())
                    .copied()
                    .ok_or(BuildError::Spec(SpecError::UnknownLeaderVertex(l)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let diam = self.diam_override.unwrap_or_else(|| {
            if n <= EXACT_DIAMETER_LIMIT {
                self.digraph.diameter() as u64
            } else {
                self.digraph.diameter_upper_bound() as u64
            }
        });
        let spec = SwapSpec {
            digraph: self.digraph.clone(),
            leaders,
            hashlocks,
            addresses,
            keys,
            start: self.start,
            delta: self.delta,
            diam,
            broadcast_arcs: self.broadcast_arcs,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_crypto::{MssKeypair, Secret};
    use swap_digraph::generators;

    fn builder_for(d: Digraph) -> SpecBuilder {
        let mut b = SpecBuilder::new(d.clone());
        for (i, v) in d.vertices().enumerate() {
            let kp = MssKeypair::from_seed_with_height([i as u8 + 1; 32], 2);
            let secret = Secret::from_bytes([i as u8 + 50; 32]);
            b.identity(v, kp.public_key(), secret.hashlock());
        }
        b
    }

    #[test]
    fn builds_minimum_leader_spec() {
        let spec = builder_for(generators::herlihy_three_party()).build().unwrap();
        assert_eq!(spec.leaders.len(), 1);
        assert_eq!(spec.hashlocks.len(), 1);
        assert_eq!(spec.diam, 3);
        spec.validate().unwrap();
    }

    #[test]
    fn two_leader_triangle_gets_two_leaders() {
        let spec = builder_for(generators::two_leader_triangle()).build().unwrap();
        assert_eq!(spec.leaders.len(), 2);
    }

    fn greedy_leaders(d: &Digraph) -> Vec<VertexId> {
        FeedbackVertexSet::greedy(d).into_vertices().into_iter().collect()
    }

    #[test]
    fn greedy_leaders_also_valid() {
        let d = generators::complete(5);
        let mut b = builder_for(d.clone());
        b.leaders(greedy_leaders(&d));
        let spec = b.build().unwrap();
        spec.validate().unwrap();
        assert!(spec.leaders.len() >= 4);
    }

    #[test]
    fn explicit_leaders_validated() {
        let d = generators::two_leader_triangle();
        let mut b = builder_for(d);
        // One vertex is not an FVS here.
        b.leaders(vec![VertexId::new(0)]);
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildError::Spec(SpecError::LeadersNotFeedbackVertexSet));
    }

    #[test]
    fn explicit_leaders_deduplicated() {
        let d = generators::herlihy_three_party();
        let mut b = builder_for(d);
        b.leaders(vec![VertexId::new(0), VertexId::new(0)]);
        let spec = b.build().unwrap();
        assert_eq!(spec.leaders, vec![VertexId::new(0)]);
    }

    #[test]
    fn missing_identity_reported() {
        let d = generators::herlihy_three_party();
        let mut b = SpecBuilder::new(d.clone());
        let kp = MssKeypair::from_seed_with_height([1u8; 32], 2);
        b.identity(VertexId::new(0), kp.public_key(), Secret::from_bytes([1u8; 32]).hashlock());
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildError::MissingIdentity(VertexId::new(1)));
        assert!(err.to_string().contains("identity"));
    }

    #[test]
    fn diameter_override_respected_and_validated() {
        let mut b = builder_for(generators::herlihy_three_party());
        b.diameter(50);
        assert_eq!(b.build().unwrap().diam, 50);
        let mut b2 = builder_for(generators::herlihy_three_party());
        b2.diameter(1); // below true diameter 3
        assert!(matches!(
            b2.build().unwrap_err(),
            BuildError::Spec(SpecError::DiameterTooSmall { .. })
        ));
    }

    #[test]
    fn custom_delta_and_start() {
        let mut b = builder_for(generators::herlihy_three_party());
        b.delta(Delta::from_ticks(7)).start(SimTime::from_ticks(21));
        let spec = b.build().unwrap();
        assert_eq!(spec.delta.ticks(), 7);
        assert_eq!(spec.start, SimTime::from_ticks(21));
    }

    #[test]
    fn large_graph_uses_upper_bound_diameter() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let d = generators::random_strongly_connected(20, 0.1, &mut rng);
        let mut b = builder_for(d.clone());
        b.leaders(greedy_leaders(&d));
        let spec = b.build().unwrap();
        assert_eq!(spec.diam, 20);
        spec.validate().unwrap();
    }

    #[test]
    fn identity_for_unknown_vertex_is_a_build_error() {
        // Every real vertex is covered, so the out-of-range registration is
        // the only thing wrong — and the first one is the one reported.
        let mut b = builder_for(generators::herlihy_three_party());
        let kp = MssKeypair::from_seed_with_height([1u8; 32], 2);
        let hashlock = Secret::from_bytes([1u8; 32]).hashlock();
        b.identity(VertexId::new(9), kp.public_key(), hashlock);
        b.identity(VertexId::new(12), kp.public_key(), hashlock);
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildError::UnknownVertex(VertexId::new(9)));
        assert!(err.to_string().contains("unknown vertex"));
    }
}
