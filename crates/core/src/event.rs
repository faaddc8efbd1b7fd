//! What a swap did, in types: the engine's execution trace.
//!
//! Everything a party can do to a swap is a short, closed list in the
//! paper, and the engine records each as one [`SwapEvent`] — an instant,
//! an [`Actor`] and a [`What`]:
//!
//! | [`What`]         | paper                                          | [`kind`](What::kind)    |
//! |------------------|------------------------------------------------|-------------------------|
//! | `Published`      | §4.5 Phase One: publish the contract on an arc | `contract.published`    |
//! | `Unlocked`       | §4.5 Phase Two: unlock with hashkey `(s, p, σ)`| `hashlock.unlocked`     |
//! | `Claimed`        | §4.5: claim a fully unlocked arc               | `arc.claimed`           |
//! | `Refunded`       | §4.5 / §4.6: refund after expiry               | `arc.refunded`          |
//! | `Revealed`       | §4.6: present the secret to an HTLC            | `secret.revealed`       |
//! | `Triggered`      | §3: the arc's transfer irrevocably happened    | `arc.triggered`         |
//! | `DirectTransfer` | Lemma 3.4: a coalition bypasses the contracts  | `asset.direct_transfer` |
//! | `Announced`      | §4.5 broadcast (or a premature leak)           | `secret.announced`      |
//! | `Rejected`       | a call a chain or contract refused             | `tx.rejected`           |
//!
//! **Ids in, strings only at render.** The engine pushes vertex and arc
//! ids; nothing on the accepted-call path allocates per event. Text exists
//! only when somebody asks for it: [`What::kind`] and [`What`]'s `Display`
//! give the machine-friendly category and the human-friendly detail, and
//! [`Trace::render`] adds the actor's name (the trace carries the party
//! names, O(parties) per run, so a report outlives its spec). The rendered
//! forms are those `tests/golden/*.txt` were recorded with.

use std::fmt;

use swap_chain::TxError;
use swap_contract::AnyError;
use swap_digraph::{ArcId, Digraph, VertexId};
use swap_sim::SimTime;

/// Who did it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actor {
    /// A party of the swap.
    Party(VertexId),
    /// The simulation itself (round bookkeeping); renders as `sim`.
    Sim,
}

/// The call a [`What::Rejected`] event refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// Publishing the arc's contract.
    Publish,
    /// Unlocking hashlock `index`.
    Unlock {
        /// Hashlock index.
        index: usize,
    },
    /// Claiming the arc.
    Claim,
    /// Refunding the arc.
    Refund,
    /// Revealing the secret to the arc's HTLC.
    Reveal,
    /// Transferring the arc's asset directly.
    Direct,
}

/// Why a call was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The chain or the contract rejected the transaction.
    Tx(TxError<AnyError>),
    /// A publish on an arc that already has a contract.
    AlreadyPublished,
    /// A contract call on an arc that has no contract (yet).
    NoContract,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::Tx(e) => write!(f, "{e}"),
            Refusal::AlreadyPublished => f.write_str("arc already has a contract"),
            Refusal::NoContract => f.write_str("arc has no contract"),
        }
    }
}

/// What happened. `Display` renders the human-friendly detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum What {
    /// A contract was published.
    Published {
        /// The arc it escrows.
        arc: ArcId,
        /// The protocol round it was published in.
        round: u64,
    },
    /// A hashkey unlocked one hashlock of an arc's contract.
    Unlocked {
        /// The arc.
        arc: ArcId,
        /// Hashlock index.
        index: usize,
        /// Arcs in the hashkey's path.
        path_len: usize,
    },
    /// The counterparty claimed the arc's asset.
    Claimed {
        /// The arc.
        arc: ArcId,
    },
    /// The party took the arc's asset back.
    Refunded {
        /// The arc.
        arc: ArcId,
    },
    /// The secret was presented to the arc's HTLC.
    Revealed {
        /// The arc.
        arc: ArcId,
    },
    /// The arc's transfer irrevocably happened.
    Triggered {
        /// The arc.
        arc: ArcId,
    },
    /// The arc's asset moved to the counterparty without a contract.
    DirectTransfer {
        /// The arc.
        arc: ArcId,
    },
    /// A leader's secret appeared on the bulletin.
    Announced {
        /// Leader index of the secret.
        leader_index: usize,
    },
    /// A call was refused; nothing changed on any chain.
    Rejected {
        /// What was tried.
        attempt: Attempt,
        /// On which arc.
        arc: ArcId,
        /// Why it was refused.
        why: Refusal,
    },
}

impl What {
    /// The machine-friendly category, e.g. `contract.published`.
    pub fn kind(&self) -> &'static str {
        match self {
            What::Published { .. } => "contract.published",
            What::Unlocked { .. } => "hashlock.unlocked",
            What::Claimed { .. } => "arc.claimed",
            What::Refunded { .. } => "arc.refunded",
            What::Revealed { .. } => "secret.revealed",
            What::Triggered { .. } => "arc.triggered",
            What::DirectTransfer { .. } => "asset.direct_transfer",
            What::Announced { .. } => "secret.announced",
            What::Rejected { .. } => "tx.rejected",
        }
    }
}

impl fmt::Display for What {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            What::Published { arc, round } => write!(f, "arc {arc} round {round}"),
            What::Unlocked { arc, index, path_len } => {
                write!(f, "arc {arc} index {index} path_len {path_len}")
            }
            What::Claimed { arc }
            | What::Refunded { arc }
            | What::Revealed { arc }
            | What::Triggered { arc }
            | What::DirectTransfer { arc } => write!(f, "arc {arc}"),
            What::Announced { leader_index } => write!(f, "leader index {leader_index}"),
            What::Rejected { attempt, arc, why } => {
                match attempt {
                    Attempt::Publish => write!(f, "publish {arc}"),
                    Attempt::Unlock { index } => write!(f, "unlock {arc}[{index}]"),
                    Attempt::Claim => write!(f, "claim {arc}"),
                    Attempt::Refund => write!(f, "refund {arc}"),
                    Attempt::Reveal => write!(f, "reveal {arc}"),
                    Attempt::Direct => write!(f, "direct {arc}"),
                }?;
                write!(f, ": {why}")
            }
        }
    }
}

/// One timestamped thing a swap did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapEvent {
    /// When it happened.
    pub time: SimTime,
    /// Who did it.
    pub actor: Actor,
    /// What happened.
    pub what: What,
}

/// One run's events in the order they happened, plus the party names that
/// rendering them needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    names: Vec<String>,
    events: Vec<SwapEvent>,
}

impl Trace {
    /// An empty trace over `digraph`'s parties, with room for `capacity`
    /// events.
    pub(crate) fn new(digraph: &Digraph, capacity: usize) -> Trace {
        let names = digraph.vertices().map(|v| digraph.name(v).to_string()).collect();
        Trace { names, events: Vec::with_capacity(capacity) }
    }

    pub(crate) fn push(&mut self, time: SimTime, actor: Actor, what: What) {
        self.events.push(SwapEvent { time, actor, what });
    }

    /// The events, in the order they happened.
    pub fn events(&self) -> &[SwapEvent] {
        &self.events
    }

    /// The ticks of the events `is` picks.
    #[cfg(test)]
    pub(crate) fn ticks_of(&self, is: fn(&What) -> bool) -> Vec<u64> {
        self.events.iter().filter(|e| is(&e.what)).map(|e| e.time.ticks()).collect()
    }

    /// `event` as text: `Display` is the timeline line
    /// `[t=5] alice contract.published: arc a0 round 0`, `Debug` the record
    /// form the golden fingerprints were written in.
    ///
    /// # Panics
    ///
    /// Panics if `event` is another swap's and names a party this one does
    /// not have.
    pub fn render<'a>(&'a self, event: &'a SwapEvent) -> impl fmt::Display + fmt::Debug + 'a {
        let actor = match event.actor {
            Actor::Party(v) => self.names[v.index()].as_str(),
            Actor::Sim => "sim",
        };
        Rendered { actor, event }
    }
}

struct Rendered<'a> {
    actor: &'a str,
    event: &'a SwapEvent,
}

impl fmt::Display for Rendered<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SwapEvent { time, what, .. } = self.event;
        write!(f, "[{time}] {} {}: {what}", self.actor, what.kind())
    }
}

impl fmt::Debug for Rendered<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceEntry")
            .field("time", &self.event.time)
            .field("actor", &self.actor)
            .field("kind", &self.event.what.kind())
            .field("detail", &self.event.what.to_string())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_chain::asset::AssetError;
    use swap_chain::{AssetId, ContractId, Owner};
    use swap_contract::{HtlcError, SwapError};
    use swap_digraph::generators;

    /// Every variant against the literal strings the engine used to format.
    #[test]
    fn every_variant_renders_its_legacy_kind_and_detail() {
        let arc = ArcId::new(2);
        let rejected = |attempt, why| What::Rejected { attempt, arc, why };
        let contract = |e| Refusal::Tx(TxError::Contract(e));
        let not_owner = AssetError::NotOwner {
            asset: AssetId::new(0),
            actual: Owner::Escrow(ContractId::new(0)),
        };
        let table = [
            (What::Published { arc, round: 3 }, "contract.published", "arc a2 round 3"),
            (
                What::Unlocked { arc, index: 1, path_len: 4 },
                "hashlock.unlocked",
                "arc a2 index 1 path_len 4",
            ),
            (What::Claimed { arc }, "arc.claimed", "arc a2"),
            (What::Refunded { arc }, "arc.refunded", "arc a2"),
            (What::Revealed { arc }, "secret.revealed", "arc a2"),
            (What::Triggered { arc }, "arc.triggered", "arc a2"),
            (What::DirectTransfer { arc }, "asset.direct_transfer", "arc a2"),
            (What::Announced { leader_index: 1 }, "secret.announced", "leader index 1"),
            (
                rejected(Attempt::Publish, contract(AnyError::Swap(SwapError::PublisherNotOwner))),
                "tx.rejected",
                "publish a2: contract rejected: publisher does not own the asset",
            ),
            (
                rejected(
                    Attempt::Unlock { index: 0 },
                    contract(AnyError::Swap(SwapError::WrongSecret)),
                ),
                "tx.rejected",
                "unlock a2[0]: contract rejected: secret does not match hashlock",
            ),
            (
                rejected(
                    Attempt::Claim,
                    contract(AnyError::Swap(SwapError::NotAllUnlocked { unlocked: 0, total: 1 })),
                ),
                "tx.rejected",
                "claim a2: contract rejected: only 0/1 hashlocks unlocked",
            ),
            (
                rejected(
                    Attempt::Refund,
                    Refusal::Tx(TxError::ContractTerminated(ContractId::new(7))),
                ),
                "tx.rejected",
                "refund a2: contract7 has terminated",
            ),
            (
                rejected(Attempt::Reveal, contract(AnyError::Htlc(HtlcError::NotCounterparty))),
                "tx.rejected",
                "reveal a2: contract rejected: caller is not the counterparty",
            ),
            (
                rejected(Attempt::Direct, Refusal::Tx(TxError::Asset(not_owner))),
                "tx.rejected",
                "direct a2: asset error: asset0 is owned by escrow:contract0, not the caller",
            ),
            (
                rejected(Attempt::Publish, Refusal::AlreadyPublished),
                "tx.rejected",
                "publish a2: arc already has a contract",
            ),
            (
                rejected(Attempt::Claim, Refusal::NoContract),
                "tx.rejected",
                "claim a2: arc has no contract",
            ),
        ];
        for (what, kind, detail) in table {
            assert_eq!(what.kind(), kind);
            assert_eq!(what.to_string(), detail);
        }
    }

    /// The timeline form; the record form (`Debug`) is pinned by every
    /// `trace:` line of `tests/golden/*.txt`.
    #[test]
    fn render_names_the_actor() {
        let digraph = generators::herlihy_three_party();
        let mut trace = Trace::new(&digraph, 2);
        let bob = digraph.vertex_by_name("bob").unwrap();
        let arc = ArcId::new(1);
        trace.push(SimTime::from_ticks(15), Actor::Party(bob), What::Published { arc, round: 1 });
        trace.push(SimTime::from_ticks(45), Actor::Sim, What::Triggered { arc });
        let lines: Vec<String> =
            trace.events().iter().map(|e| trace.render(e).to_string()).collect();
        assert_eq!(
            lines,
            ["[t=15] bob contract.published: arc a1 round 1", "[t=45] sim arc.triggered: arc a1"]
        );
    }
}
