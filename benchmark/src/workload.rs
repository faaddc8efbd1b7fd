//! The five workloads: seed-derived inputs, the closed-loop drivers, and the
//! per-repetition correctness checks.
//!
//! Every loop is *closed*: a client has at most one open offer and submits
//! its next one only after the previous resolved. A repetition is one
//! simulated world — a fresh [`Exchange`] fed the same inputs — so every
//! repetition of a run must produce the identical [`ExchangeReport`].

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use swap_core::exchange::{
    EpochStage, Exchange, ExchangeConfig, ExchangeParty, ExchangeReport, JournalConfig, PartySeed,
    ProtocolPolicy, RecoveryStats, StageCosts, StepEvent,
};
use swap_core::{Behavior, RunConfig};
use swap_crypto::{Address, MssKeypair, Secret};
use swap_digraph::VertexId;
use swap_market::{AssetKind, ClearStats, OfferId, OfferStatus};
use swap_sim::SimRng;

use crate::span::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FreshRings,
    ResidentHtlc,
    ResidentHashkey,
    AdversarialRings,
    DurableDeepBook,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FreshRings,
        Workload::ResidentHtlc,
        Workload::ResidentHashkey,
        Workload::AdversarialRings,
        Workload::DurableDeepBook,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshRings => "fresh_rings",
            Workload::ResidentHtlc => "resident_htlc",
            Workload::ResidentHashkey => "resident_hashkey",
            Workload::AdversarialRings => "adversarial_rings",
            Workload::DurableDeepBook => "durable_deep_book",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn resident(self) -> bool {
        self != Workload::FreshRings
    }
}

// Shapes. Fixed on every commit; sized so one repetition is short next to
// `--seconds` and every run gathers well over 1000 latency samples.

/// Rings per cohort (resident) or per wave (fresh); lengths cycle 2, 3, 4.
pub const RINGS: usize = 8;

/// The size of a resident workload's client side.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Cohorts of [`RINGS`] rings; cohort `c` first submits when an epoch
    /// enters `Executing` after cohort `c - 1` was injected.
    pub cohorts: usize,
    /// Offers each client submits per repetition, 2 one-time leaves each.
    pub rounds: usize,
    /// Height of the clients' identities: `2^height` leaves.
    pub height: u32,
}

impl Shape {
    /// What the four resident workloads run: 92 clients, 60 of each
    /// height-6 identity's 64 leaves per repetition.
    pub const FULL: Shape = Shape { cohorts: 4, rounds: 30, height: 6 };
}

/// Waves per `fresh_rings` repetition; the next wave is injected on each
/// `StageEntered{Executing}`.
pub const WAVES: usize = 6;
pub const FRESH_HEIGHT: u32 = 5;
/// `durable_deep_book`: resting unmatched offers preloaded before the
/// window, from [`MAKERS`] height-2 identities.
pub const RESTING: usize = 20_000;
pub const MAKERS: usize = 16;
pub const MAKER_HEIGHT: u32 = 2;
/// Resting offers the makers cancel and re-post after each settled epoch.
pub const CHURN: usize = 8;
pub const GROUP_COMMIT: usize = 64;
pub const SNAPSHOT_EVERY: u64 = 8;
/// `durable_deep_book`: after this many rounds every client holds its next
/// offer until the pipeline has drained, then the cohorts come back as they
/// first came. The exchange snapshots only at a pipeline-empty instant, and
/// an unbroken closed loop never offers one; traffic that pauses does.
/// Divides [`Shape::FULL`]'s rounds.
pub const LULL_EVERY: usize = 10;

/// Worker threads the exchange's pool gets: `min(2, nproc)`.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

pub fn exchange_config(workload: Workload, threads: usize) -> ExchangeConfig {
    let mut run = RunConfig::default();
    if workload == Workload::AdversarialRings {
        // Only 4-rings have a vertex 3: they time out and refund, while
        // 2- and 3-rings settle.
        run.behaviors.insert(VertexId::new(3), Behavior::Halt { at_round: 1 });
    }
    ExchangeConfig {
        threads,
        executing_slots: 4,
        stage_costs: StageCosts {
            clearing_base: 2,
            provisioning_base: 2,
            settling_base: 2,
            ..StageCosts::default()
        },
        protocol: if workload == Workload::ResidentHashkey {
            ProtocolPolicy::ForceHashkey
        } else {
            ProtocolPolicy::Auto
        },
        run,
        ..ExchangeConfig::default()
    }
}

/// Operations attempted and failed, across calls and checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the printed report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// One ring of a trade cycle: position `p` gives `kinds[p]` and wants
/// `kinds[(p + 1) % len]`.
#[derive(Debug, Clone)]
struct Ring {
    /// Indices into the client (or wave-seed) list, in cycle order.
    members: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Client {
    keypair: MssKeypair,
    address: Address,
    gives: AssetKind,
    wants: AssetKind,
}

#[derive(Debug, Clone)]
struct Maker {
    keypair: MssKeypair,
    address: Address,
}

/// Everything a run's repetitions share, generated from `--seed` alone.
#[derive(Debug)]
pub struct Inputs {
    workload: Workload,
    shape: Shape,
    pub seed: u64,
    /// Resident clients with minted identities (empty for `fresh_rings`).
    clients: Vec<Client>,
    /// Resident rings, cohort-major.
    rings: Vec<Ring>,
    /// `fresh_rings`: the parties of each wave and their ring layout.
    waves: Vec<(Vec<PartySeed>, Vec<Ring>)>,
    makers: Vec<Maker>,
    /// Prefix of the resting book's kind names.
    dust_tag: String,
    pub identities_minted: usize,
}

fn ring_len(offset: usize, r: usize) -> usize {
    2 + (offset + r) % 3
}

/// Kind names of one ring; the tag comes from the seed so the program never
/// sees the same strings on two seeds.
fn ring_kinds(tag: &str, group: usize, r: usize, len: usize) -> Vec<AssetKind> {
    (0..len).map(|p| AssetKind::new(format!("{tag}g{group}r{r}k{p}"))).collect()
}

/// Mints `specs` on `threads` host threads, in input order.
pub fn mint(specs: &[([u8; 32], u32)], threads: usize) -> Vec<MssKeypair> {
    let threads = threads.max(1);
    let mut out: Vec<Option<MssKeypair>> = vec![None; specs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    specs
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(i, &(seed, height))| {
                            (i, MssKeypair::from_seed_with_height(seed, height))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, keypair) in handle.join().expect("minting does not panic") {
                out[i] = Some(keypair);
            }
        }
    });
    out.into_iter().map(|k| k.expect("every index minted")).collect()
}

impl Inputs {
    /// Generates the workload's inputs; resident identities (and the
    /// makers') are minted here, outside every timed window.
    pub fn generate(workload: Workload, shape: Shape, seed: u64, threads: usize) -> Inputs {
        let mut rng = SimRng::from_seed(seed);
        let tag = format!("{:08x}", rng.below(1 << 32));
        let mut inputs = Inputs {
            workload,
            shape,
            seed,
            clients: Vec::new(),
            rings: Vec::new(),
            waves: Vec::new(),
            makers: Vec::new(),
            dust_tag: format!("{tag}dust"),
            identities_minted: 0,
        };
        if !workload.resident() {
            for w in 0..WAVES {
                let mut seeds = Vec::new();
                let mut rings = Vec::new();
                for r in 0..RINGS {
                    let kinds = ring_kinds(&tag, w, r, ring_len(w, r));
                    let first = seeds.len();
                    for p in 0..kinds.len() {
                        seeds.push(PartySeed {
                            seed: rng.bytes32(),
                            key_height: FRESH_HEIGHT,
                            secret: Secret::from_bytes(rng.bytes32()),
                            gives: kinds[p].clone(),
                            wants: kinds[(p + 1) % kinds.len()].clone(),
                        });
                    }
                    rings.push(Ring { members: (first..seeds.len()).collect() });
                }
                inputs.waves.push((seeds, rings));
            }
            return inputs;
        }
        let mut terms = Vec::new();
        let mut specs = Vec::new();
        for c in 0..shape.cohorts {
            for r in 0..RINGS {
                let kinds = ring_kinds(&tag, c, r, ring_len(0, r));
                let first = terms.len();
                for p in 0..kinds.len() {
                    terms.push((kinds[p].clone(), kinds[(p + 1) % kinds.len()].clone()));
                    specs.push((rng.bytes32(), shape.height));
                }
                inputs.rings.push(Ring { members: (first..terms.len()).collect() });
            }
        }
        if workload == Workload::DurableDeepBook {
            specs.extend((0..MAKERS).map(|_| (rng.bytes32(), MAKER_HEIGHT)));
        }
        inputs.identities_minted = specs.len();
        let mut minted = mint(&specs, threads).into_iter();
        for (gives, wants) in terms {
            let keypair = minted.next().expect("one keypair per client");
            let address = keypair.public_key().address();
            inputs.clients.push(Client { keypair, address, gives, wants });
        }
        inputs.makers = minted
            .map(|keypair| Maker { address: keypair.public_key().address(), keypair })
            .collect();
        inputs
    }

    pub fn maker_addresses(&self) -> Vec<Address> {
        self.makers.iter().map(|m| m.address).collect()
    }

    /// Offers the clients submit per repetition (the makers' not counted).
    pub fn client_offers(&self) -> usize {
        if self.workload.resident() {
            self.clients.len() * self.shape.rounds
        } else {
            self.waves.iter().map(|(seeds, _)| seeds.len()).sum()
        }
    }

    /// `(settled, refunded)` swaps every repetition must end with.
    pub fn expected_swaps(&self) -> (u64, u64) {
        if !self.workload.resident() {
            return ((WAVES * RINGS) as u64, 0);
        }
        let refunding =
            self.rings.iter().filter(|r| self.refunds(r.members.len())).count() * self.shape.rounds;
        let total = self.rings.len() * self.shape.rounds;
        ((total - refunding) as u64, refunding as u64)
    }

    fn refunds(&self, ring_len: usize) -> bool {
        self.workload == Workload::AdversarialRings && ring_len == 4
    }

    /// Rounds a client submits back to back before it waits for a lull
    /// (all of them, except on `durable_deep_book`).
    fn rounds_between_lulls(&self) -> usize {
        if self.workload == Workload::DurableDeepBook {
            LULL_EVERY
        } else {
            self.shape.rounds
        }
    }
}

/// A ring whose offers are in the book or in flight.
#[derive(Debug)]
struct OpenRing {
    ring: usize,
    /// Each member's open offer and the instant its submit call began.
    offers: Vec<(OfferId, u64)>,
    rounds_left: usize,
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Repetition {
    pub window_ns: u64,
    pub swaps: u64,
    /// Submit-call start → return of the resolving `step`, per client offer.
    pub latencies_ns: Vec<u64>,
    pub report: ExchangeReport,
    /// `durable_deep_book`: the timed `Exchange::recover`.
    pub recovery: Option<(u64, RecoveryStats)>,
    /// Per-epoch clearing stats (traced runs only).
    pub clear_stats: Vec<ClearStats>,
    pub ledger_chains: usize,
    /// How long the final ledger's integrity check took (outside the window).
    pub verify_integrity_ns: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
}

/// The exchange plus the bookkeeping every call into it goes through: one
/// span per call, one tally entry per operation.
struct Driver<'a> {
    ex: Exchange,
    rec: &'a mut Recorder,
    tally: &'a mut Tally,
}

impl Driver<'_> {
    fn submit(&mut self, party: ExchangeParty) -> (OfferId, u64) {
        let t0 = self.rec.now();
        let id = self.ex.submit(party);
        self.rec.leaf("submit", t0, self.rec.now());
        self.tally.attempted += 1;
        (id, t0)
    }

    fn resubmit(
        &mut self,
        address: Address,
        secret: Secret,
        gives: AssetKind,
        wants: AssetKind,
    ) -> Option<(OfferId, u64)> {
        let t0 = self.rec.now();
        let id = self.ex.resubmit(address, secret, gives, wants);
        self.rec.leaf("resubmit", t0, self.rec.now());
        self.tally.check(id.is_some(), || format!("resubmit refused for {address}"));
        id.map(|id| (id, t0))
    }

    fn submit_seeded(&mut self, seeds: Vec<PartySeed>) -> (Vec<(OfferId, Address)>, u64) {
        let t0 = self.rec.now();
        self.tally.attempted += seeds.len() as u64;
        let ids = self.ex.submit_seeded(seeds);
        self.rec.leaf("submit_seeded", t0, self.rec.now());
        (ids, t0)
    }

    fn cancel(&mut self, id: OfferId) {
        let t0 = self.rec.now();
        let result = self.ex.cancel(id);
        self.rec.leaf("cancel", t0, self.rec.now());
        self.tally.check(result.is_ok(), || format!("cancel of {id} failed: {result:?}"));
    }

    /// One `step`, summarised. The second value is the instant `step`
    /// returned (what latency is measured to); the span runs on until the
    /// returned event has been dropped, because `EpochSettled` carries
    /// every swap's full `RunReport` and freeing it is a cost the call
    /// imposes on whoever makes it. A failed step is tallied and the
    /// pipeline keeps driving.
    fn step(&mut self) -> (Stepped, u64) {
        let t0 = self.rec.now();
        let result = self.ex.step();
        let t1 = self.rec.now();
        let (stepped, name) = match &result {
            Ok(StepEvent::StageEntered { stage, .. }) => (
                Stepped::Entered(*stage),
                match stage {
                    EpochStage::Clearing => "step.admit",
                    EpochStage::Provisioning => "step.provision",
                    EpochStage::Executing => "step.enqueue",
                    EpochStage::Settling => "step.await",
                },
            ),
            Ok(StepEvent::EpochSettled { executed, .. }) => {
                (Stepped::Settled { swaps: executed.len() }, "step.retire")
            }
            Ok(StepEvent::Quiescent) => (Stepped::Quiescent, "step.idle"),
            Err(_) => (Stepped::Failed, "step.error"),
        };
        self.tally.check(result.is_ok(), || format!("step failed: {result:?}"));
        drop(result);
        self.rec.leaf(name, t0, self.rec.now());
        (stepped, t1)
    }
}

/// What one `step` did, without the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stepped {
    Entered(EpochStage),
    Settled { swaps: usize },
    Quiescent,
    Failed,
}

/// Steps more than this many times without the loop ending mean the
/// pipeline is wedged; the repetition is abandoned and counted as failed.
const STEP_CAP: u64 = 10_000_000;

/// Where a [`Session::drive`] call stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Until {
    /// The pipeline ran dry: every offer resolved.
    Quiescent,
    /// Every client has submitted its last offer; the final round is still
    /// in the book or in flight. `durable_deep_book` "crashes" here, so
    /// recovery has a log tail with in-flight epochs to replay.
    LastOffersIn,
}

/// The closed loop's client-side state, which outlives the exchange it
/// drives (the durable workload swaps in the recovered exchange mid-way).
struct Session<'i> {
    inputs: &'i Inputs,
    secrets: SimRng,
    /// Per client, the offers it will submit this repetition, last round
    /// first — built before the window so the loop only pops.
    terms: Vec<Vec<(Secret, AssetKind, AssetKind)>>,
    open: Vec<OpenRing>,
    /// Resolved client offers and whether each was expected to refund.
    resolved: Vec<(OfferId, bool)>,
    latencies_ns: Vec<u64>,
    clear_stats: Vec<ClearStats>,
    next_group: usize,
    /// Lulls still to come (see [`LULL_EVERY`]).
    lulls_left: usize,
    resting: VecDeque<OfferId>,
    cancelled: Vec<OfferId>,
    /// Resting offers posted so far (names the next one).
    dust: usize,
}

impl<'i> Session<'i> {
    fn new(inputs: &'i Inputs) -> Session<'i> {
        let mut secrets = SimRng::from_seed(inputs.seed).stream("secrets");
        let terms = inputs
            .clients
            .iter()
            .map(|client| {
                (0..inputs.shape.rounds)
                    .map(|_| {
                        let secret = Secret::from_bytes(secrets.bytes32());
                        (secret, client.gives.clone(), client.wants.clone())
                    })
                    .collect()
            })
            .collect();
        Session {
            inputs,
            secrets,
            terms,
            open: Vec::new(),
            resolved: Vec::with_capacity(inputs.client_offers()),
            latencies_ns: Vec::with_capacity(inputs.client_offers()),
            clear_stats: Vec::new(),
            next_group: 0,
            lulls_left: inputs.shape.rounds / inputs.rounds_between_lulls() - 1,
            resting: VecDeque::new(),
            cancelled: Vec::new(),
            dust: 0,
        }
    }

    /// A fresh exchange for one repetition; the durable workload's is
    /// journaled into `store` and preloaded.
    fn open_exchange(&mut self, threads: usize, store: &Path, tally: &mut Tally) -> Exchange {
        let config = exchange_config(self.inputs.workload, threads);
        if self.inputs.workload != Workload::DurableDeepBook {
            return Exchange::new(config);
        }
        let mut ex =
            Exchange::with_journal(config, journal_config(store)).expect("journal store opens");
        self.preload(&mut ex, tally);
        ex
    }

    fn groups(&self) -> usize {
        if self.inputs.workload.resident() {
            self.inputs.shape.cohorts
        } else {
            WAVES
        }
    }

    /// Steps the exchange, reacting to what each step returns, until the
    /// stop condition. Latencies are recorded only while `timed`.
    fn drive(&mut self, d: &mut Driver<'_>, until: Until, timed: bool) {
        let durable = self.inputs.workload == Workload::DurableDeepBook;
        let tracing = d.rec.enabled();
        for _ in 0..STEP_CAP {
            let (stepped, t1) = d.step();
            match stepped {
                Stepped::Entered(EpochStage::Clearing) if tracing => {
                    self.clear_stats.extend(d.ex.service().last_clear_stats());
                }
                Stepped::Entered(EpochStage::Executing) if self.next_group < self.groups() => {
                    self.inject(d);
                }
                Stepped::Settled { swaps } if swaps > 0 => {
                    let (done, open): (Vec<OpenRing>, Vec<OpenRing>) =
                        std::mem::take(&mut self.open).into_iter().partition(|ring| {
                            matches!(
                                d.ex.service().status(ring.offers[0].0),
                                Some(OfferStatus::Settled | OfferStatus::Refunded)
                            )
                        });
                    self.open = open;
                    d.tally.check(done.len() == swaps, || {
                        format!("{swaps} swaps retired but {} rings resolved", done.len())
                    });
                    let wave = d.rec.now();
                    d.rec.enter("wave", wave);
                    for ring in done {
                        let refunds = self.inputs.refunds(ring.offers.len());
                        for &(id, t0) in &ring.offers {
                            if timed {
                                self.latencies_ns.push(t1 - t0);
                            }
                            self.resolved.push((id, refunds));
                        }
                        if ring.rounds_left > 0 {
                            let offers = self.submit_ring(d, ring.ring, true);
                            self.open.push(OpenRing {
                                offers,
                                rounds_left: ring.rounds_left - 1,
                                ..ring
                            });
                        }
                    }
                    if durable {
                        for _ in 0..CHURN {
                            let id =
                                self.resting.pop_front().expect("the resting book never drains");
                            d.cancel(id);
                            self.cancelled.push(id);
                            self.post_resting(d);
                        }
                    }
                    let end = d.rec.now();
                    d.rec.exit(end);
                    if until == Until::LastOffersIn
                        && self.lulls_left == 0
                        && self.next_group == self.groups()
                        && self.open.iter().all(|ring| ring.rounds_left == 0)
                    {
                        return;
                    }
                }
                Stepped::Quiescent if self.lulls_left > 0 => {
                    // The lull is over: the first cohort is back, the
                    // others follow as epochs enter `Executing`.
                    self.lulls_left -= 1;
                    self.next_group = 0;
                    self.inject(d);
                }
                Stepped::Quiescent => return,
                _ => {}
            }
        }
        d.tally.check(false, || "pipeline wedged: step cap reached".into());
    }

    /// Injects the next group: a resident cohort's first offers, or a
    /// fresh wave.
    fn inject(&mut self, d: &mut Driver<'_>) {
        let g = self.next_group;
        self.next_group += 1;
        let start = d.rec.now();
        d.rec.enter("wave", start);
        if self.inputs.workload.resident() {
            for ring in g * RINGS..(g + 1) * RINGS {
                // The durable book's preload registered every resident.
                let known = self.inputs.workload == Workload::DurableDeepBook;
                let offers = self.submit_ring(d, ring, known);
                let rounds_left = self.inputs.rounds_between_lulls() - 1;
                self.open.push(OpenRing { ring, offers, rounds_left });
            }
        } else {
            let (seeds, rings) = &self.inputs.waves[g];
            let (ids, t0) = d.submit_seeded(seeds.clone());
            for (r, ring) in rings.iter().enumerate() {
                let offers = ring.members.iter().map(|&m| (ids[m].0, t0)).collect();
                self.open.push(OpenRing { ring: g * RINGS + r, offers, rounds_left: 0 });
            }
        }
        let end = d.rec.now();
        d.rec.exit(end);
    }

    /// Every member of a resident ring submits its next offer: `submit`
    /// with a clone of its minted keypair the first time the exchange sees
    /// it, `resubmit` by address afterwards.
    fn submit_ring(&mut self, d: &mut Driver<'_>, ring: usize, known: bool) -> Vec<(OfferId, u64)> {
        let inputs = self.inputs;
        inputs.rings[ring]
            .members
            .iter()
            .filter_map(|&c| {
                let client = &inputs.clients[c];
                let (secret, gives, wants) = self.terms[c].pop().expect("a round's terms are left");
                if known {
                    d.resubmit(client.address, secret, gives, wants)
                } else {
                    let keypair = client.keypair.clone();
                    Some(d.submit(ExchangeParty { keypair, secret, gives, wants }))
                }
            })
            .collect()
    }

    /// Posts one never-matching offer from the next maker in turn.
    fn post_resting(&mut self, d: &mut Driver<'_>) {
        let maker = &self.inputs.makers[self.dust % self.inputs.makers.len()];
        let (gives, wants) = resting_terms(self.inputs, self.dust);
        self.dust += 1;
        let secret = Secret::from_bytes(self.secrets.bytes32());
        if let Some((id, _)) = d.resubmit(maker.address, secret, gives, wants) {
            self.resting.push_back(id);
        }
    }

    /// Fills the durable book before the window opens — so none of it is
    /// spanned or timed, and all of it counts toward `setup_s`: the resident
    /// identities register (one offer each, withdrawn at once), the makers
    /// post [`RESTING`] never-matching offers, the one empty epoch they
    /// cause retires, and a snapshot captures the lot, as it would on an
    /// exchange that had been up for a while.
    fn preload(&mut self, ex: &mut Exchange, tally: &mut Tally) {
        let inputs = self.inputs;
        for client in &inputs.clients {
            let id = ex.submit(ExchangeParty {
                keypair: client.keypair.clone(),
                secret: Secret::from_bytes(self.secrets.bytes32()),
                gives: client.gives.clone(),
                wants: client.wants.clone(),
            });
            let withdrawn = ex.cancel(id);
            tally.check(withdrawn.is_ok(), || format!("preload cancel failed: {withdrawn:?}"));
        }
        for n in 0..RESTING {
            let maker = &inputs.makers[n % inputs.makers.len()];
            let (gives, wants) = resting_terms(inputs, n);
            let secret = Secret::from_bytes(self.secrets.bytes32());
            let id = if n < inputs.makers.len() {
                let keypair = maker.keypair.clone();
                Some(ex.submit(ExchangeParty { keypair, secret, gives, wants }))
            } else {
                ex.resubmit(maker.address, secret, gives, wants)
            };
            tally.check(id.is_some(), || format!("preload offer {n} refused"));
            self.resting.extend(id);
        }
        self.dust = RESTING;
        let drained = ex.drive_until_quiescent();
        tally.check(matches!(&drained, Ok(swaps) if swaps.is_empty()), || {
            format!("the resting book matched or failed: {drained:?}")
        });
        let snapshot = ex.snapshot_now();
        tally.check(snapshot.is_ok(), || format!("preload snapshot failed: {snapshot:?}"));
    }
}

fn journal_config(store: &Path) -> JournalConfig {
    JournalConfig {
        dir: store.to_path_buf(),
        group_commit: GROUP_COMMIT,
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// The exchange as a repetition finds it when its window opens: new, and
/// on `durable_deep_book` journaled into `store`, 20 000 resting offers in
/// the book, snapshotted. Set-up ends here.
pub fn opened_exchange(
    inputs: &Inputs,
    threads: usize,
    store: &Path,
    tally: &mut Tally,
) -> Exchange {
    Session::new(inputs).open_exchange(threads, store, tally)
}

/// Runs one repetition of `inputs`' workload in a fresh exchange. `store`
/// is the journal directory (`durable_deep_book` only; emptied first).
pub fn run_repetition(
    inputs: &Inputs,
    threads: usize,
    store: &Path,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Repetition {
    let durable = inputs.workload == Workload::DurableDeepBook;
    let mut session = Session::new(inputs);
    let ex = session.open_exchange(threads, store, tally);

    let mut d = Driver { ex, rec, tally };
    let w0 = d.rec.now();
    d.rec.enter("repetition", w0);
    session.inject(&mut d);
    session.drive(&mut d, if durable { Until::LastOffersIn } else { Until::Quiescent }, true);
    if durable {
        let t0 = d.rec.now();
        let synced = d.ex.sync_journal();
        d.rec.leaf("sync", t0, d.rec.now());
        d.tally.check(synced.is_ok(), || format!("sync_journal failed: {synced:?}"));
    }
    let w1 = d.rec.now();
    d.rec.exit(w1);
    // The window is closed; recovery is timed on its own and the rest is
    // checking.
    let Driver { mut ex, rec, tally } = d;
    let swaps = ex.report().swaps_settled + ex.report().swaps_refunded;

    let mut recovery = None;
    let (mut wal_bytes, mut snapshot_bytes) = (0, 0);
    if durable {
        // The crash: the live exchange is dropped with its last round in
        // flight, and the store is all that is left.
        let at_crash = ex.report().clone();
        drop(ex);
        (wal_bytes, snapshot_bytes) = store_sizes(store);
        let t0 = rec.now();
        let recovered =
            Exchange::recover(exchange_config(inputs.workload, threads), journal_config(store));
        let t1 = rec.now();
        rec.leaf("recover", t0, t1);
        tally
            .check(recovered.is_ok(), || format!("recover failed: {:?}", recovered.as_ref().err()));
        let recovered = recovered.expect("a benchmark cannot go on without its exchange");
        tally.check(*recovered.exchange.report() == at_crash, || {
            "recovered report differs from the live one".into()
        });
        tally.check(!recovered.stats.torn_tail, || "recovered log had a torn tail".into());
        recovery = Some((t1 - t0, recovered.stats));
        // The recovered exchange takes over and finishes the last round,
        // untimed, so the final-state checks below cover it too.
        let mut unrecorded = Recorder::new(false);
        let mut d = Driver { ex: recovered.exchange, rec: &mut unrecorded, tally };
        session.drive(&mut d, Until::Quiescent, false);
        ex = d.ex;
    }

    let report = ex.report().clone();
    let (settled, refunded) = inputs.expected_swaps();
    tally.check(session.open.is_empty(), || format!("{} rings never resolved", session.open.len()));
    tally.check(report.swaps_settled == settled && report.swaps_refunded == refunded, || {
        format!(
            "settled/refunded {}/{}, expected {settled}/{refunded}",
            report.swaps_settled, report.swaps_refunded
        )
    });
    tally.check(report.swaps_exhausted == 0, || {
        format!("{} swaps hit key exhaustion", report.swaps_exhausted)
    });
    let book = ex.service();
    for &(id, refunds) in &session.resolved {
        let want = if refunds { OfferStatus::Refunded } else { OfferStatus::Settled };
        let got = book.status(id);
        tally.check(got == Some(want), || format!("offer {id} ended {got:?}, expected {want}"));
    }
    for &id in &session.cancelled {
        let got = book.status(id);
        tally.check(got == Some(OfferStatus::Cancelled), || {
            format!("cancelled offer {id} ended {got:?}")
        });
    }
    for &id in &session.resting {
        let got = book.status(id);
        tally.check(got == Some(OfferStatus::Open), || format!("resting offer {id} is {got:?}"));
    }
    let clock = Instant::now();
    let intact = ex.ledger().verify_integrity();
    let verify_integrity_ns = clock.elapsed().as_nanos() as u64;
    tally.check(intact, || "ledger integrity check failed".into());
    Repetition {
        window_ns: w1 - w0,
        swaps,
        latencies_ns: session.latencies_ns,
        ledger_chains: ex.ledger().len(),
        verify_integrity_ns,
        report,
        recovery,
        clear_stats: session.clear_stats,
        wal_bytes,
        snapshot_bytes,
    }
}

/// Terms of the `n`-th resting offer: a kind nobody wants, for a kind
/// nobody gives.
fn resting_terms(inputs: &Inputs, n: usize) -> (AssetKind, AssetKind) {
    (
        AssetKind::new(format!("{}{n}", inputs.dust_tag)),
        AssetKind::new(format!("{}-void", inputs.dust_tag)),
    )
}

/// `(WAL bytes, snapshot bytes)` in a store directory.
fn store_sizes(dir: &Path) -> (u64, u64) {
    let mut sizes = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let len = entry.metadata().map_or(0, |m| m.len());
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == swap_store::WAL_FILE {
            sizes.0 += len;
        } else if name.ends_with(".snap") {
            sizes.1 += len;
        }
    }
    sizes
}
