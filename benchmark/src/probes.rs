//! Layer probes: direct timed calls into each layer's public functions, at
//! the shapes the workloads use, run after the measured window of a traced
//! run. Every value is the median over a few batches of the mean time per
//! call, so one preempted batch does not move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use swap_chain::{AssetDescriptor, Blockchain, ChainSet};
use swap_contract::{AnyCall, AnyContract, HtlcCall, HtlcContract};
use swap_core::{
    Behavior, IdentityStore, ProtocolKind, ProvisionedSwap, RunConfig, SwapRunOutput, WorkerPool,
};
use swap_crypto::{sha256_pair, Digest32, MssKeypair, Secret, SigChain};
use swap_digraph::{generators, FeedbackVertexSet, VertexId};
use swap_market::{verify_cleared_swap, AssetKind, ClearedSwap, ClearingService, Offer};
use swap_sim::{Delta, EventQueue, SimRng, SimTime};
use swap_store::{load_latest_snapshot, read_wal, Wal, WalRecord};

use crate::stats::median;
use crate::workload::{self, Inputs, Shape, Tally, Workload, GROUP_COMMIT, RESTING, RINGS};

pub type Values = BTreeMap<&'static str, f64>;

const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean nanoseconds `run` takes on
/// one of `batch` inputs; `prepare` builds each input outside the timing.
fn time_ns<I, T>(batch: usize, mut prepare: impl FnMut() -> I, mut run: impl FnMut(I) -> T) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let inputs: Vec<I> = (0..batch).map(|_| prepare()).collect();
            let clock = Instant::now();
            for input in inputs {
                black_box(run(black_box(input)));
            }
            clock.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_call).expect("at least one batch")
}

/// A probe party: a small minted identity and its current secret.
struct Party {
    keypair: MssKeypair,
    secret: Secret,
}

fn parties(rng: &mut SimRng, n: usize, height: u32) -> Vec<Party> {
    let specs: Vec<_> = (0..n).map(|_| (rng.bytes32(), height)).collect();
    workload::mint(&specs, workload::pool_threads())
        .into_iter()
        .map(|keypair| Party { keypair, secret: Secret::from_bytes(rng.bytes32()) })
        .collect()
}

/// The offers of one trade ring over `parties`: position `p` gives kind
/// `p` and wants kind `p + 1`.
fn ring_offers(tag: &str, parties: &[Party]) -> Vec<Offer> {
    let n = parties.len();
    parties
        .iter()
        .enumerate()
        .map(|(p, party)| Offer {
            key: party.keypair.public_key(),
            hashlock: party.secret.hashlock(),
            gives: AssetKind::new(format!("{tag}k{p}")),
            wants: AssetKind::new(format!("{tag}k{}", (p + 1) % n)),
        })
        .collect()
}

/// Clears one ring through the real clearing service and provisions it.
fn provisioned_ring(parties: &[Party], protocol: ProtocolKind, run: RunConfig) -> ProvisionedSwap {
    let mut service = ClearingService::new();
    let ids: Vec<_> =
        ring_offers("probe", parties).into_iter().map(|offer| service.submit(offer)).collect();
    let mut cleared =
        service.clear(Delta::from_ticks(10), SimTime::ZERO).expect("a ring of offers clears");
    assert_eq!(cleared.len(), 1, "one ring, one swap");
    let cleared = cleared.remove(0);
    // Key material goes in cleared-vertex order, not submission order.
    let by_vertex: Vec<&Party> = cleared
        .offer_of_vertex
        .iter()
        .map(|id| &parties[ids.iter().position(|i| i == id).expect("a submitted offer")])
        .collect();
    let keypairs = by_vertex.iter().map(|p| p.keypair.clone()).collect();
    let secrets = by_vertex.iter().map(|p| p.secret).collect();
    ProvisionedSwap::new(cleared, keypairs, secrets, run).with_protocol(protocol)
}

fn engine_us(parties: &[Party], protocol: ProtocolKind, run: RunConfig, expect_deal: bool) -> f64 {
    let swap = provisioned_ring(parties, protocol, run);
    let batch = if protocol == ProtocolKind::Htlc { 64 } else { 8 };
    time_ns(
        batch,
        || swap.clone().admit_for_queue(SimTime::ZERO),
        |admitted| {
            let out = admitted.execute();
            assert_eq!(out.report.all_deal(), expect_deal, "probe swap ended the wrong way");
            out
        },
    ) / 1e3
}

pub fn run(seed: u64, work: &Path, values: &mut Values, tally: &mut Tally) {
    let mut rng = SimRng::from_seed(seed).stream("probes");
    crypto(&mut rng, values);
    let four = parties(&mut rng, 4, 4);
    engine_and_chain(&four, values);
    market(&mut rng, values);
    identity_and_pool(&mut rng, values);
    store(seed, work, values, tally);
    values.insert(
        "digraph.leaders_ring4_us",
        time_ns(256, || generators::cycle(4), |ring| FeedbackVertexSet::minimum(&ring)) / 1e3,
    );
    values.insert(
        "sim.event_push_pop_ns",
        time_ns(16, EventQueue::<u64>::new, |mut queue| {
            // 64 events in flight is a ring's worth of engine traffic.
            for i in 0..1024u64 {
                queue.schedule(SimTime::from_ticks(i * 7 % 64), i);
                if i >= 64 {
                    black_box(queue.pop());
                }
            }
            queue
        }) / 1024.0,
    );
}

fn crypto(rng: &mut SimRng, values: &mut Values) {
    let (a, b) = (Digest32(rng.bytes32()), Digest32(rng.bytes32()));
    values.insert(
        "crypto.sha256_pair_ns",
        time_ns(
            16,
            || a,
            |mut acc| {
                for _ in 0..1024 {
                    acc = sha256_pair(&acc, &b);
                }
                acc
            },
        ) / 1024.0,
    );
    let height = workload::FRESH_HEIGHT;
    values.insert(
        "crypto.mss_keygen_us_per_leaf",
        time_ns(2, || rng.bytes32(), |seed| MssKeypair::from_seed_with_height(seed, height))
            / 1e3
            / f64::from(1u32 << height),
    );
    let signer = MssKeypair::from_seed_with_height(rng.bytes32(), 4);
    let relay = MssKeypair::from_seed_with_height(rng.bytes32(), 4);
    let third = MssKeypair::from_seed_with_height(rng.bytes32(), 4);
    let message = Digest32(rng.bytes32());
    values.insert(
        "crypto.mss_sign_us",
        time_ns(32, || signer.clone(), |mut k| k.sign(&message).expect("a fresh leaf")) / 1e3,
    );
    let signature = signer.clone().sign(&message).expect("a fresh leaf");
    let key = signer.public_key();
    values.insert(
        "crypto.mss_verify_us",
        time_ns(32, || (), |()| assert!(key.verify(&message, &signature))) / 1e3,
    );
    let secret = Secret::from_bytes(rng.bytes32());
    let one = SigChain::sign_secret(&mut signer.clone(), &secret).expect("a fresh leaf");
    values.insert(
        "crypto.sigchain_extend_us",
        time_ns(32, || relay.clone(), |mut k| one.extend(&mut k).expect("a fresh leaf")) / 1e3,
    );
    let three = one
        .extend(&mut relay.clone())
        .and_then(|two| two.extend(&mut third.clone()))
        .expect("fresh leaves");
    let path = [third.public_key(), relay.public_key(), signer.public_key()];
    values.insert(
        "crypto.sigchain_verify3_us",
        time_ns(16, || (), |()| three.verify(&secret, &path).expect("the chain verifies")) / 1e3,
    );
    values.insert("crypto.hashlock_ns", time_ns(1024, || secret, |s| s.hashlock()));
}

/// One `AdmittedSwap::execute` per protocol and ring size, then the chain
/// operations an HTLC swap performs, then ledger absorption of real
/// per-swap chain sets.
fn engine_and_chain(four: &[Party], values: &mut Values) {
    let conforming = RunConfig::default;
    let mut halting = RunConfig::default();
    halting.behaviors.insert(VertexId::new(3), Behavior::Halt { at_round: 1 });
    use ProtocolKind::{Hashkey, Htlc};
    values.insert("engine.htlc_ring2_us", engine_us(&four[..2], Htlc, conforming(), true));
    values.insert("engine.htlc_ring4_us", engine_us(four, Htlc, conforming(), true));
    values.insert("engine.htlc_refund_ring4_us", engine_us(four, Htlc, halting, false));
    values.insert("engine.hashkey_ring3_us", engine_us(&four[..3], Hashkey, conforming(), true));
    values.insert("engine.hashkey_ring4_us", engine_us(four, Hashkey, conforming(), true));

    let ring3 = provisioned_ring(&four[..3], Htlc, conforming());
    values.insert(
        "instance.admit_us",
        time_ns(64, || ring3.clone(), |swap| swap.admit_for_queue(SimTime::ZERO)) / 1e3,
    );

    // mint → publish (escrow) → reveal (transfer): an HTLC arc's life.
    let (party, counterparty) =
        (four[0].keypair.public_key().address(), four[1].keypair.public_key().address());
    let secret = four[0].secret;
    let mut chain: Blockchain<AnyContract> = Blockchain::new("probe", SimTime::ZERO);
    let (mut mint_ns, mut publish_ns, mut call_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let batch = 256;
        let clock = Instant::now();
        let assets: Vec<_> = (0..batch)
            .map(|_| chain.mint_asset(AssetDescriptor::unique("probe"), party, SimTime::ZERO))
            .collect();
        mint_ns.push(clock.elapsed().as_nanos() as f64 / batch as f64);
        let contracts: Vec<_> = assets
            .iter()
            .map(|&asset| {
                AnyContract::Htlc(HtlcContract::new(
                    asset,
                    party,
                    counterparty,
                    secret.hashlock(),
                    SimTime::from_ticks(100),
                ))
            })
            .collect();
        let clock = Instant::now();
        let ids: Vec<_> = contracts
            .into_iter()
            .map(|c| chain.publish_contract(c, party, SimTime::from_ticks(1)).expect("publishes"))
            .collect();
        publish_ns.push(clock.elapsed().as_nanos() as f64 / batch as f64);
        let clock = Instant::now();
        for id in ids {
            let call = AnyCall::Htlc(HtlcCall::Reveal { secret });
            chain
                .call_contract(id, counterparty, call, SimTime::from_ticks(2), 32)
                .expect("the reveal triggers");
        }
        call_ns.push(clock.elapsed().as_nanos() as f64 / batch as f64);
    }
    values.insert("chain.mint_us", median(&mint_ns).expect("batches ran") / 1e3);
    values.insert("chain.publish_us", median(&publish_ns).expect("batches ran") / 1e3);
    values.insert("chain.call_us", median(&call_ns).expect("batches ran") / 1e3);

    let mut ledger: ChainSet<AnyContract> = ChainSet::new();
    let executed = || -> SwapRunOutput { ring3.clone().admit_for_queue(SimTime::ZERO).execute() };
    values.insert(
        "chain.absorb_us_per_chain",
        time_ns(64, || executed().setup.chains, |chains| ledger.absorb(chains)) / 1e3 / 3.0,
    );
}

/// The clearing service over an empty and over a deep book, and the
/// party-side re-verification of a cleared swap.
fn market(rng: &mut SimRng, values: &mut Values) {
    // One cohort's worth of rings, lengths cycling 2, 3, 4.
    let rings: Vec<Vec<Party>> = (0..RINGS).map(|r| parties(rng, 2 + r % 3, 1)).collect();
    let cohort: Vec<Offer> = rings
        .iter()
        .enumerate()
        .flat_map(|(r, ring)| ring_offers(&format!("probe-r{r}"), ring))
        .collect();
    let maker = parties(rng, 1, 1).remove(0);
    let resting = |n: usize| Offer {
        key: maker.keypair.public_key(),
        hashlock: maker.secret.hashlock(),
        gives: AssetKind::new(format!("probe-dust{n}")),
        wants: AssetKind::new("probe-void"),
    };
    let delta = Delta::from_ticks(10);
    for (depth, submit, cancel, plan_commit) in [
        (0, "clearing.submit_us", "clearing.cancel_us", "clearing.plan_commit_us_per_cycle"),
        (
            RESTING,
            "clearing.submit_deep_us",
            "clearing.cancel_deep_us",
            "clearing.plan_commit_deep_us_per_cycle",
        ),
    ] {
        let mut service = ClearingService::new();
        for n in 0..depth {
            service.submit(resting(n));
        }
        let (mut submit_ns, mut cancel_ns, mut clear_ns) = (Vec::new(), Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        for _ in 0..BATCHES {
            for _ in 0..16 {
                let offers = cohort.clone();
                let clock = Instant::now();
                for offer in offers {
                    black_box(service.submit(offer));
                }
                submit_ns.push(clock.elapsed().as_nanos() as f64 / cohort.len() as f64);
                now += delta.times(1);
                let clock = Instant::now();
                let plan = service.plan();
                let cleared = service.commit(plan, delta, now).expect("the cohort clears");
                clear_ns.push(clock.elapsed().as_nanos() as f64 / cleared.len() as f64);
                assert_eq!(cleared.len(), RINGS, "every ring of the cohort clears");
                for swap in &cleared {
                    service.settle_swap(swap.id).expect("a matched swap settles");
                }
            }
            let posted: Vec<_> = (0..256).map(|n| service.submit(resting(depth + n))).collect();
            let clock = Instant::now();
            for id in posted {
                service.cancel(id).expect("an open offer cancels");
            }
            cancel_ns.push(clock.elapsed().as_nanos() as f64 / 256.0);
        }
        values.insert(submit, median(&submit_ns).expect("batches ran") / 1e3);
        values.insert(cancel, median(&cancel_ns).expect("batches ran") / 1e3);
        values.insert(plan_commit, median(&clear_ns).expect("batches ran") / 1e3);
    }
    // Every party of every swap re-checks its slot, as `verify_epoch` does.
    let mut service = ClearingService::new();
    for offer in cohort {
        service.submit(offer);
    }
    let published = SimTime::ZERO;
    let cleared: Vec<ClearedSwap> = service.clear(delta, published).expect("the cohort clears");
    values.insert(
        "market.verify_us_per_swap",
        time_ns(
            16,
            || (),
            |()| {
                for swap in &cleared {
                    for (v, id) in swap.offer_of_vertex.iter().enumerate() {
                        let offer = service.offer(*id).expect("cleared offers exist");
                        verify_cleared_swap(swap, VertexId::new(v as u32), offer, published)
                            .expect("an honest clearing verifies");
                    }
                }
            },
        ) / 1e3
            / cleared.len() as f64,
    );
}

fn identity_and_pool(rng: &mut SimRng, values: &mut Values) {
    let minted: Vec<MssKeypair> = parties(rng, 64, 1).into_iter().map(|p| p.keypair).collect();
    values.insert(
        "identity.register_us",
        time_ns(
            1,
            || (IdentityStore::new(), minted.clone()),
            |(mut store, keypairs)| {
                for keypair in keypairs {
                    black_box(store.register(keypair));
                }
                store
            },
        ) / 1e3
            / minted.len() as f64,
    );
    let addresses: Vec<_> = minted.iter().map(|k| k.public_key().address()).collect();
    values.insert(
        "identity.lease_us",
        time_ns(
            1,
            || IdentityStore::restore(minted.clone(), 0),
            |mut store| {
                for address in &addresses {
                    black_box(store.lease(address, 2).expect("two unused leaves"));
                }
                store
            },
        ) / 1e3
            / addresses.len() as f64,
    );
    let mut pool: WorkerPool<u32, u32> = WorkerPool::new(workload::pool_threads());
    values.insert(
        "pool.roundtrip_us",
        time_ns(
            512,
            || (),
            |()| {
                pool.submit(0, || 0);
                pool.recv().tag
            },
        ) / 1e3,
    );
}

/// The store's files at the durable workload's sizes: a 20 000-offer
/// snapshot and a WAL of single-command groups.
fn store(seed: u64, work: &Path, values: &mut Values, tally: &mut Tally) {
    let dir = work.join("probe-store");
    let book = Shape { cohorts: 0, ..Shape::FULL };
    let inputs = Inputs::generate(Workload::DurableDeepBook, book, seed, workload::pool_threads());
    let mut ex = workload::opened_exchange(&inputs, workload::pool_threads(), &dir, tally);
    // Leave a tail in the log for `read_wal`, as a crash mid-window would.
    let makers = inputs.maker_addresses();
    let mut secrets = SimRng::from_seed(seed).stream("probe-store");
    let mut post = |ex: &mut swap_core::Exchange, n: usize| {
        let secret = Secret::from_bytes(secrets.bytes32());
        let terms = (AssetKind::new(format!("probe-tail{n}")), AssetKind::new("probe-void"));
        ex.resubmit(makers[n % makers.len()], secret, terms.0, terms.1).expect("makers are known");
    };
    let snapshot_ms: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            // A snapshot needs something logged since the last one.
            post(&mut ex, batch);
            ex.drive_until_quiescent().expect("an unmatched offer clears nothing");
            let clock = Instant::now();
            let written = ex.snapshot_now();
            let ms = clock.elapsed().as_secs_f64() * 1e3;
            tally.check(written.is_ok(), || format!("probe snapshot failed: {written:?}"));
            ms
        })
        .collect();
    values.insert("store.snapshot_now_ms", median(&snapshot_ms).expect("batches ran"));
    for n in 0..4096 {
        post(&mut ex, BATCHES + n);
    }
    let synced = ex.sync_journal();
    tally.check(synced.is_ok(), || format!("probe sync failed: {synced:?}"));
    drop(ex);
    values.insert(
        "store.load_snapshot_ms",
        time_ns(1, || (), |()| load_latest_snapshot(&dir).expect("the snapshot loads")) / 1e6,
    );
    values.insert(
        "store.read_wal_ms",
        time_ns(1, || (), |()| read_wal(&dir).expect("the log reads").frames.len()) / 1e6,
    );

    // The WAL alone: single-command groups (a resubmit is one record),
    // flushed at the workload's group-commit size, then forced to disk.
    let wal_dir = work.join("probe-wal");
    std::fs::create_dir_all(&wal_dir).expect("the work directory is writable");
    let record = |n: u64| WalRecord::Resubmit {
        address: [7; 32],
        secret: [9; 32],
        gives: format!("probe-dust{n}"),
        wants: "probe-void".into(),
    };
    let (mut append_ns, mut flush_ns, mut sync_ns) = (Vec::new(), Vec::new(), Vec::new());
    // A buffer that never fills by itself, so `flush` is timed alone.
    let mut wal = Wal::create(&wal_dir, usize::MAX).expect("the log opens");
    for batch in 0..BATCHES as u64 {
        for round in 0..16 {
            let groups: Vec<_> =
                (0..GROUP_COMMIT as u64).map(|n| [record(batch * 4096 + round * 64 + n)]).collect();
            let clock = Instant::now();
            for group in &groups {
                wal.append_group(group).expect("the log appends");
            }
            append_ns.push(clock.elapsed().as_nanos() as f64 / groups.len() as f64);
            let clock = Instant::now();
            wal.flush().expect("the log flushes");
            flush_ns.push(clock.elapsed().as_nanos() as f64);
        }
        let clock = Instant::now();
        wal.sync().expect("the log syncs");
        sync_ns.push(clock.elapsed().as_nanos() as f64);
    }
    values.insert("store.wal_append_us_per_group", median(&append_ns).expect("batches ran") / 1e3);
    values.insert("store.wal_flush_us", median(&flush_ns).expect("batches ran") / 1e3);
    values.insert("store.wal_sync_us", median(&sync_ns).expect("batches ran") / 1e3);
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// `swaps_per_s` of one small `resident_hashkey` repetition on two pool
/// workers over the same on one — the host speed-up of the pool. 1.0 by
/// definition on a one-core host.
pub fn pool_scaling(seed: u64, work: &Path, tally: &mut Tally) -> f64 {
    if workload::pool_threads() < 2 {
        return 1.0;
    }
    let shape = Shape { cohorts: 1, rounds: 8, height: 4 };
    let inputs = Inputs::generate(Workload::ResidentHashkey, shape, seed, 2);
    let mut unrecorded = crate::span::Recorder::new(false);
    let mut rate = |threads: usize| {
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                let rep = workload::run_repetition(&inputs, threads, work, &mut unrecorded, tally);
                rep.swaps as f64 / (rep.window_ns as f64 / 1e9)
            })
            .collect();
        median(&rates).expect("three repetitions")
    };
    let one = rate(1);
    rate(2) / one
}
