//! Criterion benches for the hash-based crypto substrate: the cost of the
//! primitives every contract call ultimately pays for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use swap_crypto::sha256::sha256;
use swap_crypto::{sha256_pair, wots, HmacEngine, MssKeypair, Secret, SigChain};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(std::hint::black_box(data)))
        });
    }
    // The Merkle inner-node fast path: hashing two digests in two
    // compressions (the data block, then the fixed padding block) with no
    // buffering, vs the streaming path over the concatenation.
    let (left, right) = (sha256(b"left"), sha256(b"right"));
    group.throughput(Throughput::Bytes(64));
    group.bench_function("pair", |b| {
        b.iter(|| sha256_pair(std::hint::black_box(&left), std::hint::black_box(&right)))
    });
    group.bench_function("pair_streaming_baseline", |b| {
        b.iter(|| {
            let mut buf = [0u8; 64];
            buf[..32].copy_from_slice(std::hint::black_box(&left).as_bytes());
            buf[32..].copy_from_slice(std::hint::black_box(&right).as_bytes());
            sha256(&buf)
        })
    });
    group.finish();
}

fn bench_wots(c: &mut Criterion) {
    let mut group = c.benchmark_group("wots");
    let engine = HmacEngine::new(&[7u8; 32]);
    group.bench_function("keygen", |b| {
        b.iter(|| wots::public_key(std::hint::black_box(&engine), 0))
    });
    let msg = sha256(b"message");
    group.bench_function("sign", |b| {
        b.iter_batched(
            || wots::secret_key(&engine, 0),
            |sk| wots::sign(sk, &msg),
            criterion::BatchSize::SmallInput,
        )
    });
    let pk = wots::public_key(&engine, 0);
    let sig = wots::sign(wots::secret_key(&engine, 0), &msg);
    group.bench_function("verify", |b| {
        b.iter(|| wots::verify(std::hint::black_box(&sig), &msg, &pk))
    });
    group.finish();
}

fn bench_mss(c: &mut Criterion) {
    let mut group = c.benchmark_group("mss");
    group.sample_size(10);
    // Height 5 is what `benchmark/` mints per identity: two full groups of
    // sixteen keys for the batched keygen, every kernel call sixteen lanes.
    for height in [2u32, 4, 5, 6] {
        group.bench_with_input(BenchmarkId::new("keygen", height), &height, |b, &h| {
            b.iter(|| MssKeypair::from_seed_with_height([1u8; 32], h))
        });
    }
    let msg = sha256(b"message");
    group.bench_function("sign_h6", |b| {
        b.iter_batched(
            || MssKeypair::from_seed_with_height([1u8; 32], 6),
            |mut kp| kp.sign(&msg).expect("keys remain"),
            criterion::BatchSize::SmallInput,
        )
    });
    let mut kp = MssKeypair::from_seed_with_height([1u8; 32], 6);
    let pk = kp.public_key();
    let sig = kp.sign(&msg).unwrap();
    group.bench_function("verify_h6", |b| b.iter(|| pk.verify(&msg, std::hint::black_box(&sig))));
    group.finish();
}

/// `n` height-4 signers, leader first.
fn signers(n: usize) -> Vec<MssKeypair> {
    (0..n).map(|i| MssKeypair::from_seed_with_height([i as u8 + 1; 32], 4)).collect()
}

/// The hashkey chain over `secret` signed by `kps` in order, leader first.
fn chain_over(kps: &mut [MssKeypair], secret: &Secret) -> SigChain {
    let mut chain = SigChain::sign_secret(&mut kps[0], secret).expect("keys");
    for kp in kps.iter_mut().skip(1) {
        chain = chain.extend(kp).expect("keys");
    }
    chain
}

fn bench_sigchain(c: &mut Criterion) {
    // Hashkey chains of growing path length — the per-arc unlock cost in
    // the general protocol.
    let mut group = c.benchmark_group("sigchain");
    group.sample_size(10);
    let secret = Secret::from_bytes([5u8; 32]);
    for links in [1usize, 3, 6] {
        group.bench_with_input(BenchmarkId::new("build", links), &links, |b, &links| {
            b.iter_batched(
                || signers(links),
                |mut kps| chain_over(&mut kps, &secret),
                criterion::BatchSize::SmallInput,
            )
        });
        // Verification cost (what the contract pays on `unlock`), split by
        // the per-link proof memo: `verify_cold` gets a freshly signed
        // chain per sample — every link takes the full MSS check, the
        // first contract's view — and `verify_warm` re-verifies one chain,
        // i.e. times memo hits, what every later contract on the path pays
        // for the inherited links.
        let kps = signers(links);
        // Path order: outermost signer first, leader last.
        let keys: Vec<_> = kps.iter().rev().map(|kp| kp.public_key()).collect();
        let fresh_chain = || chain_over(&mut kps.clone(), &secret);
        group.bench_with_input(BenchmarkId::new("verify_cold", links), &links, |b, _| {
            b.iter_batched(
                fresh_chain,
                |chain| chain.verify(&secret, &keys).expect("valid chain"),
                criterion::BatchSize::SmallInput,
            )
        });
        let chain = fresh_chain();
        group.bench_with_input(BenchmarkId::new("verify_warm", links), &links, |b, _| {
            b.iter(|| std::hint::black_box(&chain).verify(&secret, &keys).expect("valid chain"))
        });
    }
    // Extending a length-N chain copies O(1) links, not O(N) signature
    // bytes: every inherited link is shared by reference. Asserted here —
    // on a build where `extend` deep-copied, the Arc identity check fails
    // before any timing runs.
    for links in [1usize, 8, 64] {
        let chain = chain_over(&mut signers(links), &secret);
        let mut signer = MssKeypair::from_seed_with_height([99; 32], 4);
        let extended = chain.extend(&mut signer).expect("keys");
        assert_eq!(extended.len(), links + 1);
        assert!(
            chain
                .links()
                .iter()
                .zip(extended.links())
                .all(|(inherited, copied)| std::sync::Arc::ptr_eq(inherited, copied)),
            "extend must share inherited links by reference, not clone them"
        );
        group.bench_with_input(BenchmarkId::new("extend", links), &links, |b, _| {
            b.iter_batched(
                || MssKeypair::from_seed_with_height([98; 32], 4),
                |mut kp| std::hint::black_box(&chain).extend(&mut kp).expect("keys"),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_sha256, bench_wots, bench_mss, bench_sigchain
}
criterion_main!(benches);
