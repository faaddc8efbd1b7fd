//! Property tests for the crypto substrate: hashing, commitments, trees,
//! and signatures must hold up under arbitrary inputs, not just vectors.

use proptest::prelude::*;
use swap_crypto::merkle::{leaf_hash, MerkleTree};
use swap_crypto::sha256::{sha256, Sha256};
use swap_crypto::{wots, HmacEngine, MssKeypair, Secret, SigChain};

proptest! {
    /// Incremental hashing equals one-shot hashing for any chunking.
    #[test]
    fn sha256_chunking_invariant(
        data in prop::collection::vec(any::<u8>(), 0..512),
        splits in prop::collection::vec(0usize..512, 0..6),
    ) {
        let expected = sha256(&data);
        let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for &cut in &cuts {
            h.update(&data[prev..cut]);
            prev = cut;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), expected);
    }

    /// Distinct inputs virtually never collide (sanity against a botched
    /// compression function: any collision here is a hard failure).
    #[test]
    fn sha256_injective_on_samples(
        a in prop::collection::vec(any::<u8>(), 0..64),
        b in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    /// A hashlock matches exactly its own secret.
    #[test]
    fn hashlock_binding(sa in any::<[u8; 32]>(), sb in any::<[u8; 32]>()) {
        let a = Secret::from_bytes(sa);
        let b = Secret::from_bytes(sb);
        prop_assert!(a.hashlock().matches(&a));
        prop_assert_eq!(a.hashlock().matches(&b), sa == sb);
    }

    /// Merkle inclusion proofs verify for every leaf of arbitrary trees,
    /// and fail for every *other* leaf.
    #[test]
    fn merkle_proofs_sound_and_complete(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..24),
    ) {
        let leaves: Vec<_> = payloads.iter().map(|p| leaf_hash(p)).collect();
        let tree = MerkleTree::from_leaves(leaves.clone()).expect("non-empty");
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).expect("in range");
            prop_assert!(proof.verify(leaf, tree.root()));
            for (j, other) in leaves.iter().enumerate() {
                if other != leaf {
                    prop_assert!(!proof.verify(other, tree.root()), "leaf {j} vs proof {i}");
                }
            }
        }
    }

    /// W-OTS signatures verify for the signed message only.
    #[test]
    fn wots_message_binding(
        seed in any::<[u8; 32]>(),
        msg_a in prop::collection::vec(any::<u8>(), 0..32),
        msg_b in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let engine = HmacEngine::new(&seed);
        let pk = wots::public_key(&engine, 0);
        let da = sha256(&msg_a);
        let db = sha256(&msg_b);
        let sig = wots::sign(wots::secret_key(&engine, 0), &da);
        prop_assert!(wots::verify(&sig, &da, &pk));
        prop_assert_eq!(wots::verify(&sig, &db, &pk), da == db);
    }

    /// MSS: every signature from a keypair verifies under its public key
    /// and fails under an unrelated one.
    #[test]
    fn mss_signature_binding(seed in any::<[u8; 32]>(), other in any::<[u8; 32]>(), n in 1usize..4) {
        prop_assume!(seed != other);
        let mut kp = MssKeypair::from_seed_with_height(seed, 2);
        let pk = kp.public_key();
        let wrong = MssKeypair::from_seed_with_height(other, 2).public_key();
        for i in 0..n {
            let msg = sha256(&[i as u8]);
            let sig = kp.sign(&msg).expect("capacity");
            prop_assert!(pk.verify(&msg, &sig));
            prop_assert!(!wrong.verify(&msg, &sig));
        }
    }

    /// Hashkey chains verify in path order and fail under any key rotation
    /// (a rotated order models a forged path attribution).
    #[test]
    fn sigchain_order_binding(secret_bytes in any::<[u8; 32]>(), links in 2usize..5) {
        let secret = Secret::from_bytes(secret_bytes);
        let mut kps: Vec<MssKeypair> = (0..links)
            .map(|i| MssKeypair::from_seed_with_height([i as u8 + 1; 32], 2))
            .collect();
        let mut chain = SigChain::sign_secret(&mut kps[0], &secret).expect("keys");
        for kp in kps.iter_mut().skip(1) {
            chain = chain.extend(kp).expect("keys");
        }
        // Path order: last signer first, leader last.
        let keys: Vec<_> = kps.iter().rev().map(|k| k.public_key()).collect();
        prop_assert!(chain.verify(&secret, &keys).is_ok());
        // Any rotation of the key order must fail.
        let mut rotated = keys.clone();
        rotated.rotate_left(1);
        prop_assert!(chain.verify(&secret, &rotated).is_err());
        // And a different secret must fail.
        let other = Secret::from_bytes([0xFE; 32]);
        if other != secret {
            prop_assert!(chain.verify(&other, &keys).is_err());
        }
    }
}
