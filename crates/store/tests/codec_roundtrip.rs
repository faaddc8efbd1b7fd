//! Property tests pinning the codec: encode → decode → encode is
//! byte-identical over all record types, and frame streams survive
//! arbitrary truncation. (Snapshot payloads are opaque to this crate; their
//! round-trip properties live with their layout, in `swap-core`'s
//! `durability` module.)

use proptest::prelude::*;
use swap_store::{
    begin_frame, decode_frames, seal_frame, Encoder, FailTag, Framed, SeedRecord, StageTag,
    WalRecord,
};

/// `records` framed back to back the way the WAL frames a group, the
/// `i`-th under sequence number `seq(i)`.
fn frames(records: &[WalRecord], seq: impl Fn(usize) -> u64) -> (Vec<u8>, Vec<usize>) {
    let mut e = Encoder::new();
    let mut boundaries = vec![0];
    for (i, rec) in records.iter().enumerate() {
        let start = begin_frame(&mut e, rec.kind(), seq(i));
        rec.put_payload(&mut e);
        seal_frame(&mut e, start);
        boundaries.push(e.len());
    }
    (e.into_bytes(), boundaries)
}

fn payload(rec: &WalRecord) -> Vec<u8> {
    let mut e = Encoder::new();
    rec.put_payload(&mut e);
    e.into_bytes()
}

fn asset() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..12).prop_map(|v| {
        v.into_iter()
            .map(|b| match b % 29 {
                0 => '☃',
                1 => '"',
                2 => '\\',
                3 => '\n',
                n => (b'a' + (n - 4) % 26) as char,
            })
            .collect()
    })
}

fn seed_record() -> impl Strategy<Value = SeedRecord> {
    (any::<[u8; 32]>(), any::<u8>(), any::<[u8; 32]>(), asset(), asset()).prop_map(
        |(seed, height, secret, gives, wants)| SeedRecord { seed, height, secret, gives, wants },
    )
}

fn fail_tag() -> impl Strategy<Value = FailTag> {
    prop_oneof![
        Just(FailTag::Clear),
        any::<u64>().prop_map(|swap| FailTag::Verify { swap }),
        any::<u64>().prop_map(|swap| FailTag::WorkerPanicked { swap }),
        (any::<u64>(), any::<[u8; 32]>())
            .prop_map(|(swap, address)| FailTag::KeysExhausted { swap, address }),
    ]
}

fn stage_tag() -> impl Strategy<Value = StageTag> {
    prop_oneof![
        Just(StageTag::Clearing),
        Just(StageTag::Provisioning),
        Just(StageTag::Executing),
        Just(StageTag::Settling),
    ]
}

fn wal_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (any::<[u8; 32]>(), any::<u8>(), any::<u64>(), any::<[u8; 32]>(), asset(), asset())
            .prop_map(|(seed, height, next_leaf, secret, gives, wants)| WalRecord::SubmitOffer {
                seed,
                height,
                next_leaf,
                secret,
                gives,
                wants,
            }),
        prop::collection::vec(seed_record(), 0..5)
            .prop_map(|seeds| WalRecord::SubmitSeeded { seeds }),
        (any::<[u8; 32]>(), any::<[u8; 32]>(), asset(), asset()).prop_map(
            |(address, secret, gives, wants)| WalRecord::Resubmit { address, secret, gives, wants }
        ),
        any::<u64>().prop_map(|offer| WalRecord::Cancel { offer }),
        (any::<u64>(), stage_tag(), any::<u64>())
            .prop_map(|(epoch, stage, at)| WalRecord::StageEntered { epoch, stage, at }),
        (any::<u64>(), any::<u64>(), prop::collection::vec(any::<u64>(), 0..6))
            .prop_map(|(epoch, at, swaps)| WalRecord::EpochSettled { epoch, at, swaps }),
        fail_tag().prop_map(|error| WalRecord::StepFailed { error }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(epoch, cycles, offers_examined, offers_matched)| WalRecord::PlanCommitted {
                epoch,
                cycles,
                offers_examined,
                offers_matched,
            }
        ),
        any::<u64>().prop_map(|swap| WalRecord::SwapSettled { swap }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(swap, exhausted)| WalRecord::SwapRefunded { swap, exhausted }),
        any::<[u8; 32]>().prop_map(|address| WalRecord::IdentityRegistered { address }),
        (any::<u64>(), any::<[u8; 32]>())
            .prop_map(|(ticket, address)| WalRecord::IdentityMinted { ticket, address }),
        (any::<u64>(), any::<[u8; 32]>(), any::<u64>())
            .prop_map(|(swap, address, count)| WalRecord::LeavesLeased { swap, address, count }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wal_record_encode_decode_encode_is_byte_identical(rec in wal_record()) {
        let bytes = payload(&rec);
        let back = WalRecord::decode_payload(rec.kind(), &bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        let back = back.unwrap();
        prop_assert_eq!(&back, &rec);
        prop_assert_eq!(payload(&back), bytes);
    }

    #[test]
    fn frame_streams_round_trip(records in prop::collection::vec(wal_record(), 0..8)) {
        let (bytes, _) = frames(&records, |i| i as u64 * 3);
        let scan = decode_frames(&bytes).unwrap();
        prop_assert!(!scan.torn);
        prop_assert_eq!(scan.valid_len, bytes.len());
        let expect: Vec<(u64, WalRecord)> =
            records.iter().enumerate().map(|(i, r)| (i as u64 * 3, r.clone())).collect();
        let got: Vec<(u64, WalRecord)> =
            scan.frames.iter().map(|f: &Framed| (f.seq, f.record.clone())).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn truncated_frame_streams_keep_the_valid_prefix(
        records in prop::collection::vec(wal_record(), 1..6),
        cut_frac in 0u64..=1000,
    ) {
        let (bytes, boundaries) = frames(&records, |i| i as u64);
        let cut = (bytes.len() as u64 * cut_frac / 1000) as usize;
        let scan = decode_frames(&bytes[..cut]).unwrap();
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(scan.frames.len(), whole);
        prop_assert_eq!(scan.valid_len, boundaries[whole]);
        prop_assert_eq!(scan.torn, cut != boundaries[whole]);
        for (i, f) in scan.frames.iter().enumerate() {
            prop_assert_eq!(&f.record, &records[i]);
        }
    }
}
