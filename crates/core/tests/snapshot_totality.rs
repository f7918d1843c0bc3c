//! Property tests for the engine snapshot container: decoding is *total*.
//! Arbitrary bytes, every strict prefix of a valid snapshot, and any
//! single-bit corruption of one must map to a typed [`SnapshotError`] —
//! never to a panic, an abort, or a silently-wrong engine.
//!
//! Mirrors the wire-protocol totality suite in
//! `crates/server/tests/protocol_roundtrip.rs`: the snapshot file is the
//! other untrusted byte stream the serving stack consumes.

use ftb_core::{
    BuildConfig, EngineCore, EngineOptions, FtBfsAugmenter, Sources, StructureBuilder,
    TradeoffBuilder,
};
use ftb_graph::VertexId;
use ftb_workloads::{Workload, WorkloadFamily};
use proptest::collection;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One small augmented engine snapshot, built once and shared by every
/// proptest case (the build dominates; the properties only mutate bytes).
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let graph = Workload::new(WorkloadFamily::ErdosRenyi, 140, 11).generate();
        let sources = Sources::single(VertexId(0));
        let config = BuildConfig::new(0.3).with_seed(11);
        let structure = TradeoffBuilder::from_config(config.clone())
            .build(&graph, &sources)
            .expect("build succeeds");
        let augmented = FtBfsAugmenter::from_build_config(&config)
            .augment(&graph, structure)
            .expect("augmentation succeeds");
        let core = EngineCore::build_augmented_with(&graph, augmented, EngineOptions::new())
            .expect("engine build succeeds");
        core.write_snapshot(b"totality-suite note")
    })
}

#[test]
fn valid_snapshot_round_trips() {
    let bytes = snapshot_bytes();
    let (core, note) =
        EngineCore::read_snapshot(bytes, EngineOptions::new()).expect("own snapshot loads");
    assert_eq!(note, b"totality-suite note");
    // Save→load→save is a fixed point: the restored engine re-serializes
    // to the exact same bytes.
    assert_eq!(core.write_snapshot(&note), bytes);
}

#[test]
fn every_strict_prefix_is_rejected() {
    let bytes = snapshot_bytes();
    for cut in 0..bytes.len() {
        assert!(
            EngineCore::read_snapshot(&bytes[..cut], EngineOptions::new()).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_rejected(garbage in collection::vec(0u32..256, 0..256)) {
        let bytes: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        prop_assert!(EngineCore::read_snapshot(&bytes, EngineOptions::new()).is_err());
    }

    #[test]
    fn single_bit_flips_are_rejected(flip_pos in 0u64..u64::MAX, flip_bit in 0u8..8) {
        // Every byte of the container is covered by a structural check
        // (magic, version, layout hash) or by the checksum, so *any*
        // one-bit corruption must surface as a typed error.
        let mut bytes = snapshot_bytes().to_vec();
        let pos = (flip_pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << flip_bit;
        prop_assert!(
            EngineCore::read_snapshot(&bytes, EngineOptions::new()).is_err(),
            "flip at byte {pos} bit {flip_bit} decoded"
        );
    }

    #[test]
    fn truncation_at_random_cut_is_rejected(cut_permille in 0u32..1000) {
        let bytes = snapshot_bytes();
        let cut = (bytes.len() as u64 * cut_permille as u64 / 1000) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(EngineCore::read_snapshot(&bytes[..cut], EngineOptions::new()).is_err());
    }
}
