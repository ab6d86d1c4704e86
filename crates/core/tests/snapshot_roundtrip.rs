//! Snapshot build→load bit-identity and corruption rejection.
//!
//! The contract under test: a snapshot round-trip reproduces the network
//! and every warmed half-path product *bitwise* (query scores included),
//! and any corruption — a flipped byte, a truncated file, a foreign or
//! stale header — is rejected with the matching typed [`SnapshotError`],
//! never a panic and never silently wrong data.

use hetesim_core::snapshot::{self, SnapshotError};
use hetesim_core::HeteSimEngine;
use hetesim_graph::{Hin, HinBuilder, MetaPath, Schema};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A unique scratch file per test case (no tempfile crate; the workspace
/// is zero-dependency).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hetesim-snap-{}-{tag}-{n}.snap",
        std::process::id()
    ))
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn bib_schema() -> Schema {
    let mut s = Schema::new();
    let a = s.add_type("author").unwrap();
    let p = s.add_type("paper").unwrap();
    let c = s.add_type("conference").unwrap();
    s.add_relation("writes", a, p).unwrap();
    s.add_relation("published_in", p, c).unwrap();
    s
}

fn toy_hin() -> Hin {
    let s = bib_schema();
    let w = s.relation_id("writes").unwrap();
    let pb = s.relation_id("published_in").unwrap();
    let mut b = HinBuilder::new(s);
    b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
    b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
    b.add_edge_by_name(w, "Mary", "P2", 1.0).unwrap();
    b.add_edge_by_name(w, "Mary", "P3", 2.0).unwrap();
    b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
    b.add_edge_by_name(pb, "P2", "KDD", 1.0).unwrap();
    b.add_edge_by_name(pb, "P3", "SIGMOD", 1.0).unwrap();
    b.build()
}

/// Builds a toy snapshot file with one warmed path and returns its bytes
/// alongside the source network.
fn toy_snapshot(tag: &str) -> (Scratch, Hin) {
    let hin = toy_hin();
    let engine = HeteSimEngine::with_threads(&hin, 1);
    let apc = MetaPath::parse(hin.schema(), "A-P-C").unwrap();
    let halves = engine.materialized_halves(&apc).unwrap();
    let file = Scratch(scratch(tag));
    snapshot::write_snapshot(&file.0, &hin, &[(apc, halves)]).unwrap();
    (file, hin)
}

/// All single-source score rows of a path, for bitwise comparison.
fn all_scores(engine: &HeteSimEngine, path: &MetaPath) -> Vec<u64> {
    let n = engine.hin().node_count(path.source_type());
    let mut bits = Vec::new();
    for a in 0..n as u32 {
        for s in engine.single_source(path, a).unwrap() {
            bits.push(s.to_bits());
        }
    }
    bits
}

#[test]
fn roundtrip_network_and_scores_are_bit_identical() {
    let (file, hin) = toy_snapshot("roundtrip");
    let snap = snapshot::read_snapshot(&file.0).unwrap();

    assert_eq!(snap.hin.total_nodes(), hin.total_nodes());
    assert_eq!(snap.hin.total_edges(), hin.total_edges());
    for ty in hin.schema().type_ids() {
        assert_eq!(snap.hin.node_names(ty), hin.node_names(ty));
    }
    for rel in hin.schema().relation_ids() {
        assert_eq!(snap.hin.adjacency(rel), hin.adjacency(rel));
    }

    // A cold-started engine fed the snapshot's warm halves must score
    // bitwise identically to the engine that built them.
    let warm_engine = HeteSimEngine::with_threads(&hin, 1);
    let apc = MetaPath::parse(hin.schema(), "A-P-C").unwrap();
    warm_engine.warm(&apc).unwrap();

    let cold_engine = HeteSimEngine::with_threads(&snap.hin, 1);
    assert_eq!(snap.warm.len(), 1);
    for w in snap.warm {
        cold_engine
            .install_halves(&w.path, w.left, w.right)
            .unwrap();
    }
    // The install seeded the cache: querying must not rebuild.
    let before = cold_engine.cache_stats().misses;
    assert_eq!(
        all_scores(&cold_engine, &apc),
        all_scores(&warm_engine, &apc)
    );
    assert_eq!(cold_engine.cache_stats().misses, before);
}

#[test]
fn info_reports_verified_summary() {
    let (file, hin) = toy_snapshot("info");
    let info = snapshot::snapshot_info(&file.0).unwrap();
    assert_eq!(info.version, snapshot::VERSION);
    assert_eq!(info.types, 3);
    assert_eq!(info.relations, 2);
    assert_eq!(info.nodes, hin.total_nodes());
    assert_eq!(info.edges, hin.total_edges());
    assert_eq!(info.warm_paths, vec!["A-P-C".to_string()]);
    assert_eq!(info.sections.len(), 4);
    assert_eq!(info.file_bytes, std::fs::metadata(&file.0).unwrap().len());
}

#[test]
fn every_single_flipped_byte_is_rejected() {
    let (file, _) = toy_snapshot("flip");
    let bytes = std::fs::read(&file.0).unwrap();
    let mutant = Scratch(scratch("flip-mutant"));
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x01;
        std::fs::write(&mutant.0, &bad).unwrap();
        assert!(
            snapshot::read_snapshot(&mutant.0).is_err(),
            "flip at byte {i} of {} loaded successfully",
            bytes.len()
        );
    }
}

#[test]
fn payload_flip_is_a_checksum_error() {
    let (file, _) = toy_snapshot("crc");
    let mut bytes = std::fs::read(&file.0).unwrap();
    let last = bytes.len() - 1; // deep inside the last section payload
    bytes[last] ^= 0xFF;
    std::fs::write(&file.0, &bytes).unwrap();
    match snapshot::read_snapshot(&file.0) {
        Err(SnapshotError::ChecksumMismatch {
            stored, computed, ..
        }) => {
            assert_ne!(stored, computed)
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn preamble_flip_is_a_header_checksum_error() {
    let (file, _) = toy_snapshot("hdrcrc");
    let mut bytes = std::fs::read(&file.0).unwrap();
    bytes[33] ^= 0x01; // inside the section table
    std::fs::write(&file.0, &bytes).unwrap();
    match snapshot::read_snapshot(&file.0) {
        Err(SnapshotError::ChecksumMismatch { section, .. }) => {
            assert_eq!(section, "header")
        }
        other => panic!("expected header ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn truncation_is_rejected_at_every_length() {
    let (file, _) = toy_snapshot("trunc");
    let bytes = std::fs::read(&file.0).unwrap();
    let cut_file = Scratch(scratch("trunc-cut"));
    for cut in 0..bytes.len() {
        std::fs::write(&cut_file.0, &bytes[..cut]).unwrap();
        let err = snapshot::read_snapshot(&cut_file.0).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
            ),
            "cut at {cut}: unexpected {err:?}"
        );
    }
}

#[test]
fn wrong_magic_and_version_are_typed() {
    let (file, _) = toy_snapshot("magic");
    let bytes = std::fs::read(&file.0).unwrap();

    let mut not_snap = bytes.clone();
    not_snap[0] = b'X';
    std::fs::write(&file.0, &not_snap).unwrap();
    assert!(matches!(
        snapshot::read_snapshot(&file.0),
        Err(SnapshotError::BadMagic { .. })
    ));

    let mut future = bytes.clone();
    future[8] = 99; // version little-endian low byte
    std::fs::write(&file.0, &future).unwrap();
    assert!(matches!(
        snapshot::read_snapshot(&file.0),
        Err(SnapshotError::UnsupportedVersion {
            found: 99,
            supported: snapshot::VERSION
        })
    ));
}

#[test]
fn v2_stores_one_half_for_symmetric_paths_and_roundtrips() {
    let hin = toy_hin();
    let engine = HeteSimEngine::with_threads(&hin, 1);
    let apc = MetaPath::parse(hin.schema(), "A-P-C").unwrap();
    let apa = MetaPath::parse(hin.schema(), "A-P-A").unwrap();
    let (hc, ha) = (
        engine.materialized_halves(&apc).unwrap(),
        engine.materialized_halves(&apa).unwrap(),
    );
    assert!(!hc.shares_left() && ha.shares_left());
    let file = Scratch(scratch("v2"));
    let info = snapshot::write_snapshot(
        &file.0,
        &hin,
        &[(apc.clone(), hc.clone()), (apa.clone(), ha.clone())],
    )
    .unwrap();
    assert_eq!(info.version, 2);

    // The paths section holds three matrices: A-P-C's two halves and
    // A-P-A's one.
    let csr_bytes = |m: &hetesim_sparse::CsrMatrix| 24 + 4 * (m.nrows() + 1) + 12 * m.nnz();
    let strings: usize = [&apc, &apa]
        .iter()
        .map(|p| 8 + p.cache_key().len() + p.display(hin.schema()).len())
        .sum();
    let paths = info.sections.iter().find(|s| s.name == "paths").unwrap();
    assert_eq!(
        paths.bytes as usize,
        4 + strings + csr_bytes(&hc.left) + csr_bytes(&hc.right) + csr_bytes(&ha.left)
    );

    let snap = snapshot::read_snapshot(&file.0).unwrap();
    assert_eq!(snap.version, 2);
    let cold = HeteSimEngine::with_threads(&snap.hin, 1);
    for w in snap.warm {
        assert_eq!(
            std::sync::Arc::ptr_eq(&w.left, &w.right),
            w.path == apa,
            "{}",
            w.spec
        );
        cold.install_halves(&w.path, w.left, w.right).unwrap();
    }
    let installed = cold.materialized_halves(&apa).unwrap();
    assert!(installed.shares_left());
    assert_eq!(installed.mem_bytes(), ha.mem_bytes());
    assert_eq!(cold.cache_stats().bytes, engine.cache_stats().bytes);
    for path in [&apc, &apa] {
        assert_eq!(all_scores(&cold, path), all_scores(&engine, path));
    }
}

#[test]
fn version_1_file_is_rejected_with_the_typed_error() {
    // A snapshot warming only A-P-C has the same bytes under both
    // layouts except the version field and the header CRC that covers it:
    // rewrite both to get a genuine version 1 file.
    let (file, _) = toy_snapshot("v1");
    let mut bytes = std::fs::read(&file.0).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let sections = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let mut guarded = bytes[..28].to_vec();
    guarded.extend_from_slice(&bytes[32..32 + 24 * sections]);
    let crc = snapshot::crc32(&guarded);
    bytes[28..32].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&file.0, &bytes).unwrap();
    assert_eq!(
        snapshot::read_snapshot(&file.0).unwrap_err(),
        SnapshotError::UnsupportedVersion {
            found: 1,
            supported: 2
        }
    );
    assert!(matches!(
        snapshot::snapshot_info(&file.0),
        Err(SnapshotError::UnsupportedVersion { found: 1, .. })
    ));
}

#[test]
fn missing_file_is_io_error() {
    let err = snapshot::read_snapshot(std::path::Path::new("/no/such/net.snap")).unwrap_err();
    assert!(matches!(err, SnapshotError::Io(_)));
}

/// Random small bibliographic networks: the round-trip must be bitwise
/// exact for arbitrary edge sets, including parallel edges (summed at
/// build time, before the snapshot ever sees them).
fn arb_hin() -> impl Strategy<Value = Hin> {
    let authors = 1..5usize;
    let papers = 1..6usize;
    let confs = 1..4usize;
    (authors, papers, confs).prop_flat_map(|(na, np, nc)| {
        let writes = proptest::collection::vec((0..na, 0..np, 1u8..=4), 1..12);
        let pubs = proptest::collection::vec((0..np, 0..nc, 1u8..=4), 1..10);
        (writes, pubs).prop_map(|(we, pe)| {
            let s = bib_schema();
            let w = s.relation_id("writes").unwrap();
            let pb = s.relation_id("published_in").unwrap();
            let mut b = HinBuilder::new(s);
            for (a, p, wt) in we {
                b.add_edge_by_name(w, &format!("a{a}"), &format!("p{p}"), wt as f64)
                    .unwrap();
            }
            for (p, c, wt) in pe {
                b.add_edge_by_name(pb, &format!("p{p}"), &format!("c{c}"), wt as f64)
                    .unwrap();
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_network_roundtrips_bitwise(hin in arb_hin()) {
        let engine = HeteSimEngine::with_threads(&hin, 1);
        let apc = MetaPath::parse(hin.schema(), "A-P-C").unwrap();
        let apa = MetaPath::parse(hin.schema(), "A-P-A").unwrap();
        let warm = vec![
            (apc.clone(), engine.materialized_halves(&apc).unwrap()),
            (apa.clone(), engine.materialized_halves(&apa).unwrap()),
        ];
        let file = Scratch(scratch("prop"));
        snapshot::write_snapshot(&file.0, &hin, &warm).unwrap();
        let snap = snapshot::read_snapshot(&file.0).unwrap();

        for rel in hin.schema().relation_ids() {
            prop_assert_eq!(snap.hin.adjacency(rel), hin.adjacency(rel));
            let orig: Vec<u64> = hin.adjacency(rel).values().iter().map(|v| v.to_bits()).collect();
            let back: Vec<u64> = snap.hin.adjacency(rel).values().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(orig, back);
        }
        for ty in hin.schema().type_ids() {
            prop_assert_eq!(snap.hin.node_names(ty), hin.node_names(ty));
        }

        let cold = HeteSimEngine::with_threads(&snap.hin, 1);
        prop_assert_eq!(snap.warm.len(), 2);
        for w in snap.warm {
            cold.install_halves(&w.path, w.left, w.right).unwrap();
        }
        for path in [&apc, &apa] {
            prop_assert_eq!(all_scores(&cold, path), all_scores(&engine, path));
        }
    }
}
