//! Exhaustive fault injection over the WAL tail.
//!
//! A crash can land mid-append, so recovery must cope with a log whose
//! final frame is cut at *any* byte boundary — and with bit rot anywhere in
//! it. These tests walk every such offset: the intact prefix always
//! replays exactly, the damaged tail is always dropped, and the log keeps
//! accepting appends afterwards. Damage with intact frames after it is not
//! a torn tail: open refuses it and leaves the file alone.

use std::fs;
use std::path::PathBuf;

use systolic_storage::wal::{encode_frame, Wal, WalRecord};
use systolic_storage::{StorageEngine, StorageError, StorageMetrics};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sdb_walfault_{}_{name}", std::process::id()));
    let _ = fs::remove_file(&p);
    let _ = fs::remove_dir_all(&p);
    p
}

/// A small mixed history: three loads and a store-query.
fn history() -> Vec<WalRecord> {
    vec![
        WalRecord::Load {
            name: "emp".to_string(),
            kinds: vec!["str".to_string(), "int".to_string()],
            csv: "ada,10\ngrace,20\n".to_string(),
        },
        WalRecord::Load {
            name: "dept".to_string(),
            kinds: vec!["int".to_string(), "str".to_string()],
            csv: "10,storage\n".to_string(),
        },
        WalRecord::Query {
            text: "store(filter(scan(emp), c1 >= 20), rich)".to_string(),
        },
        WalRecord::Load {
            name: "a".to_string(),
            kinds: vec!["int".to_string()],
            csv: "1\n2\n3\n".to_string(),
        },
    ]
}

/// The full log bytes and the offset where the final frame begins.
/// `Wal::append` stamps LSNs 0..n in order, so concatenating
/// `encode_frame(i, r)` reproduces its on-disk bytes exactly.
fn full_log() -> (Vec<u8>, usize) {
    let records = history();
    let mut bytes = Vec::new();
    let mut final_start = 0usize;
    for (i, r) in records.iter().enumerate() {
        final_start = bytes.len();
        bytes.extend_from_slice(&encode_frame(i as u64, r));
    }
    (bytes, final_start)
}

#[test]
fn truncation_at_every_byte_of_the_final_record_recovers_the_prefix() {
    let (full, final_start) = full_log();
    let records = history();
    let path = tmp("trunc");

    for cut in final_start..full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        let (mut wal, recs, tail) = Wal::open(&path, StorageMetrics::shared()).unwrap();
        assert_eq!(
            recs.len(),
            records.len() - 1,
            "cut at {cut}: exactly the intact prefix replays"
        );
        for (i, (lsn, rec)) in recs.iter().enumerate() {
            assert_eq!(*lsn, i as u64, "cut at {cut}");
            assert_eq!(rec, &records[i], "cut at {cut}");
        }
        assert_eq!(tail.valid_bytes, final_start as u64, "cut at {cut}");
        assert_eq!(
            tail.dropped_bytes,
            (cut - final_start) as u64,
            "cut at {cut}"
        );
        // The torn tail was truncated on open, so the next append lands on
        // a clean frame boundary and survives a re-open.
        wal.append(&records[records.len() - 1]).unwrap();
        drop(wal);
        let (_, recs, tail) = Wal::open(&path, StorageMetrics::shared()).unwrap();
        assert_eq!(tail.dropped_bytes, 0, "cut at {cut}: tail healed");
        assert_eq!(recs.len(), records.len(), "cut at {cut}: re-append lands");
        assert_eq!(recs[records.len() - 1].1, records[records.len() - 1]);
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn corruption_at_every_byte_of_the_final_record_drops_only_that_record() {
    let (full, final_start) = full_log();
    let records = history();
    let path = tmp("flip");

    for at in final_start..full.len() {
        let mut bytes = full.clone();
        bytes[at] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (_, recs, tail) = Wal::open(&path, StorageMetrics::shared()).unwrap();
        assert_eq!(
            recs.len(),
            records.len() - 1,
            "flip at {at}: the corrupted final frame must not replay"
        );
        for (i, (_, rec)) in recs.iter().enumerate() {
            assert_eq!(rec, &records[i], "flip at {at}: prefix unharmed");
        }
        assert_eq!(
            tail.dropped_bytes,
            (full.len() - final_start) as u64,
            "flip at {at}: the whole damaged tail is dropped"
        );
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn corruption_mid_log_stops_replay_at_the_damage() {
    let (full, _) = full_log();
    let path = tmp("midflip");
    // Flip one byte inside the very first frame: the three intact frames
    // after it hold acknowledged records, so open must fail loudly and
    // leave every byte in place rather than truncate them away.
    let mut bytes = full.clone();
    bytes[20] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
    match Wal::open(&path, StorageMetrics::shared()) {
        Err(StorageError::MidLogCorrupt { offset, .. }) => assert_eq!(offset, 0),
        other => panic!("expected mid-log corruption, got {other:?}"),
    }
    assert_eq!(fs::read(&path).unwrap(), bytes, "the log is untouched");
    let _ = fs::remove_file(&path);
}

#[test]
fn corruption_at_every_byte_before_the_final_record_refuses_to_open() {
    let (full, final_start) = full_log();
    let path = tmp("midwalk");
    let mut frame_starts = vec![0usize];
    for (i, r) in history().iter().enumerate() {
        frame_starts.push(frame_starts[i] + encode_frame(i as u64, r).len());
    }
    for at in 0..final_start {
        let mut bytes = full.clone();
        bytes[at] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let damaged = frame_starts.iter().rposition(|&s| s <= at).unwrap();
        match Wal::open(&path, StorageMetrics::shared()) {
            Err(StorageError::MidLogCorrupt { offset, .. }) => {
                assert_eq!(offset, frame_starts[damaged] as u64, "flip at {at}")
            }
            other => panic!("flip at {at}: expected mid-log corruption, got {other:?}"),
        }
        assert_eq!(fs::read(&path).unwrap(), bytes, "flip at {at}: untouched");
    }
    let _ = fs::remove_file(&path);
}

/// The same exhaustive walk one layer up: an engine whose `wal.log` is cut
/// mid-final-record recovers the prefix history and reports the torn tail.
#[test]
fn engine_recovery_reports_torn_tails_at_any_offset() {
    let (full, final_start) = full_log();
    let records = history();
    let dir = tmp("engine");

    // A representative spread, not all offsets — the byte-exhaustive walk
    // above already covers the parser; this checks the engine plumbing.
    for cut in [final_start, final_start + 1, full.len() - 1] {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("wal.log"), &full[..cut]).unwrap();
        let (engine, replay, report) =
            StorageEngine::open_with(&dir, 8, systolic_storage::ReplacerKind::Clock).unwrap();
        assert_eq!(replay.len(), records.len() - 1, "cut at {cut}");
        assert_eq!(replay, records[..records.len() - 1], "cut at {cut}");
        assert_eq!(report.wal_records, records.len() - 1, "cut at {cut}");
        assert_eq!(report.checkpoint_records, 0);
        assert_eq!(report.dropped_tail_bytes, (cut - final_start) as u64);
        assert_eq!(engine.wal_records(), records.len() - 1);
    }
    let _ = fs::remove_dir_all(&dir);
}
