//! A reader that pauses sees the tree as of its start. A scan's callback
//! blocks after its first row while another thread rewrites and deletes
//! the keys ahead of it, adds new ones and forces `flush_all`; the scan
//! must still return exactly the rows as of its start. The same holds
//! for a held `Snapshot` and a `Txn`. This is the protocol the write
//! buffer's handles and seqno ceilings exist for: the scan's cursor
//! refills its chunks from a buffer the flush has since swapped out.
//!
//! Runs in whichever background mode `LSM_BACKGROUND` selects;
//! `scripts/verify.sh` repeats it under each.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;

use lsm_core::{Db, LsmConfig};

const KEYS: u32 = 400;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// A tree with every key in the runs and, in the write buffer, a
/// rewrite of every even key and a tombstone on every fifth: far more
/// buffered entries than one cursor chunk, so a scan refills after its
/// pause.
fn loaded() -> (Db, Model) {
    let cfg = LsmConfig {
        wal: true,
        buffer_bytes: 64 << 10,
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    let mut model = Model::new();
    for i in 0..KEYS {
        let v = format!("v1-{i}").into_bytes();
        db.put(key(i), v.clone()).unwrap();
        model.insert(key(i), v);
    }
    db.flush_all().unwrap();
    for i in (0..KEYS).step_by(2) {
        let v = format!("v2-{i}").into_bytes();
        db.put(key(i), v.clone()).unwrap();
        model.insert(key(i), v);
    }
    for i in (0..KEYS).step_by(5) {
        db.delete(key(i)).unwrap();
        model.remove(&key(i));
    }
    (db, model)
}

/// What the other thread does while the reader is paused: rewrite every
/// key, delete every third, add keys between the old ones, flush it all.
fn churn(db: &Db) {
    for i in 0..KEYS {
        db.put(key(i), format!("v3-{i}").into_bytes()).unwrap();
    }
    for i in (0..KEYS).step_by(3) {
        db.delete(key(i)).unwrap();
    }
    for i in 0..KEYS {
        db.put([key(i).as_slice(), b"+"].concat(), b"new".to_vec()).unwrap();
    }
    db.flush_all().unwrap();
    // and land some writes in the fresh buffer too
    for i in (1..KEYS).step_by(2) {
        db.put(key(i), format!("v4-{i}").into_bytes()).unwrap();
    }
}

/// Runs `scan` on its own thread, handing it a row callback that stops
/// after the first row until [`churn`] has run on `db`. Returns the rows.
fn paused_scan<F>(db: &Db, scan: F) -> Vec<(Vec<u8>, Vec<u8>)>
where
    F: FnOnce(&mut dyn FnMut(&[u8], &[u8])) + Send + 'static,
{
    let (paused_tx, paused_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let reader = thread::spawn(move || {
        let mut rows = Vec::new();
        scan(&mut |k, v| {
            rows.push((k.to_vec(), v.to_vec()));
            if rows.len() == 1 {
                paused_tx.send(()).unwrap();
                resume_rx.recv().unwrap();
            }
        });
        rows
    });
    paused_rx.recv().expect("the scan must deliver a first row");
    churn(db);
    resume_tx.send(()).unwrap();
    reader.join().unwrap()
}

fn rows_of(model: &Model) -> Vec<(Vec<u8>, Vec<u8>)> {
    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

#[test]
fn a_paused_scan_returns_the_rows_as_of_its_start() {
    let (db, model) = loaded();
    let scanner = db.clone();
    let rows = paused_scan(&db, move |f| {
        scanner.scan_with(&key(0), &key(KEYS), usize::MAX, f).unwrap();
    });
    assert_eq!(rows, rows_of(&model));
    // and the churn itself landed
    assert_eq!(db.get(&key(1)).unwrap(), Some(b"v4-1".to_vec()));
    assert_eq!(db.get(&key(6)).unwrap(), None);
}

#[test]
fn a_held_snapshot_reads_as_of_its_start_through_churn() {
    let (db, model) = loaded();
    let snap = db.snapshot().unwrap();
    let expect = model.clone();
    // a scan of the snapshot, paused mid-way on its own thread; after the
    // churn, the same snapshot's point reads and a fresh scan of it
    let rows = paused_scan(&db, move |f| {
        snap.scan_with(&key(0), Some(&key(KEYS)), usize::MAX, f).unwrap();
        for i in 0..KEYS {
            assert_eq!(snap.get(&key(i)).unwrap(), expect.get(&key(i)).cloned(), "snapshot get {i}");
        }
        assert_eq!(snap.scan(key(0)..key(KEYS + 1), usize::MAX).unwrap(), rows_of(&expect));
    });
    assert_eq!(rows, rows_of(&model));
}

#[test]
fn a_txn_reads_as_of_its_begin_through_churn() {
    let (db, model) = loaded();
    let mut txn = db.begin_txn().unwrap();
    assert_eq!(txn.get(&key(2)).unwrap(), model.get(&key(2)).cloned());
    let reader = db.clone();
    // a paused plain scan paces the churn; the txn reads after it
    let rows = paused_scan(&db, move |f| {
        reader.scan_with(&key(0), &key(KEYS), usize::MAX, f).unwrap();
    });
    assert_eq!(rows, rows_of(&model));
    for i in 0..KEYS {
        assert_eq!(txn.get(&key(i)).unwrap(), model.get(&key(i)).cloned(), "txn get {i}");
        let inserted = [key(i).as_slice(), b"+"].concat();
        assert_eq!(txn.get(&inserted).unwrap(), None, "txn sees a later insert {i}");
    }
    // its reads were rewritten after its begin: the first committer won
    txn.put(key(2), b"mine".to_vec());
    assert!(txn.commit().is_err(), "a txn whose reads were rewritten must conflict");
}
