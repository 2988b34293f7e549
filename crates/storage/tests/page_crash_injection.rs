//! Page-level crash injection: the checkpoint journal (`pages.journal`)
//! is damaged at every byte offset and the database reopened against
//! both the old and the new committed metadata.
//!
//! The recovery matrix under test (see `Pager::open_file`):
//!
//! * **Crash before the metadata commit** (caller still holds the *old*
//!   meta): the journal carries a newer epoch, so recovery discards it —
//!   at *every* truncation offset and under arbitrary byte corruption —
//!   and serves exactly the previous checkpoint's bytes.
//! * **Crash after the metadata commit, before the page-file apply**
//!   (caller holds the *new* meta): an intact journal is redone
//!   idempotently to the new state; a torn or corrupted journal whose
//!   epoch still reads as the committed one is a typed `Io` error, never
//!   silently-wrong pages. (Truncation below the 24-byte journal header
//!   is unreachable in this scenario — the journal is fully fsynced
//!   before the metadata commit — so the sweep starts at the header.)
//!
//! The scene's second checkpoint is mixed: it rewrites pages the first
//! one committed (journaled) and allocates new ones. Those are *fresh* —
//! at or above the committed mark, the page count of the last committed
//! metadata — so they are written straight to `pages.db` and fsynced
//! before the commit, and are never journaled:
//!
//! * **Crash after the fresh writes, before the commit**: the old meta
//!   never reads an id at or above its mark, and the next allocation
//!   overwrites the stale tail before anything reads it.
//! * **Garbage at or above the mark** has no effect on a reopen either.
//! * **A first checkpoint** commits no page yet, so it writes no journal.
//!
//! Last, the entry checksum itself: the bitwise CRC-32 the pager used to
//! carry stays here as the oracle for the table-driven one it shares
//! with every other format now.

use crowddb_common::rng::Rng;
use crowddb_common::{row, Value};
use crowddb_common::{ColumnDef, DataType, TableSchema};
use crowddb_storage::pager::{JOURNAL_FILE, PAGES_FILE};
use crowddb_storage::{Database, Pager, PagerConfig};
use crowddb_wal::testutil::TestDir;

const JOURNAL_HEADER: usize = 24; // magic + epoch + entry count

const PAGE_SIZE: usize = 256;

fn small_cfg() -> PagerConfig {
    PagerConfig {
        page_size: PAGE_SIZE,
        pool_pages: 0,
    }
}

/// The committed mark a paged-metadata image records: its page count,
/// after the 5-byte magic, the `u64` epoch and the `u32` page size.
fn meta_page_count(meta: &[u8]) -> u64 {
    u64::from_le_bytes(meta[17..25].try_into().unwrap())
}

/// Entries a journal image's header announces.
fn journal_entries(journal: &[u8]) -> u64 {
    u64::from_le_bytes(journal[16..24].try_into().unwrap())
}

fn journal_len(dir: &std::path::Path) -> u64 {
    std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len())
}

fn create_schema(db: &Database) {
    let schema = TableSchema::new(
        "talk",
        vec![
            ColumnDef::new("title", DataType::Str),
            ColumnDef::new("nb_attendees", DataType::Int).crowd(),
        ],
    )
    .unwrap()
    .with_primary_key(&["title"])
    .unwrap();
    db.create_table(schema).unwrap();
    db.create_index(
        "talk_attendees",
        "talk",
        &["nb_attendees".to_string()],
        false,
    )
    .unwrap();
}

/// Build the crash scene: a database with one completed checkpoint
/// (meta1), further DML, and a second checkpoint journaled but never
/// applied. Returns the on-disk images plus both committed metadata
/// candidates and the two reference states.
struct Scene {
    pages_image: Vec<u8>,
    journal_image: Vec<u8>,
    meta1: Vec<u8>,
    meta2: Vec<u8>,
    ref1: Vec<u8>,
    ref2: Vec<u8>,
}

fn build_scene() -> Scene {
    let dir = TestDir::new("page-crash-master");
    let db = Database::open_file(dir.path(), small_cfg()).unwrap();
    create_schema(&db);
    for i in 0..24i64 {
        db.insert("talk", row![format!("t{i}"), i * 10]).unwrap();
    }
    // Checkpoint 1: journal + commit + apply, the normal full cycle.
    let (prep1, meta1) = db.begin_checkpoint().unwrap();
    db.complete_checkpoint(&prep1).unwrap();
    let ref1 = db.snapshot().unwrap();

    // Post-checkpoint tail: updates, a delete, fresh inserts.
    for i in 0..8i64 {
        db.write_back_value(
            "talk",
            crowddb_common::TupleId(i as u64),
            1,
            Value::Int(999 + i),
        )
        .unwrap();
    }
    db.with_table_mut("talk", |t| t.delete(crowddb_common::TupleId(20)))
        .unwrap();
    for i in 24..30i64 {
        db.insert("talk", row![format!("t{i}"), i * 10]).unwrap();
    }
    let ref2 = db.snapshot().unwrap();

    // Checkpoint 2: journal the dirty pages, then crash before the apply.
    let (prep2, meta2) = db.begin_checkpoint().unwrap();
    drop(db);

    let pages_image = std::fs::read(dir.path().join(PAGES_FILE)).unwrap();
    let journal_image = std::fs::read(dir.path().join(JOURNAL_FILE)).unwrap();
    let journaled = journal_entries(&journal_image);
    assert!(journaled > 0, "scene must journal at least one page");
    assert!(
        prep2.pages_written() > journaled,
        "scene must also write fresh pages"
    );
    assert!(
        pages_image.len() as u64 > meta_page_count(&meta1) * PAGE_SIZE as u64,
        "the fresh pages lie past checkpoint 1's mark"
    );
    Scene {
        pages_image,
        journal_image,
        meta1: meta1.to_vec(),
        meta2: meta2.to_vec(),
        ref1: ref1.to_vec(),
        ref2: ref2.to_vec(),
    }
}

/// `db.snapshot()` holds rows, not index pages: also check that every
/// index of `talk` holds exactly the heap's rows, each under its own key.
fn assert_indexes_match_rows(db: &Database) {
    db.with_table("talk", |t| {
        let rows = t.scan_rows().unwrap();
        let mut live: Vec<u64> = rows.iter().map(|(tid, _)| tid.0).collect();
        live.sort_unstable();
        for idx in t.indexes() {
            let mut listed = idx.range(t.pager(), None, None).unwrap();
            listed.extend(idx.missing_key_tids(t.pager()).unwrap());
            let mut listed: Vec<u64> = listed.iter().map(|tid| tid.0).collect();
            listed.sort_unstable();
            assert_eq!(listed, live, "index {} lists other rows", idx.name);
            for (tid, row) in &rows {
                let key = idx.key_of(row.values());
                if !key.has_missing() {
                    let found = idx.get(t.pager(), &key).unwrap();
                    assert!(found.contains(tid), "index {} lost {tid:?}", idx.name);
                }
            }
        }
    })
    .unwrap();
}

fn restore_scene(scene: &Scene, journal: &[u8]) -> TestDir {
    let dir = TestDir::new("page-crash-cut");
    std::fs::write(dir.path().join(PAGES_FILE), &scene.pages_image).unwrap();
    std::fs::write(dir.path().join(JOURNAL_FILE), journal).unwrap();
    dir
}

#[test]
fn journal_truncation_sweep_old_meta_recovers_previous_checkpoint() {
    let scene = build_scene();
    // Crash before the metadata commit: whatever survives of the journal
    // — nothing, a header, a torn entry, all of it — recovery against
    // the old meta discards it and serves checkpoint 1 exactly.
    for cut in 0..=scene.journal_image.len() {
        let dir = restore_scene(&scene, &scene.journal_image[..cut]);
        let db = Database::open_paged(dir.path(), small_cfg(), &scene.meta1)
            .unwrap_or_else(|e| panic!("cut {cut}: pre-commit recovery failed: {e}"));
        assert_eq!(
            db.snapshot().unwrap().to_vec(),
            scene.ref1,
            "cut {cut}: pre-commit recovery must serve checkpoint 1"
        );
        assert_indexes_match_rows(&db);
    }
}

#[test]
fn journal_truncation_sweep_new_meta_redoes_or_fails_typed() {
    let scene = build_scene();
    let full = scene.journal_image.len();
    // Crash after the metadata commit: the journal was fully fsynced
    // before the commit, so recovery either redoes it (intact) or
    // refuses with a typed error (torn mid-entry) — never wrong bytes.
    for cut in JOURNAL_HEADER..=full {
        let dir = restore_scene(&scene, &scene.journal_image[..cut]);
        match Database::open_paged(dir.path(), small_cfg(), &scene.meta2) {
            Ok(db) => {
                assert_eq!(cut, full, "only the intact journal may recover");
                assert_eq!(
                    db.snapshot().unwrap().to_vec(),
                    scene.ref2,
                    "redo must reproduce the pre-crash state"
                );
                assert_indexes_match_rows(&db);
            }
            Err(crowddb_common::CrowdError::Io(msg)) => {
                assert!(cut < full, "the intact journal must not fail: {msg}");
                assert!(
                    msg.contains("journal"),
                    "error should name the journal: {msg}"
                );
            }
            Err(e) => panic!("cut {cut}: expected Io error, got {e}"),
        }
    }
}

#[test]
fn journal_corruption_sweep_is_detected_or_discarded() {
    let scene = build_scene();
    // Flip one byte at every offset. Against the old meta the journal is
    // not trusted at all, so recovery always lands on checkpoint 1;
    // against the new meta a corrupt body is a typed error (the CRC or
    // frame check catches it) while corruption confined to the header's
    // magic makes the journal unclassifiable and equally untrusted.
    for pos in 0..scene.journal_image.len() {
        let mut corrupt = scene.journal_image.clone();
        corrupt[pos] ^= 0xFF;

        let dir = restore_scene(&scene, &corrupt);
        let db = Database::open_paged(dir.path(), small_cfg(), &scene.meta1)
            .unwrap_or_else(|e| panic!("flip {pos}: pre-commit recovery failed: {e}"));
        assert_eq!(
            db.snapshot().unwrap().to_vec(),
            scene.ref1,
            "flip {pos}: pre-commit recovery must serve checkpoint 1"
        );
        assert_indexes_match_rows(&db);

        let dir = restore_scene(&scene, &corrupt);
        match Database::open_paged(dir.path(), small_cfg(), &scene.meta2) {
            // The 24-byte header carries no checksum, so a flip there can
            // be misclassified (bad magic → unclassifiable discard, bad
            // epoch → foreign-epoch discard, shorter count → short-but-
            // framed redo). Every body byte is CRC-covered: a flip past
            // the header must be a typed refusal, never a silent accept.
            Ok(_) => assert!(
                pos < JOURNAL_HEADER,
                "flip {pos}: silent acceptance of a corrupt journal body"
            ),
            Err(crowddb_common::CrowdError::Io(_)) => {}
            Err(e) => panic!("flip {pos}: expected Io error, got {e}"),
        }
    }
}

/// A crash immediately after `complete_checkpoint` (journal applied and
/// truncated) must reopen cleanly from the new meta with no journal at
/// all.
#[test]
fn reopen_after_completed_checkpoint_needs_no_journal() {
    let scene = build_scene();
    // Simulate the apply: the journal pages land in pages.db, journal
    // truncated. Easiest faithful route: reopen with meta2 and the full
    // journal (redo path), snapshot, then reopen the same dir again —
    // the journal is now gone.
    let dir = restore_scene(&scene, &scene.journal_image);
    let db = Database::open_paged(dir.path(), small_cfg(), &scene.meta2).unwrap();
    assert_eq!(db.snapshot().unwrap().to_vec(), scene.ref2);
    drop(db);
    assert_eq!(
        std::fs::metadata(dir.path().join(JOURNAL_FILE))
            .unwrap()
            .len(),
        0,
        "redo must truncate the journal"
    );
    let db = Database::open_paged(dir.path(), small_cfg(), &scene.meta2).unwrap();
    assert_eq!(db.snapshot().unwrap().to_vec(), scene.ref2);
}

/// Reopen `dir` against `meta` and expect `reference`, then write enough
/// new rows to allocate over every id at or above the mark, checkpoint,
/// and reopen: the new rows and the old ones read back, whatever bytes
/// the ids past the mark held. A 4-page pool sends every read of a
/// committed page to the disk.
fn reopen_and_grow_over_the_tail(dir: &std::path::Path, meta: &[u8], reference: &[u8]) {
    let cfg = PagerConfig {
        page_size: PAGE_SIZE,
        pool_pages: 4,
    };
    let db = Database::open_paged(dir, cfg, meta).unwrap();
    assert_eq!(db.snapshot().unwrap().to_vec(), reference);
    assert_indexes_match_rows(&db);
    let tail = std::fs::metadata(dir.join(PAGES_FILE)).unwrap().len() / PAGE_SIZE as u64;
    for i in 100..160i64 {
        db.insert("talk", row![format!("grown-{i}"), i]).unwrap();
    }
    let (prep, meta3) = db.begin_checkpoint().unwrap();
    db.complete_checkpoint(&prep).unwrap();
    assert!(
        meta_page_count(&meta3) > tail,
        "the new rows must reach past the old tail"
    );
    let live = db.snapshot().unwrap().to_vec();
    drop(db);
    let db = Database::open_paged(dir, cfg, &meta3).unwrap();
    assert_eq!(db.snapshot().unwrap().to_vec(), live);
    assert_indexes_match_rows(&db);
    let before = Database::restore(reference).unwrap().stats("talk").unwrap();
    assert_eq!(db.stats("talk").unwrap().live_rows, before.live_rows + 60);
}

#[test]
fn crash_after_fresh_pages_reopens_at_the_previous_checkpoint() {
    let scene = build_scene();
    // The fresh pages reached pages.db, the journal was never written
    // or is torn: the old meta serves checkpoint 1 and outgrows the tail.
    for journal in [&[][..], &scene.journal_image[..JOURNAL_HEADER + 5]] {
        let dir = restore_scene(&scene, journal);
        reopen_and_grow_over_the_tail(dir.path(), &scene.meta1, &scene.ref1);
    }
}

#[test]
fn garbage_at_or_above_the_mark_is_never_read() {
    let scene = build_scene();
    for (meta, reference) in [(&scene.meta1, &scene.ref1), (&scene.meta2, &scene.ref2)] {
        let mark = meta_page_count(meta) as usize * PAGE_SIZE;
        let mut pages = scene.pages_image.clone();
        pages.truncate(mark.min(pages.len()));
        pages.resize(mark + 12 * PAGE_SIZE, 0xA5);
        let dir = TestDir::new("page-crash-garbage");
        std::fs::write(dir.path().join(PAGES_FILE), &pages).unwrap();
        std::fs::write(dir.path().join(JOURNAL_FILE), &scene.journal_image).unwrap();
        reopen_and_grow_over_the_tail(dir.path(), meta, reference);
    }
}

#[test]
fn a_first_checkpoint_writes_no_journal() {
    let dir = TestDir::new("page-crash-first");
    let db = Database::open_file(dir.path(), small_cfg()).unwrap();
    create_schema(&db);
    for i in 0..200i64 {
        db.insert("talk", row![format!("t{i}"), i]).unwrap();
    }
    let live = db.snapshot().unwrap().to_vec();
    let (prep, meta) = db.begin_checkpoint().unwrap();
    assert!(prep.pages_written() > 10);
    assert_eq!(journal_len(dir.path()), 0, "every page is fresh");
    db.complete_checkpoint(&prep).unwrap();
    assert_eq!(journal_len(dir.path()), 0);
    drop(db);
    let db = Database::open_paged(dir.path(), small_cfg(), &meta).unwrap();
    assert_eq!(db.snapshot().unwrap().to_vec(), live);
}

/// The bitwise IEEE CRC-32 the pager carried before the journal checksum
/// moved onto `codec::crc32` (same polynomial, init and final xor), kept
/// here as the oracle: over the little-endian page id, then the page.
fn bitwise_journal_crc(id: u64, data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in id.to_le_bytes().iter().chain(data) {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Every entry of a journal of seeded pages carries the checksum the old
/// bitwise loop computes — the journal's bytes did not move with it. The
/// pages are committed once, then rewritten, so the second checkpoint
/// journals every one of them.
#[test]
fn journal_checksums_match_the_bitwise_crc32() {
    let dir = TestDir::new("page-crash-crc");
    let pager = Pager::open_file(dir.path(), small_cfg(), 0).unwrap();
    let mut rng = Rng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    let mut seeded_page = || -> Vec<u8> {
        // Any spread of byte values will do.
        (0..PAGE_SIZE).map(|_| rng.next_u64() as u8).collect()
    };
    let ids: Vec<u64> = (0..40).map(|_| pager.allocate()).collect();
    for &id in &ids {
        pager.write(id, seeded_page()).unwrap();
    }
    let prep = pager.begin_checkpoint().unwrap();
    pager.complete_checkpoint(&prep).unwrap();
    let mut written = Vec::new();
    for &id in &ids {
        let page = seeded_page();
        pager.write(id, page.clone()).unwrap();
        written.push((id, page));
    }
    let prep = pager.begin_checkpoint().unwrap();
    assert_eq!(prep.pages_written(), written.len() as u64);

    let journal = std::fs::read(dir.path().join(JOURNAL_FILE)).unwrap();
    let entries = journal[JOURNAL_HEADER..].chunks_exact(12 + PAGE_SIZE);
    assert_eq!(entries.len(), written.len());
    assert!(entries.remainder().is_empty());
    for (entry, (id, page)) in entries.zip(&written) {
        assert_eq!(entry[..8], id.to_le_bytes());
        assert_eq!(entry[12..], page[..]);
        let crc = u32::from_le_bytes(entry[8..12].try_into().unwrap());
        assert_eq!(crc, bitwise_journal_crc(*id, page), "page {id}");
    }
}
