//! Property tests for the log-record codec and the WAL's corruption
//! detection: seeded loops over `crowddb_common::rng`, reproducible by
//! seed.
//!
//! * every generated [`LogRecord`] survives an encode→decode round trip;
//! * **any** corruption of a WAL image the shared harness produces
//!   (`codec::corruptions`: byte flips, truncations, an extension) is
//!   caught by the WAL's CRC path: recovery either errors (header damage)
//!   or keeps exactly the frames that end before the damage.

use crowddb_common::codec;
use crowddb_common::rng::Rng;
use crowddb_common::{Row, TupleId, Value};
use crowddb_storage::LogRecord;
use crowddb_wal::testutil::TestDir;
use crowddb_wal::{scan_frames, FsyncPolicy, Wal, WAL_MAGIC};

fn random_string(rng: &mut Rng) -> String {
    let alphabet: Vec<char> = "abcXYZ019 ,'\"()\\\u{e9}\u{4e2d}\n\t\0".chars().collect();
    let len = rng.gen_range(0..20);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

fn random_value(rng: &mut Rng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::CNull,
        2 => Value::Bool(rng.gen_bool(0.5)),
        3 => Value::Int(rng.next_u64() as i64),
        4 => Value::Float(rng.gen_range(0..1_000_000) as f64 / 128.0 - 1000.0),
        _ => Value::Str(random_string(rng)),
    }
}

fn random_record(rng: &mut Rng) -> LogRecord {
    match rng.gen_range(0..6) {
        0 => LogRecord::Ddl {
            sql: random_string(rng),
        },
        1 => LogRecord::Dml {
            sql: random_string(rng),
        },
        2 => LogRecord::WriteBackValue {
            table: random_string(rng),
            tid: TupleId(rng.next_u64()),
            col: rng.gen_range(0..32),
            value: random_value(rng),
        },
        3 => LogRecord::WriteBackTuple {
            table: random_string(rng),
            row: Row::new(
                (0..rng.gen_range(0..6))
                    .map(|_| random_value(rng))
                    .collect(),
            ),
        },
        4 => LogRecord::PutEqual {
            left: random_string(rng),
            right: random_string(rng),
            instruction: random_string(rng),
            verdict: rng.gen_bool(0.5),
        },
        _ => LogRecord::PutOrder {
            left: random_string(rng),
            right: random_string(rng),
            instruction: random_string(rng),
            left_preferred: rng.gen_bool(0.5),
        },
    }
}

#[test]
fn arbitrary_records_round_trip() {
    let mut rng = Rng::seed_from_u64(0xC0DEC);
    for i in 0..300 {
        let rec = random_record(&mut rng);
        let decoded = LogRecord::decode(&rec.encode()).unwrap_or_else(|e| {
            panic!("iteration {i}: {rec:?} failed to decode: {e}");
        });
        assert_eq!(decoded, rec, "iteration {i}");
    }
}

#[test]
fn any_single_byte_corruption_is_rejected() {
    let dir = TestDir::new("codec-corrupt");
    let path = dir.path().join("wal.bin");
    let mut rng = Rng::seed_from_u64(0xBADBEEF);
    let records: Vec<LogRecord> = (0..4).map(|_| random_record(&mut rng)).collect();
    let mut frame_ends = Vec::new();
    {
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        for rec in &records {
            wal.append(rec).unwrap();
            frame_ends.push(wal.len());
        }
    }
    let image = std::fs::read(&path).unwrap();

    for (what, corrupt) in codec::corruptions(&image) {
        // The damage starts where the image and its corruption part ways.
        let at = image
            .iter()
            .zip(&corrupt)
            .take_while(|(a, b)| a == b)
            .count();
        match scan_frames(&corrupt) {
            // Only header damage hard-errors; damage to a frame can never
            // keep its CRC valid, so it always degrades to a shorter valid
            // prefix instead.
            Err(_) => assert!(at < WAL_MAGIC.len(), "unexpected hard error: {what}"),
            Ok((recovered, _)) => {
                assert!(at >= WAL_MAGIC.len(), "header corruption must error");
                let intact = frame_ends.iter().filter(|&&end| end <= at as u64).count();
                assert_eq!(recovered.len(), intact, "{what}");
                for (i, (lsn, rec)) in recovered.iter().enumerate() {
                    assert_eq!(*lsn, (i + 1) as u64);
                    assert_eq!(
                        rec, &records[i],
                        "surviving prefix must match the original records"
                    );
                }
            }
        }
    }
}
