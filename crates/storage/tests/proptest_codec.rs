//! Property tests for the log-record codec and the WAL's corruption
//! detection, driven by a hand-rolled splitmix64 generator (zero
//! external dependencies, reproducible by seed).
//!
//! * every generated [`LogRecord`] survives an encode→decode round trip;
//! * **any** corruption of a WAL image the shared harness produces
//!   (`codec::corruptions`: byte flips, truncations, an extension) is
//!   caught by the WAL's CRC path: recovery either errors (header damage)
//!   or keeps exactly the frames that end before the damage.

use crowddb_common::codec;
use crowddb_common::{Row, TupleId, Value};
use crowddb_storage::LogRecord;
use crowddb_wal::testutil::TestDir;
use crowddb_wal::{scan_frames, FsyncPolicy, Wal, WAL_MAGIC};

/// splitmix64, same shape as the quality-crate property tests.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn string(&mut self) -> String {
        let alphabet: Vec<char> = "abcXYZ019 ,'\"()\\\u{e9}\u{4e2d}\n\t\0".chars().collect();
        let len = self.below(20);
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len())])
            .collect()
    }

    fn value(&mut self) -> Value {
        match self.below(6) {
            0 => Value::Null,
            1 => Value::CNull,
            2 => Value::Bool(self.next().is_multiple_of(2)),
            3 => Value::Int(self.next() as i64),
            4 => Value::Float((self.next() % 1_000_000) as f64 / 128.0 - 1000.0),
            _ => Value::Str(self.string()),
        }
    }

    fn record(&mut self) -> LogRecord {
        match self.below(6) {
            0 => LogRecord::Ddl { sql: self.string() },
            1 => LogRecord::Dml { sql: self.string() },
            2 => LogRecord::WriteBackValue {
                table: self.string(),
                tid: TupleId(self.next()),
                col: self.below(32),
                value: self.value(),
            },
            3 => LogRecord::WriteBackTuple {
                table: self.string(),
                row: Row::new((0..self.below(6)).map(|_| self.value()).collect()),
            },
            4 => LogRecord::PutEqual {
                left: self.string(),
                right: self.string(),
                instruction: self.string(),
                verdict: self.next().is_multiple_of(2),
            },
            _ => LogRecord::PutOrder {
                left: self.string(),
                right: self.string(),
                instruction: self.string(),
                left_preferred: self.next().is_multiple_of(2),
            },
        }
    }
}

#[test]
fn arbitrary_records_round_trip() {
    let mut rng = Rng::new(0xC0DEC);
    for i in 0..300 {
        let rec = rng.record();
        let decoded = LogRecord::decode(&rec.encode()).unwrap_or_else(|e| {
            panic!("iteration {i}: {rec:?} failed to decode: {e}");
        });
        assert_eq!(decoded, rec, "iteration {i}");
    }
}

#[test]
fn any_single_byte_corruption_is_rejected() {
    let dir = TestDir::new("proptest-corrupt");
    let path = dir.path().join("wal.bin");
    let mut rng = Rng::new(0xBADBEEF);
    let records: Vec<LogRecord> = (0..4).map(|_| rng.record()).collect();
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
