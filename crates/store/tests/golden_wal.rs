//! Golden-file test pinning the on-disk WAL framing, byte for byte.
//!
//! The WAL is a durability contract: bytes written by this build must be
//! readable by every future build (or rejected with a version error, not
//! misread). This test renders a fixed record sequence as an annotated
//! hex dump and compares it against `tests/golden/wal_v1.hex` (the text
//! commit records earlier builds wrote) and `tests/golden/wal_delta_v1.hex`
//! (the delta commit records this build writes). Any diff means the
//! framing changed — which requires a record-version bump and a
//! deliberate re-bless with `MERA_BLESS=1`, never a silent drift.

use mera_core::prelude::*;
use mera_core::tuple;
use mera_store::wal::{self, WalRecord};
use mera_txn::{DeltaMap, TupleDelta};

/// A fixed, fully deterministic record sequence covering both kinds,
/// empty text, and multi-byte UTF-8.
fn fixture() -> Vec<u8> {
    let records = [
        WalRecord::Declare {
            name: "beer".to_string(),
            schema: Schema::named(&[("name", DataType::Str), ("alcperc", DataType::Real)]),
        },
        WalRecord::Commit {
            time: 1,
            text: "insert(beer, values (str, real) {('Grolsch', 5.0)})".to_string(),
        },
        WalRecord::Commit {
            time: 2,
            text: "insert(beer, values (str, real) {('it''s µ—béér', 6.5)})".to_string(),
        },
        WalRecord::Commit {
            time: 3,
            text: String::new(),
        },
    ];
    let mut bytes = wal::empty_wal();
    for r in &records {
        bytes.extend_from_slice(&r.encode_frame());
    }
    bytes
}

/// Classic 16-byte-per-line hex dump: offset, hex bytes, ASCII gutter.
fn hex_dump(bytes: &[u8]) -> String {
    let mut out = String::new();
    for (i, chunk) in bytes.chunks(16).enumerate() {
        out.push_str(&format!("{:08x}  ", i * 16));
        for j in 0..16 {
            match chunk.get(j) {
                Some(b) => out.push_str(&format!("{b:02x} ")),
                None => out.push_str("   "),
            }
            if j == 7 {
                out.push(' ');
            }
        }
        out.push(' ');
        for &b in chunk {
            out.push(if (0x20..0x7f).contains(&b) {
                b as char
            } else {
                '.'
            });
        }
        out.push('\n');
    }
    out
}

/// A fixed delta history over every domain: a declaration, a commit of
/// two relations (one row with multiplicity 2, a multi-byte string), and
/// one that retracts and asserts.
fn delta_fixture() -> Vec<u8> {
    let beer: TupleDelta = [
        (tuple!["Grolsch", 5.0_f64], 2),
        (tuple!["it's µ—béér", 6.5_f64], 1),
    ]
    .into_iter()
    .collect();
    let ledger: TupleDelta = [(
        tuple![
            true,
            -42_i64,
            Value::Date(Date::from_ymd(1994, 2, 14).expect("a date")),
            Value::Time(Time::from_hms(23, 59, 59).expect("a time")),
            Value::Money(Money(-12345))
        ],
        1,
    )]
    .into_iter()
    .collect();
    let update: TupleDelta = [
        (tuple!["Grolsch", 5.0_f64], -1),
        (tuple!["Grolsch", 5.5_f64], 1),
    ]
    .into_iter()
    .collect();
    let records = [
        WalRecord::Declare {
            name: "beer".to_string(),
            schema: Schema::named(&[("name", DataType::Str), ("alcperc", DataType::Real)]),
        },
        WalRecord::Delta {
            time: 1,
            deltas: DeltaMap::from([("beer".to_string(), beer), ("ledger".to_string(), ledger)]),
        },
        WalRecord::Delta {
            time: 2,
            deltas: DeltaMap::from([("beer".to_string(), update)]),
        },
    ];
    let mut bytes = wal::empty_wal();
    for r in &records {
        bytes.extend_from_slice(&r.encode_frame());
    }
    bytes
}

/// Scans `bytes` (it must hold `records` intact records), then compares
/// its hex dump with `tests/golden/{file}`, or re-blesses the file.
fn pinned(bytes: &[u8], records: usize, file: &str, golden: &str) {
    // The fixture must round-trip through the scanner before we pin it.
    let scanned = wal::scan(bytes).expect("fixture is intact");
    assert_eq!(scanned.records.len(), records);
    assert_eq!(scanned.valid_len, bytes.len() as u64);

    let actual = hex_dump(bytes);
    if std::env::var_os("MERA_BLESS").is_some() {
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    assert_eq!(
        actual, golden,
        "\n-- WAL byte layout diverges from tests/golden/{file} --\n\
         The on-disk format is a compatibility contract: if this change is\n\
         intentional, bump RECORD_VERSION and re-bless with MERA_BLESS=1.\n\
         actual:\n{actual}"
    );
}

#[test]
fn wal_v1_framing_is_pinned() {
    pinned(
        &fixture(),
        4,
        "wal_v1.hex",
        include_str!("golden/wal_v1.hex"),
    );
}

#[test]
fn wal_delta_v1_framing_is_pinned() {
    pinned(
        &delta_fixture(),
        3,
        "wal_delta_v1.hex",
        include_str!("golden/wal_delta_v1.hex"),
    );
}
