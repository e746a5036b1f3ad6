//! Properties of the WAL's commit record and of its scanner.
//!
//! A committed transaction reaches the log as a [`WalRecord::Delta`]: its
//! net ℤ-delta per written relation, each with the domain tags its values
//! decode under. The first property drives arbitrary deltas — all seven
//! domains, strings from a hostile alphabet, positive and negative
//! multiplicities, several relations — through
//!
//! ```text
//! DeltaMap → encode_frame (= delta_frame over put_deltas) → wal::scan → DeltaMap
//! ```
//!
//! and requires the result to equal the original with its empty
//! relations dropped. The others feed `wal::scan` bytes no writer
//! produced: arbitrary tails, and intact frames whose payloads were
//! mutated and re-checksummed, so only the decoder stands between them
//! and the caller. Neither may panic, or allocate what a length field
//! claims rather than what the bytes hold.

use mera_core::prelude::*;
use mera_store::wal::{self, WalRecord};
use mera_txn::{DeltaMap, TupleDelta};
use proptest::prelude::*;

/// The hostile alphabet: XRA string syntax characters, whitespace, and
/// multi-byte UTF-8 — none of which the binary codec may care about.
const NASTY: &[char] = &[
    'a', 'b', '\'', '\n', '\t', ' ', '"', '\\', 'é', 'µ', '—', 'β', '0', ',', '(', '%',
];

const DOMAINS: [DataType; 7] = [
    DataType::Bool,
    DataType::Int,
    DataType::Real,
    DataType::Str,
    DataType::Date,
    DataType::Time,
    DataType::Money,
];

fn string_of(picks: &[u8]) -> String {
    picks
        .iter()
        .map(|&i| NASTY[i as usize % NASTY.len()])
        .collect()
}

/// A value of `dtype` drawn from raw material.
fn value(dtype: DataType, raw: i64, picks: &[u8]) -> Value {
    match dtype {
        DataType::Bool => Value::Bool(raw & 1 == 1),
        DataType::Int => Value::Int(raw),
        DataType::Real => Value::Real(Real::new(raw as f64 / 8.0).expect("finite")),
        DataType::Str => Value::str(string_of(picks)),
        DataType::Date => Value::Date(Date(raw as i32)),
        DataType::Time => Value::Time(Time(raw as u32)),
        DataType::Money => Value::Money(Money(raw)),
    }
}

/// One relation's raw material: domain picks, and rows of (per-cell raw
/// values, string picks, multiplicity).
type RawRelation = (Vec<usize>, Vec<(Vec<i64>, Vec<u8>, i64)>);

fn raw_relation() -> impl Strategy<Value = RawRelation> {
    (
        proptest::collection::vec(0usize..DOMAINS.len(), 1..5),
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<i64>(), 4),
                proptest::collection::vec(0u8..16, 0..8),
                prop_oneof![-3i64..=3, Just(i64::MAX), Just(i64::MIN + 1)],
            ),
            0..6,
        ),
    )
}

/// Builds the delta map; a row whose multiplicity is zero, or whose
/// repeats cancel, leaves nothing behind, and a relation can end empty.
fn deltas_of(raw: &[RawRelation], names: &[u8]) -> DeltaMap {
    let mut deltas = DeltaMap::new();
    for (i, (domains, rows)) in raw.iter().enumerate() {
        let name = format!("r{i}{}", string_of(&names[..names.len().min(i)]));
        let mut delta = TupleDelta::new();
        for (cells, picks, m) in rows {
            let values = domains
                .iter()
                .zip(cells.iter().cycle())
                .map(|(&d, &raw)| value(DOMAINS[d], raw, picks))
                .collect();
            // an overflowing sum is no delta a commit could publish
            let _ = delta.insert(Tuple::new(values), *m);
        }
        deltas.insert(name, delta);
    }
    deltas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn committed_deltas_survive_the_wal_byte_for_byte(
        raw in proptest::collection::vec(raw_relation(), 1..5),
        names in proptest::collection::vec(0u8..16, 0..5),
        time in 1u64..1_000_000,
    ) {
        let deltas = deltas_of(&raw, &names);
        let record = WalRecord::Delta { time, deltas: deltas.clone() };
        // the live hook encodes the body before it knows the time
        let mut body = Vec::new();
        wal::put_deltas(&mut body, &deltas);
        let frame = wal::delta_frame(time, &body);
        prop_assert_eq!(&frame, &record.encode_frame());

        let mut image = wal::empty_wal();
        image.extend_from_slice(&frame);
        let scanned = wal::scan(&image).expect("intact frame");
        prop_assert_eq!(scanned.valid_len as usize, image.len());
        let mut written = deltas;
        written.retain(|_, d| !d.is_empty());
        prop_assert_eq!(scanned.records, vec![WalRecord::Delta { time, deltas: written }]);
    }

    #[test]
    fn scan_never_panics_on_arbitrary_tails(tail in proptest::collection::vec(0u8..=255, 0..512)) {
        let mut image = wal::empty_wal();
        image.extend_from_slice(&tail);
        let _ = wal::scan(&image);
    }

    #[test]
    fn scan_never_panics_on_mutated_checksummed_payloads(
        which in 0usize..6,
        raw in proptest::collection::vec(raw_relation(), 1..3),
        edits in proptest::collection::vec((0usize..=usize::MAX, 0u8..=255), 1..6),
        cut in 0usize..64,
    ) {
        let records = [
            WalRecord::Declare {
                name: "t".to_owned(),
                schema: Schema::named(&[("s", DataType::Str), ("d", DataType::Date)]),
            },
            WalRecord::Delta { time: 1, deltas: deltas_of(&raw, &[]) },
            WalRecord::Commit { time: 2, text: "insert(t, t)".to_owned() },
            WalRecord::DeclareView { name: "v".to_owned(), text: "t".to_owned() },
            WalRecord::DeclareIndex { relation: "t".to_owned(), keys: vec![1, 2] },
            WalRecord::DeclareKey { relation: "t".to_owned(), attrs: vec![1] },
        ];
        let mut payload = records[which].encode_payload();
        for (at, byte) in edits {
            let i = at % payload.len();
            payload[i] = byte;
        }
        payload.truncate(payload.len() - cut % payload.len());
        let mut image = wal::empty_wal();
        image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        image.extend_from_slice(&mera_store::crc::crc32(&payload).to_le_bytes());
        image.extend_from_slice(&payload);
        // intact framing: whatever the payload, the scanner decodes it or
        // reports corruption
        let _ = wal::scan(&image);
    }
}
