//! The write-ahead log: framed, checksummed, versioned redo records.
//!
//! # File layout
//!
//! ```text
//! +----------------+  8 bytes  magic "MERAWAL1"
//! | header         |
//! +----------------+
//! | record frame 0 |  u32le payload_len | u32le crc32(payload) | payload
//! | record frame 1 |
//! | ...            |
//! +----------------+
//! ```
//!
//! Each payload starts with a one-byte format version (currently
//! [`RECORD_VERSION`]) and a one-byte record kind:
//!
//! * kind 1 — **Commit**: `u64le` logical time, then the program as XRA
//!   source text (`u32le` length + UTF-8 bytes), as earlier builds logged
//!   commits. Still read, never written; recovery refuses one past the
//!   snapshot ([`StoreError::TextCommitRecord`]).
//! * kind 2 — **Declare**: a relation name and its schema. Written when a
//!   relation is created (including the initial schema on first open), so
//!   a WAL is self-contained: recovery needs no out-of-band catalog.
//! * kind 3 — **DeclareView**: a materialized-view name and its defining
//!   expression as XRA source text. Recovery rebuilds the view's contents
//!   by recomputing the expression over the recovered state — which the
//!   incremental-maintenance invariant guarantees equals the state the
//!   view held at the crash.
//! * kind 4 — **DeclareIndex**: a relation name and the 1-based key
//!   attributes of a secondary index. Only the *definition* is durable;
//!   recovery rebuilds the entries from the recovered relation — which
//!   the index-maintenance invariant guarantees equals the index at the
//!   crash.
//! * kind 5 — **DeclareKey**: a relation name and the 1-based attributes
//!   of a declared key constraint. Only the definition is durable;
//!   recovery rebuilds the per-key-point multiplicity counts from the
//!   recovered relation. The replayed history was committed *under* the
//!   key, so rebuilding cannot fail.
//! * kind 6 — **Delta**: `u64le` time, then the net ℤ-delta `D_t − D_{t−1}`
//!   per written relation in name order: name, `u16` arity and a domain
//!   tag per attribute, `u32le` count, then per tuple in sorted order its
//!   multiplicity (`i64le`, ≠ 0) and values.
//!
//! # Torn tails vs. corruption
//!
//! Recovery scans frames in order. A frame whose length field runs past
//! the end of the file, or whose CRC does not match, is a *torn tail* —
//! the expected wreckage of a crash mid-append. The scan stops there and
//! reports the byte offset of the last intact frame so the caller can
//! truncate. A frame whose CRC matches but whose payload does not decode
//! is different: fsync said those bytes were durable, so the log is
//! *corrupt* (or written by a future version) and recovery must fail
//! loudly rather than silently drop committed work.

use crate::codec::{self, DecodeError, DecodeResult, Reader};
use crate::crc::crc32;
use crate::error::{StoreError, StoreResult};
use mera_core::prelude::*;
use mera_txn::{DeltaMap, TupleDelta};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"MERAWAL1";

/// Format version written into every record payload.
pub const RECORD_VERSION: u8 = 1;

const KIND_COMMIT: u8 = 1;
const KIND_DECLARE: u8 = 2;
const KIND_DECLARE_VIEW: u8 = 3;
const KIND_DECLARE_INDEX: u8 = 4;
const KIND_DECLARE_KEY: u8 = 5;
const KIND_DELTA: u8 = 6;

/// One durable redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed transaction as earlier builds logged it: the logical
    /// commit time and the program as XRA source text. Never written.
    Commit {
        /// Logical time at which the transaction committed.
        time: u64,
        /// The committed program, as XRA text (empty for the empty
        /// program).
        text: String,
    },
    /// A committed transaction: the logical commit time and the net
    /// signed delta per written relation that the commit published.
    Delta {
        /// Logical time at which the transaction committed.
        time: u64,
        /// The committed delta `D_{time} − D_{time−1}`.
        deltas: DeltaMap,
    },
    /// A relation declared into the schema.
    Declare {
        /// Relation name.
        name: String,
        /// Attribute list of the relation.
        schema: Schema,
    },
    /// A materialized view declared into the catalog.
    DeclareView {
        /// View name.
        name: String,
        /// The defining expression, as XRA text.
        text: String,
    },
    /// A secondary index declared into the catalog.
    DeclareIndex {
        /// The indexed relation.
        relation: String,
        /// 1-based key attributes.
        keys: Vec<usize>,
    },
    /// A key constraint declared into the catalog.
    DeclareKey {
        /// The constrained relation.
        relation: String,
        /// 1-based key attributes.
        attrs: Vec<usize>,
    },
}

impl WalRecord {
    /// Encodes the record payload (version byte, kind byte, body).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = vec![RECORD_VERSION];
        match self {
            WalRecord::Commit { time, text } => {
                out.push(KIND_COMMIT);
                out.extend_from_slice(&time.to_le_bytes());
                codec::put_str(&mut out, text);
            }
            WalRecord::Declare { name, schema } => {
                out.push(KIND_DECLARE);
                codec::put_str(&mut out, name);
                codec::put_schema(&mut out, schema);
            }
            WalRecord::DeclareView { name, text } => {
                out.push(KIND_DECLARE_VIEW);
                codec::put_str(&mut out, name);
                codec::put_str(&mut out, text);
            }
            WalRecord::DeclareIndex { relation, keys } => {
                out.push(KIND_DECLARE_INDEX);
                codec::put_str(&mut out, relation);
                codec::put_attrs(&mut out, keys);
            }
            WalRecord::DeclareKey { relation, attrs } => {
                out.push(KIND_DECLARE_KEY);
                codec::put_str(&mut out, relation);
                codec::put_attrs(&mut out, attrs);
            }
            WalRecord::Delta { time, deltas } => {
                out.push(KIND_DELTA);
                out.extend_from_slice(&time.to_le_bytes());
                put_deltas(&mut out, deltas);
            }
        }
        out
    }

    /// Decodes a payload previously produced by [`encode_payload`]
    /// (the CRC has already been verified by the caller).
    ///
    /// [`encode_payload`]: WalRecord::encode_payload
    pub fn decode_payload(payload: &[u8]) -> StoreResult<Self> {
        let mut r = Reader::new(payload);
        let bad = |e: codec::DecodeError| StoreError::CorruptWal(e.0);
        let version = r.u8().map_err(bad)?;
        if version != RECORD_VERSION {
            return Err(StoreError::CorruptWal(format!(
                "unknown record version {version} (this build reads v{RECORD_VERSION})"
            )));
        }
        let kind = r.u8().map_err(bad)?;
        let record = match kind {
            KIND_COMMIT => WalRecord::Commit {
                time: r.u64().map_err(bad)?,
                text: r.str().map_err(bad)?,
            },
            KIND_DECLARE => WalRecord::Declare {
                name: r.str().map_err(bad)?,
                schema: codec::read_schema(&mut r).map_err(bad)?,
            },
            KIND_DECLARE_VIEW => WalRecord::DeclareView {
                name: r.str().map_err(bad)?,
                text: r.str().map_err(bad)?,
            },
            KIND_DECLARE_INDEX => WalRecord::DeclareIndex {
                relation: r.str().map_err(bad)?,
                keys: codec::read_attrs(&mut r).map_err(bad)?,
            },
            KIND_DECLARE_KEY => WalRecord::DeclareKey {
                relation: r.str().map_err(bad)?,
                attrs: codec::read_attrs(&mut r).map_err(bad)?,
            },
            KIND_DELTA => WalRecord::Delta {
                time: r.u64().map_err(bad)?,
                deltas: read_deltas(&mut r).map_err(bad)?,
            },
            other => {
                return Err(StoreError::CorruptWal(format!(
                    "unknown record kind {other}"
                )))
            }
        };
        if !r.is_exhausted() {
            return Err(StoreError::CorruptWal(format!(
                "{} trailing bytes after record body",
                r.remaining()
            )));
        }
        Ok(record)
    }

    /// Encodes a full frame: length, CRC, payload.
    pub fn encode_frame(&self) -> Vec<u8> {
        frame(&self.encode_payload())
    }
}

/// Frames a payload: length, CRC, payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes the body of a [`WalRecord::Delta`], after its time.
pub fn put_deltas(out: &mut Vec<u8>, deltas: &DeltaMap) {
    for (name, delta) in deltas {
        let mut pairs: Vec<(&Tuple, i64)> = delta.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let Some((first, _)) = pairs.first() else {
            continue;
        };
        codec::put_str(out, name);
        out.extend_from_slice(&(first.arity() as u16).to_le_bytes());
        for v in first.values() {
            out.push(codec::dtype_tag(v.data_type()));
        }
        out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        codec::put_counted(out, pairs.into_iter().map(|(t, m)| (t, m as u64)));
    }
}

/// The frame of the [`WalRecord::Delta`] at `time` whose body
/// [`put_deltas`] encoded before the commit time was known.
pub fn delta_frame(time: LogicalTime, body: &[u8]) -> Vec<u8> {
    let mut payload = vec![RECORD_VERSION, KIND_DELTA];
    payload.extend_from_slice(&time.to_le_bytes());
    payload.extend_from_slice(body);
    frame(&payload)
}

/// Decodes a body written by [`put_deltas`], refusing relations out of
/// name order and multiplicities a delta cannot hold.
fn read_deltas(r: &mut Reader<'_>) -> DecodeResult<DeltaMap> {
    let mut deltas = DeltaMap::new();
    while !r.is_exhausted() {
        let name = r.str()?;
        if deltas.keys().next_back() >= Some(&name) {
            return Err(DecodeError(format!("'{name}' is out of name order")));
        }
        let dtypes = (0..r.u16()?)
            .map(|_| codec::dtype_of_tag(r.u8()?))
            .collect::<DecodeResult<Vec<_>>>()?;
        let n = r.u32()? as usize;
        let mut counted = Vec::new();
        for (tuple, m) in codec::read_counted(r, n, &dtypes)? {
            let m = Some(m as i64).filter(|&m| m != 0 && m != i64::MIN);
            let m = m.ok_or_else(|| DecodeError(format!("bad multiplicity in '{name}'")))?;
            counted.push((tuple, m));
        }
        let delta = TupleDelta::try_from_pairs(counted.into_iter().map(Ok))
            .map_err(|e| DecodeError(e.to_string()))?;
        deltas.insert(name, delta);
    }
    Ok(deltas)
}

/// The bytes of a fresh, empty WAL (just the header).
pub fn empty_wal() -> Vec<u8> {
    WAL_MAGIC.to_vec()
}

/// The result of scanning a WAL image.
#[derive(Debug)]
pub struct ScanResult {
    /// Every intact record, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the intact prefix. Anything past this offset is a
    /// torn tail the caller should truncate before appending again.
    pub valid_len: u64,
}

/// Scans a WAL image, returning the intact records and the length of the
/// intact prefix (see the module docs for the torn-tail/corruption
/// distinction).
pub fn scan(bytes: &[u8]) -> StoreResult<ScanResult> {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StoreError::CorruptWal(
            "missing MERAWAL1 header".to_string(),
        ));
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            break; // torn: not even a complete frame header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("len 4")) as usize;
        let stored_crc = u32::from_le_bytes(rest[4..8].try_into().expect("len 4"));
        if rest.len() < 8 + len {
            break; // torn: payload runs past end of file
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != stored_crc {
            break; // torn: checksum of a half-written payload
        }
        // CRC-verified bytes that fail to decode are corruption, not a
        // torn tail; decode_payload reports them as CorruptWal.
        records.push(WalRecord::decode_payload(payload)?);
        pos += 8 + len;
    }
    Ok(ScanResult {
        records,
        valid_len: pos as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    fn sample_records() -> Vec<WalRecord> {
        let accounts: TupleDelta = [(tuple!["ann", 10_i64], 2), (tuple!["bob", 5_i64], -1)]
            .into_iter()
            .collect();
        let flags: TupleDelta = [(tuple![true], 1)].into_iter().collect();
        vec![
            WalRecord::Declare {
                name: "accounts".to_string(),
                schema: Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
            },
            WalRecord::Delta {
                time: 1,
                deltas: DeltaMap::from([
                    ("accounts".to_string(), accounts),
                    ("flags".to_string(), flags),
                ]),
            },
            WalRecord::Commit {
                time: 1,
                text: "insert accounts values ('ann', 10);".to_string(),
            },
            WalRecord::Commit {
                time: 2,
                text: String::new(),
            },
            WalRecord::DeclareView {
                name: "rich".to_string(),
                text: "select[%2 > 5](accounts)".to_string(),
            },
            WalRecord::DeclareIndex {
                relation: "accounts".to_string(),
                keys: vec![1, 2],
            },
            WalRecord::DeclareKey {
                relation: "accounts".to_string(),
                attrs: vec![1],
            },
        ]
    }

    fn image_of(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = empty_wal();
        for r in records {
            bytes.extend_from_slice(&r.encode_frame());
        }
        bytes
    }

    #[test]
    fn scan_roundtrips_intact_log() {
        let records = sample_records();
        let bytes = image_of(&records);
        let scanned = scan(&bytes).expect("intact log");
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_len, bytes.len() as u64);
    }

    #[test]
    fn every_truncation_point_is_a_clean_torn_tail() {
        let records = sample_records();
        let full = image_of(&records);
        // Cutting the file anywhere after the header must recover some
        // prefix of the records and report a valid_len that keeps only
        // intact frames.
        for cut in WAL_MAGIC.len()..full.len() {
            let scanned = scan(&full[..cut]).expect("torn tails are not errors");
            assert!(scanned.valid_len <= cut as u64);
            assert_eq!(
                scan(&full[..scanned.valid_len as usize])
                    .expect("intact prefix")
                    .records,
                scanned.records
            );
            assert!(scanned.records.len() <= records.len());
            assert_eq!(scanned.records[..], records[..scanned.records.len()]);
        }
    }

    #[test]
    fn bit_flip_in_payload_is_a_torn_tail_at_that_frame() {
        let records = sample_records();
        let mut bytes = image_of(&records);
        // Flip one byte inside the *last* frame's payload: earlier
        // records must survive, the damaged one must be dropped.
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        let scanned = scan(&bytes).expect("checksum failure is torn, not corrupt");
        assert_eq!(scanned.records, records[..records.len() - 1]);
    }

    #[test]
    fn crc_valid_garbage_is_hard_corruption() {
        let mut bytes = empty_wal();
        let payload = [9u8, 9, 9]; // bad version byte, but honest CRC
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match scan(&bytes) {
            Err(StoreError::CorruptWal(msg)) => assert!(msg.contains("version")),
            other => panic!("expected CorruptWal, got {other:?}"),
        }
    }

    #[test]
    fn missing_magic_is_rejected() {
        assert!(matches!(scan(b"NOTAWAL1"), Err(StoreError::CorruptWal(_))));
        assert!(matches!(scan(b""), Err(StoreError::CorruptWal(_))));
    }

    /// A CRC-valid payload that decodes badly is corruption, whatever lie
    /// its lengths tell.
    fn corrupt(payload: &[u8]) -> String {
        match WalRecord::decode_payload(payload) {
            Err(StoreError::CorruptWal(msg)) => msg,
            other => panic!("expected CorruptWal, got {other:?}"),
        }
    }

    #[test]
    fn claimed_lengths_past_the_payload_are_corrupt_not_allocations() {
        let mut payload = vec![RECORD_VERSION, KIND_DECLARE_INDEX];
        codec::put_str(&mut payload, "r");
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        corrupt(&payload);
        let mut payload = vec![RECORD_VERSION, KIND_DELTA];
        payload.extend_from_slice(&1u64.to_le_bytes());
        codec::put_str(&mut payload, "r");
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        corrupt(&payload);
    }

    #[test]
    fn deltas_it_would_not_write_are_corrupt() {
        let entry = |name: &str, m: i64| {
            let mut out = Vec::new();
            codec::put_str(&mut out, name);
            out.extend_from_slice(&1u16.to_le_bytes());
            out.push(codec::dtype_tag(DataType::Int));
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&m.to_le_bytes());
            out.extend_from_slice(&7i64.to_le_bytes());
            out
        };
        let payload = |entries: &[Vec<u8>]| {
            let mut out = vec![RECORD_VERSION, KIND_DELTA];
            out.extend_from_slice(&1u64.to_le_bytes());
            entries.iter().for_each(|e| out.extend_from_slice(e));
            out
        };
        assert!(WalRecord::decode_payload(&payload(&[entry("a", -3), entry("b", 1)])).is_ok());
        corrupt(&payload(&[entry("b", 1), entry("a", 1)]));
        corrupt(&payload(&[entry("a", 1), entry("a", 1)]));
        corrupt(&payload(&[entry("a", 0)]));
        corrupt(&payload(&[entry("a", i64::MIN)]));
    }

    #[test]
    fn unicode_and_quote_heavy_text_roundtrips() {
        let r = WalRecord::Commit {
            time: 7,
            text: "insert t values ('it''s\nµ—line');".to_string(),
        };
        let decoded = WalRecord::decode_payload(&r.encode_payload()).unwrap();
        assert_eq!(decoded, r);
    }
}
