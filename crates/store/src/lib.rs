//! # mera-store — durability for the transaction log
//!
//! The paper's transaction model (§4.3) treats a database as a sequence
//! of states `D_0 → D_1 → …` where each committed transaction is a
//! transition. `mera-txn` realizes the transitions (`Version`,
//! `MvccManager`); this crate hangs a *logical* redo log of committed
//! deltas on the manager's durability hook, so that the whole state
//! sequence survives process death:
//!
//! * [`wal`] — a write-ahead log of length-prefixed, CRC-32-checked,
//!   versioned records: one `Delta` per committed transaction (logical
//!   time + the net ℤ-delta `D_{t+1} − D_t` it published) and one
//!   declaration per schema change (relation, view, index, key).
//!   Recovery truncates torn tails; CRC-valid garbage is a hard error.
//! * [`snapshot`] — checkpoint images of a full [`Database`] at one
//!   logical time, swapped in atomically so a crash never exposes a
//!   half-written snapshot.
//! * [`ConcurrentDb`] — the durable front door over one `MvccManager`,
//!   enforcing log-then-publish: a commit is appended (and fsynced, per
//!   [`FsyncPolicy`], with cross-client group commit) before the new
//!   version is visible; aborts write nothing. Its
//!   [`run_script`](ConcurrentDb::run_script) and
//!   [`run_sql`](ConcurrentDb::run_sql) are the only doors that run XRA
//!   and SQL text; over [`MemStorage`] they are the volatile ones too.
//! * [`durable`] — the store options, and recovery: snapshot restore,
//!   torn-tail truncation, and a fold of the logged deltas into the
//!   version the chain restarts from.
//! * [`Storage`] — the five-operation backend trait, with [`DirStorage`]
//!   (real files) and [`MemStorage`] (deterministic fault injection:
//!   crash after N write units, inspect the surviving bytes, reboot).
//!
//! The crash-recovery contract, tested by the crash matrix in
//! `tests/crash_matrix.rs`: after a crash at *any* write boundary,
//! recovery yields exactly the state produced by some prefix of the
//! durable history — never a torn state, never reordered effects.
//!
//! ```
//! use mera_core::prelude::*;
//! use mera_store::{ConcurrentDb, MemStorage, StoreOptions};
//!
//! let schema = DatabaseSchema::new()
//!     .with("beer", Schema::named(&[("name", DataType::Str)]))?;
//! let disk = MemStorage::new();
//! let db = ConcurrentDb::open(disk.clone(), schema, StoreOptions::default())?;
//! db.run_sql("INSERT INTO beer VALUES ('Grolsch')")?;
//! drop(db); // "power loss"
//!
//! let rebooted = MemStorage::from_image(disk.image());
//! let db = ConcurrentDb::open(rebooted, DatabaseSchema::new(), StoreOptions::default())?;
//! assert_eq!(db.pin().database().relation("beer")?.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod concurrent;
pub mod crc;
pub mod durable;
pub mod error;
pub mod snapshot;
pub mod storage;
pub mod wal;

pub use concurrent::{is_conflict, ConcurrentDb};
pub use durable::{FsyncPolicy, StoreOptions, SNAPSHOT_FILE, WAL_FILE};
pub use error::{StoreError, StoreResult};
pub use storage::{DirStorage, MemStorage, Storage};
pub use wal::{ScanResult, WalRecord};

#[cfg(doc)]
use mera_core::prelude::Database;
