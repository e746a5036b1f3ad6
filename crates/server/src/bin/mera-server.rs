//! The `mera-server` binary: serve a database directory over TCP.
//!
//! ```text
//! mera-server [--addr HOST:PORT] [--data DIR] [--fsync always|never|group]
//!             [--workers N]
//! ```
//!
//! Without `--data` the server runs on in-memory storage (state lost at
//! exit) — useful for demos and benchmarks. `--fsync group` enables
//! group commit: the WAL appends of concurrent sessions that arrive
//! while one fsync is in flight share the next one.

use std::process::ExitCode;
use std::sync::Arc;

use mera_core::prelude::DatabaseSchema;
use mera_server::{serve, ServerOptions};
use mera_store::{ConcurrentDb, DirStorage, FsyncPolicy, MemStorage, StoreOptions};

struct Args {
    addr: String,
    data: Option<String>,
    fsync: FsyncPolicy,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        data: None,
        fsync: FsyncPolicy::Always,
        workers: ServerOptions::default().workers,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--data" => args.data = Some(value("--data")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--fsync" => {
                let v = value("--fsync")?;
                args.fsync = match v.as_str() {
                    "always" => FsyncPolicy::Always,
                    "never" => FsyncPolicy::Never,
                    "group" => FsyncPolicy::Group,
                    other => return Err(format!("--fsync: bad value {other:?}")),
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: mera-server [--addr HOST:PORT] [--data DIR] \
                     [--fsync always|never|group] [--workers N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn serve_forever<S: mera_store::Storage + Send + 'static>(
    db: ConcurrentDb<S>,
    args: &Args,
) -> Result<(), String> {
    let server = serve(
        Arc::new(db),
        args.addr.as_str(),
        ServerOptions {
            workers: args.workers,
        },
    )
    .map_err(|e| format!("bind {}: {e}", args.addr))?;
    eprintln!(
        "mera-server listening on {} ({} workers, {})",
        server.local_addr(),
        args.workers,
        match &args.data {
            Some(dir) => format!("data dir {dir}"),
            None => "in-memory storage".to_owned(),
        }
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let options = StoreOptions {
        fsync: args.fsync,
        ..StoreOptions::default()
    };
    match &args.data {
        Some(dir) => {
            let storage = DirStorage::open(dir).map_err(|e| format!("open {dir}: {e}"))?;
            let db = ConcurrentDb::open(storage, DatabaseSchema::new(), options)
                .map_err(|e| format!("recover {dir}: {e}"))?;
            serve_forever(db, &args)
        }
        None => {
            let db = ConcurrentDb::open(MemStorage::new(), DatabaseSchema::new(), options)
                .map_err(|e| format!("open in-memory store: {e}"))?;
            serve_forever(db, &args)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mera-server: {msg}");
            ExitCode::FAILURE
        }
    }
}
