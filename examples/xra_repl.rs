//! An interactive XRA shell over the multi-set algebra.
//!
//! Reads statements from stdin (or a piped script) and executes each
//! input line-group as an atomic transaction, printing `?E` results as
//! tables. Start with a pre-loaded beer database via `--beer`.
//!
//! ```text
//! $ cargo run --example xra_repl -- --beer
//! xra> ?project[name](select[country = 'NL'](join[%2 = %4](beer, brewery)));
//! xra> begin insert(beer, values (str,str,real) {('New','Grolsche',5.5)}); ?beer; end;
//! xra> relation drinker (name: str, likes: str);
//! ```
//!
//! Input ends at EOF; `\q` quits.

use std::io::{self, BufRead, Write};

use mera::core::prelude::DatabaseSchema;
use mera::lang::token::{lex, Spanned, Token};
use mera::lang::RunResult;
use mera::store::{snapshot, ConcurrentDb, MemStorage, Storage, StoreOptions, SNAPSHOT_FILE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preload = std::env::args().any(|a| a == "--beer");
    // a volatile database; `--beer` seeds it from a snapshot of the fixture
    let mut disk = MemStorage::new();
    if preload {
        disk.replace_atomic(SNAPSHOT_FILE, &snapshot::encode(&mera::beer_database()))?;
    }
    let db = ConcurrentDb::open(disk, DatabaseSchema::new(), StoreOptions::default())?;
    println!("mera XRA shell — multi-set extended relational algebra (ICDE '94)");
    if preload {
        println!("pre-loaded relations: beer (6 tuples), brewery (3 tuples)");
    }
    println!("statements end with ';' — '\\q' quits\n");

    let stdin = io::stdin();
    let mut buffer = String::new();
    prompt(&buffer)?;
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim() == "\\q" {
            break;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if complete(&buffer) {
            run(&db, &buffer);
            buffer.clear();
        }
        prompt(&buffer)?;
    }
    Ok(())
}

/// The buffer holds a complete item once its last token is `;` and every
/// `begin` keyword has its `end`. Text that does not lex is complete too,
/// so the run reports the error.
fn complete(buffer: &str) -> bool {
    let Ok(tokens) = lex(buffer) else {
        return true;
    };
    let keywords = |kw: &str| {
        let is_kw = |t: &&Spanned| matches!(&t.token, Token::Ident(s) if s == kw);
        tokens.iter().filter(is_kw).count()
    };
    matches!(tokens.last(), Some(t) if t.token == Token::Semi)
        && keywords("begin") <= keywords("end")
}

fn prompt(buffer: &str) -> io::Result<()> {
    let p = if buffer.is_empty() { "xra> " } else { "...> " };
    print!("{p}");
    io::stdout().flush()
}

fn run(db: &ConcurrentDb<MemStorage>, src: &str) {
    match db.run_script(src) {
        Err(e) => println!("error: {e}"),
        Ok(results) => {
            for result in results {
                match result {
                    RunResult::Committed(queries) => {
                        for q in queries {
                            println!("{q}");
                        }
                        println!("ok (t={})", db.pin().time());
                    }
                    RunResult::Aborted(reason) => println!("aborted: {reason}"),
                }
            }
        }
    }
}
