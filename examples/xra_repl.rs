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

use mera::lang::{RunResult, Session};

fn main() -> io::Result<()> {
    let preload = std::env::args().any(|a| a == "--beer");
    let mut session = if preload {
        Session::with_database(mera::beer_database())
    } else {
        Session::new()
    };
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
        // execute once the buffer holds a complete item (ends with ';' or
        // an 'end' of a transaction)
        let trimmed = buffer.trim_end();
        let complete =
            trimmed.ends_with(';') && (!buffer.contains("begin") || trimmed.contains("end"));
        if complete {
            run(&mut session, &buffer);
            buffer.clear();
        }
        prompt(&buffer)?;
    }
    Ok(())
}

fn prompt(buffer: &str) -> io::Result<()> {
    let p = if buffer.is_empty() { "xra> " } else { "...> " };
    print!("{p}");
    io::stdout().flush()
}

fn run(session: &mut Session, src: &str) {
    match session.run_script(src) {
        Err(e) => println!("error: {e}"),
        Ok(results) => {
            for result in results {
                match result {
                    RunResult::Committed(queries) => {
                        for q in queries {
                            println!("{q}");
                        }
                        println!("ok (t={})", session.pin().time());
                    }
                    RunResult::Aborted(reason) => println!("aborted: {reason}"),
                }
            }
        }
    }
}
