//! The SQL front end never panics. Text from a client reaches
//! [`parse_sql`] and then [`translate`] before anything else looks at it,
//! so each must answer `Ok` or `Err` on arbitrary text, and on
//! well-formed statements that were mutated character by character or
//! truncated — whatever parses is translated against a catalog.

use mera_core::prelude::*;
use mera_sql::{parse_sql, translate};
use proptest::prelude::*;

/// Well-formed statements covering every statement kind and clause.
const STATEMENTS: [&str; 10] = [
    "SELECT country, AVG(alcperc) FROM beer, brewery \
     WHERE beer.brewery = brewery.name GROUP BY country",
    "SELECT brewery, COUNT(*) AS n FROM beer GROUP BY brewery HAVING COUNT(*) > 1",
    "SELECT DISTINCT * FROM beer WHERE NOT (alcperc >= 5.0 OR name <> 'Bock') AND -alcperc < 2",
    "SELECT name, alcperc * 2 + 1 / 3 - 4 AS x FROM beer WHERE brewery = 'X'",
    "INSERT INTO beer VALUES ('G', 'G', 5.0), ('H', 'H', -4.5)",
    "UPDATE beer SET alcperc = alcperc * 1.1, name = 'x' WHERE brewery = 'Guineken'",
    "DELETE FROM beer WHERE alcperc < 2.0",
    "CREATE TABLE member (name VARCHAR(20), town TEXT, age INT, PRIMARY KEY (name, town))",
    "CREATE TABLE r (a INT UNIQUE, b DOUBLE, UNIQUE (a, b))",
    "CREATE MATERIALIZED VIEW strong AS SELECT name FROM beer WHERE alcperc > 6",
];

/// Characters the mutations draw from: SQL punctuation and operators, a
/// digit, a letter, quotes, whitespace and multi-byte characters.
const ALPHABET: &[char] = &[
    '(', ')', ',', ';', '.', '*', '=', '<', '>', '!', '\'', '"', '-', '+', '/', '%', '1', '9', 'a',
    'Z', '_', ' ', '\n', '\t', 'é', 'β', '—', '\0',
];

fn catalog() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "beer",
            Schema::named(&[
                ("name", DataType::Str),
                ("brewery", DataType::Str),
                ("alcperc", DataType::Real),
            ]),
        )
        .expect("fresh")
        .with(
            "brewery",
            Schema::named(&[("name", DataType::Str), ("country", DataType::Str)]),
        )
        .expect("fresh")
}

/// Parses `text` and translates whatever parses.
fn front_end(text: &str, catalog: &DatabaseSchema) {
    if let Ok(stmt) = parse_sql(text) {
        let _ = translate(&stmt, catalog);
    }
}

/// `text` with each `(position, pick, kind)` edit applied — a
/// replacement, a deletion or an insertion at a character boundary — and
/// then cut short after `keep` characters.
fn mutate(text: &str, edits: &[(usize, usize, u8)], keep: usize) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(at, pick, kind) in edits {
        let c = ALPHABET[pick % ALPHABET.len()];
        let i = at % (chars.len() + 1);
        match kind % 3 {
            0 if i < chars.len() => chars[i] = c,
            1 if i < chars.len() => {
                chars.remove(i);
            }
            _ => chars.insert(i, c),
        }
    }
    chars.truncate(keep);
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_front_end_never_panics_on_arbitrary_text(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..200),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        front_end(&text, &catalog());
    }

    #[test]
    fn the_front_end_never_panics_on_mutated_statements(
        which in 0usize..STATEMENTS.len(),
        edits in proptest::collection::vec((0usize..=usize::MAX, 0usize..64, 0u8..3), 0..6),
        keep in 0usize..=usize::MAX,
    ) {
        front_end(&mutate(STATEMENTS[which], &edits, keep), &catalog());
    }

    #[test]
    fn every_prefix_of_a_statement_parses_or_errs(which in 0usize..STATEMENTS.len()) {
        let statement = STATEMENTS[which];
        let catalog = catalog();
        for (end, _) in statement.char_indices() {
            front_end(&statement[..end], &catalog);
        }
    }
}

#[test]
fn the_seed_statements_parse_and_translate() {
    for statement in STATEMENTS {
        let stmt = parse_sql(statement).unwrap_or_else(|e| panic!("{statement}: {e}"));
        translate(&stmt, &catalog()).unwrap_or_else(|e| panic!("{statement}: {e}"));
    }
}

#[test]
fn edge_literals_answer_without_panicking() {
    for text in [
        "SELECT 99999999999999999999 FROM beer",
        "SELECT -9223372036854775808 FROM beer",
        "SELECT 1e999, 1.7976931348623157e309 FROM beer",
        "SELECT * FROM beer WHERE alcperc = 0.000000000000000000000000000001",
        "SELECT 'unterminated FROM beer",
        "SELECT \"quoted\" FROM beer",
        "SELECT COUNT(*) FROM beer GROUP BY",
        "SELECT * FROM beer, beer, beer",
        "INSERT INTO beer VALUES ()",
        "CREATE TABLE t (a VARCHAR(99999999999999999999))",
    ] {
        front_end(text, &catalog());
    }
}
