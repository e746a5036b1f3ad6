//! The XRA parser never panics. Text from a client reaches
//! [`parse_script`] before anything else looks at it, so it must answer
//! `Ok` or `Err` on arbitrary text, and on well-formed scripts that were
//! mutated character by character or truncated.

use mera_lang::parse_script;
use proptest::prelude::*;

/// Well-formed scripts covering every production of the grammar.
const SCRIPTS: [&str; 6] = [
    "relation beer (name: str, brewery: str, alcperc: real);\n\
     relation brewery (name: str, country: str);\n\
     key beer (name, brewery);",
    "insert(beer, values (str, str, real) {('Bock', 'X', 6.5), ('Pils', 'Y', -4.0)});\n\
     delete(beer, select[(%3 > 5.0) and not (%1 = 'Bock')](beer));",
    "update(beer, select[%2 = 'X'](beer), (%1, %2, %3 * 1.5 + 1 mod 3));\n\
     t = project[%1, %3 / 2](unique(beer));\n\
     ?groupby[(%1), AVG, %2](t);",
    "view strong = join[%2 = %4](select[%3 >= 6](beer), brewery);",
    "begin insert(r, values (int, real, bool) {(1, -2.5, true), (9223372036854775807, 0.0, false)}); \
     ?(r union r) minus (r intersect r) times r end;",
    "?groupby[(), CNT, %1](closure(project[%1, %2](e)));\n\
     ?project[(%1 || 'x'), -%2](values (str, int) {});",
];

/// Characters the mutations draw from: the grammar's punctuation, a
/// digit, a letter, quotes, whitespace and multi-byte characters.
const ALPHABET: &[char] = &[
    '(', ')', '[', ']', '{', '}', ',', ';', ':', '%', '?', '=', '<', '>', '!', '\'', '"', '-', '+',
    '*', '/', '.', '$', '|', '1', '9', 'a', 'z', ' ', '\n', '\t', 'é', 'β', '—', '\0',
];

/// `text` with each `(position, pick)` edit applied — a replacement, a
/// deletion or an insertion at a character boundary — and then cut short
/// after `keep` characters.
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
    fn parse_script_never_panics_on_arbitrary_text(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..200),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = parse_script(&text);
    }

    #[test]
    fn parse_script_never_panics_on_mutated_scripts(
        which in 0usize..SCRIPTS.len(),
        edits in proptest::collection::vec((0usize..=usize::MAX, 0usize..64, 0u8..3), 0..6),
        keep in 0usize..=usize::MAX,
    ) {
        let _ = parse_script(&mutate(SCRIPTS[which], &edits, keep));
    }

    #[test]
    fn every_prefix_of_a_script_parses_or_errs(which in 0usize..SCRIPTS.len()) {
        let script = SCRIPTS[which];
        for (end, _) in script.char_indices() {
            let _ = parse_script(&script[..end]);
        }
    }
}

#[test]
fn the_seed_scripts_are_well_formed() {
    for script in SCRIPTS {
        parse_script(script).unwrap_or_else(|e| panic!("{script}: {e}"));
    }
}

#[test]
fn edge_literals_answer_without_panicking() {
    for text in [
        "?select[%99999999999999999999 = 1](r);",
        "?select[%0 = -9223372036854775808](r);",
        "?project[1e999, 1.7976931348623157e309](r);",
        "?groupby[(%18446744073709551615), SUM, %1](r);",
        "insert(r, values (int) {(99999999999999999999)});",
        "?select['unterminated](r);",
        "key r (%0);",
        "begin end; begin",
    ] {
        let _ = parse_script(text);
    }
}
