//! Round-trip property: `lower(parse(print(e))) == e` for every
//! expressible algebra tree, and execution of parsed programs matches
//! execution of hand-built ones.

use mera_core::prelude::*;
use mera_expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};
use mera_lang::{parse_rel, rel_to_xra, Lowerer};
use proptest::prelude::*;

fn catalog() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "r",
            Schema::named(&[("a", DataType::Int), ("tag", DataType::Str)]),
        )
        .expect("fresh")
        .with(
            "s",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh")
}

/// Builds one of a family of predicates over r's schema by index.
fn pred(ix: u8, c: i64) -> ScalarExpr {
    match ix % 6 {
        0 => ScalarExpr::attr(1).eq(ScalarExpr::int(c)),
        1 => ScalarExpr::attr(2).eq(ScalarExpr::str("it's\n\tµ")),
        2 => ScalarExpr::attr(1)
            .add(ScalarExpr::int(c))
            .cmp(CmpOp::Lt, ScalarExpr::int(7)),
        3 => ScalarExpr::attr(1)
            .cmp(CmpOp::Ge, ScalarExpr::int(c))
            .and(ScalarExpr::attr(2).eq(ScalarExpr::str("x")).not()),
        4 => ScalarExpr::bool(true).or(ScalarExpr::attr(1).eq(ScalarExpr::int(c))),
        _ => ScalarExpr::Neg(std::sync::Arc::new(ScalarExpr::attr(1))).eq(ScalarExpr::int(-c)),
    }
}

/// Builds an algebra tree from flat selectors (mirrors the optimizer's
/// test generator; nested proptest combinators overflow debug stacks).
fn build(shape: u8, p_ix: u8, q_ix: u8, c: i64) -> RelExpr {
    let r = RelExpr::scan("r");
    match shape % 10 {
        0 => r,
        1 => r.select(pred(p_ix, c)),
        2 => r
            .select(pred(p_ix, c))
            .union(RelExpr::scan("r").select(pred(q_ix, c))),
        3 => r.difference(RelExpr::scan("r")).distinct(),
        4 => r.intersect(RelExpr::scan("r")).project(&[2, 1]),
        5 => r.product(RelExpr::scan("s")),
        6 => r.join(
            RelExpr::scan("s"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        ),
        7 => r.ext_project(vec![
            ScalarExpr::attr(1).mul(ScalarExpr::int(c.max(1))),
            ScalarExpr::attr(2).concat_with(ScalarExpr::str("!")),
        ]),
        8 => r.group_by(&[2], Aggregate::Cnt, 1),
        _ => r.select(pred(p_ix, c)).group_by(&[], Aggregate::Sum, 1),
    }
}

proptest! {
    #[test]
    fn print_parse_lower_is_identity(
        shape in 0u8..10,
        p_ix in 0u8..6,
        q_ix in 0u8..6,
        c in -3i64..7,
    ) {
        let e = build(shape, p_ix, q_ix, c);
        let src = rel_to_xra(&e);
        let parsed = parse_rel(&src)
            .unwrap_or_else(|err| panic!("printer produced unparseable source {src:?}: {err}"));
        let cat = catalog();
        let lowerer = Lowerer::new(&cat);
        let lowered = lowerer
            .lower_rel(&parsed)
            .unwrap_or_else(|err| panic!("round-trip failed to lower {src:?}: {err}"));
        prop_assert_eq!(lowered, e, "round-trip changed the tree for {}", src);
    }

    /// Arbitrary (interned) string literals survive print → parse → lower,
    /// including quotes, spaces and non-ASCII content.
    #[test]
    fn string_literal_roundtrip(ix in proptest::collection::vec(0usize..10, 0..10)) {
        let alphabet = ['a', 'z', '0', ' ', '\'', 'é', 'µ', '_', '!', 'Q'];
        let s: String = ix.into_iter().map(|i| alphabet[i]).collect();
        let e = RelExpr::scan("r").select(ScalarExpr::attr(2).eq(ScalarExpr::str(&s)));
        let src = rel_to_xra(&e);
        let parsed = parse_rel(&src)
            .unwrap_or_else(|err| panic!("printer produced unparseable source {src:?}: {err}"));
        let cat = catalog();
        let lowered = Lowerer::new(&cat)
            .lower_rel(&parsed)
            .unwrap_or_else(|err| panic!("round-trip failed to lower {src:?}: {err}"));
        prop_assert_eq!(lowered, e, "round-trip changed string literal for {}", src);
    }

    /// A `values` literal survives the round trip with duplicates intact.
    #[test]
    fn values_roundtrip(rows in proptest::collection::vec((0i64..4, 0i64..3), 0..6)) {
        let schema = std::sync::Arc::new(Schema::anon(&[DataType::Int, DataType::Int]));
        let rel = Relation::from_tuples(
            schema,
            rows.iter().map(|&(a, b)| mera_core::tuple![a, b]),
        )
        .expect("typed");
        let e = RelExpr::values(rel.clone());
        let src = rel_to_xra(&e);
        let parsed = parse_rel(&src).expect("parses");
        let cat = catalog();
        let lowered = Lowerer::new(&cat).lower_rel(&parsed).expect("lowers");
        let RelExpr::Values(back) = lowered else {
            panic!("expected values literal back");
        };
        prop_assert_eq!(back.as_ref(), &rel);
    }
}

/// Statements round-trip through the printer and parser too: for each
/// statement shape, `lower(parse(print(s)))` reproduces the original.
#[test]
fn statement_roundtrip() {
    use mera_lang::{parse_program, program_to_xra};
    use mera_txn::{Program, Statement};

    let rows = Relation::from_tuples(
        std::sync::Arc::new(Schema::named(&[
            ("a", DataType::Int),
            ("tag", DataType::Str),
        ])),
        vec![mera_core::tuple![1_i64, "x"], mera_core::tuple![1_i64, "x"]],
    )
    .expect("typed");
    let program = Program::new()
        .then(Statement::insert("r", RelExpr::values(rows)))
        .then(Statement::delete(
            "r",
            RelExpr::scan("r").select(ScalarExpr::attr(2).eq(ScalarExpr::str("it's"))),
        ))
        .then(Statement::update(
            "r",
            RelExpr::scan("r"),
            vec![
                ScalarExpr::attr(1).mul(ScalarExpr::int(2)),
                ScalarExpr::attr(2),
            ],
        ))
        .then(Statement::assign(
            "t",
            RelExpr::scan("r").group_by(&[2], Aggregate::Cnt, 1),
        ))
        .then(Statement::query(RelExpr::scan("t").distinct().closure()));

    let src = program_to_xra(&program);
    let parsed = parse_program(&src).unwrap_or_else(|e| panic!("unparseable {src:?}: {e}"));
    let cat = catalog();
    let mut lowerer = Lowerer::new(&cat);
    // note: lowering `t = …` registers the temporary so `?t` resolves
    let lowered = lowerer
        .lower_program(&parsed)
        .unwrap_or_else(|e| panic!("unlowerable {src:?}: {e}"));
    assert_eq!(lowered, program, "round trip changed the program:\n{src}");
}

// ----------------------------------------------------------------------
// hostile string literals: Program → XRA → Program
// ----------------------------------------------------------------------

/// The hostile alphabet: XRA string syntax characters, whitespace the
/// lexer must carry through, and multi-byte UTF-8. View definitions are
/// stored as XRA text, and the REPL reads it, so the printer must quote
/// every one of them back to the same literal.
const NASTY: &[char] = &[
    'a', 'b', '\'', '\n', '\t', ' ', '"', '\\', 'é', 'µ', '—', 'β', '0', ',', '(', '%',
];

fn text_catalog() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "t",
            Schema::named(&[("name", DataType::Str), ("n", DataType::Int)]),
        )
        .expect("fresh")
}

fn string_of(picks: &[u8]) -> String {
    picks
        .iter()
        .map(|&i| NASTY[i as usize % NASTY.len()])
        .collect()
}

/// Builds one statement by shape selector; every shape embeds the
/// generated strings somewhere the printer must quote them.
fn hostile_statement(shape: u8, s1: String, s2: String, n: i64) -> mera_txn::Statement {
    use mera_txn::Statement;
    let values = |strings: Vec<String>| {
        let sch = std::sync::Arc::new(Schema::anon(&[DataType::Str, DataType::Int]));
        let tuples: Vec<Tuple> = strings
            .into_iter()
            .enumerate()
            .map(|(i, s)| Tuple::new(vec![Value::str(s), Value::Int(n + i as i64)]))
            .collect();
        RelExpr::Values(std::sync::Arc::new(
            Relation::from_tuples(sch, tuples).expect("well-typed"),
        ))
    };
    match shape % 5 {
        0 => Statement::insert("t", values(vec![s1, s2])),
        1 => Statement::delete(
            "t",
            RelExpr::scan("t").select(ScalarExpr::attr(1).eq(ScalarExpr::str(s1))),
        ),
        2 => Statement::query(
            RelExpr::scan("t")
                .select(ScalarExpr::attr(1).eq(ScalarExpr::str(s1)))
                .ext_project(vec![ScalarExpr::attr(1).concat_with(ScalarExpr::str(s2))]),
        ),
        3 => Statement::assign("tmp", values(vec![s1, s2])),
        _ => Statement::insert("t", values(vec![s1])),
    }
}

/// Deterministic regression case: a quote inside a `values` row literal.
/// The printer once emitted it unescaped, producing text the parser could
/// not read back.
#[test]
fn quoted_values_literal_survives() {
    use mera_lang::{parse_program, program_to_xra};
    let program = mera_txn::Program::single(hostile_statement(
        0,
        "it's\n'‚µ'".to_string(),
        String::new(),
        7,
    ));
    let text = program_to_xra(&program);
    let parsed = parse_program(&text).unwrap_or_else(|e| panic!("unparseable {text:?}: {e}"));
    let cat = text_catalog();
    let mut lowerer = Lowerer::new(&cat);
    assert_eq!(lowerer.lower_program(&parsed).expect("lowers"), program);
}

proptest! {
    #[test]
    fn hostile_program_text_roundtrips(
        shapes in proptest::collection::vec(0u8..5, 1..4),
        picks1 in proptest::collection::vec(0u8..16, 0..10),
        picks2 in proptest::collection::vec(0u8..16, 0..10),
        n in -3i64..100,
    ) {
        use mera_lang::{parse_program, program_to_xra};
        let s1 = string_of(&picks1);
        let s2 = string_of(&picks2);
        let program = mera_txn::Program {
            statements: shapes
                .iter()
                .map(|&sh| hostile_statement(sh, s1.clone(), s2.clone(), n))
                .collect(),
        };
        let text = program_to_xra(&program);
        let parsed = parse_program(&text).unwrap_or_else(|e| {
            panic!("printer produced unparseable text {text:?}: {e}")
        });
        let cat = text_catalog();
        let mut lowerer = Lowerer::new(&cat);
        let lowered = lowerer.lower_program(&parsed).unwrap_or_else(|e| {
            panic!("printed text fails to lower {text:?}: {e}")
        });
        prop_assert_eq!(lowered, program);
    }
}
