//! Differential property test for the delta executor.
//!
//! Definition 4.1 states every write as a whole-relation replacement
//! (`R ← R ⊎ E`, `R ← R − E`, `R ← (R − E) ⊎ π̄ₐ(R ∩ E)`); `Version::run`
//! records each as the ℤ-delta it makes and never builds the post-state.
//! This test keeps the literal definition as the oracle: a small executor
//! over a whole `Database` that runs `union`/`difference`/`intersection`/
//! `map_tuples` per statement and evaluates expressions with the
//! reference evaluator over the database plus temporaries.
//!
//! Random programs over `r(a, b)` and `s(c, d)` mix inserts, deletes,
//! updates, assignments and queries — queries placed after writes to the
//! relation they read, deletes of more copies than are present, updates
//! whose image is a tuple that already exists — and run one transaction
//! at a time. After each, `Version::run` followed by `Version::apply` must
//! equal the literal post-state and its query outputs, an error must
//! occur in both executors or in neither, and the index declared on `r`
//! must answer point lookups like an index freshly built on the applied
//! database.

use std::collections::BTreeMap;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::provider::RelationProvider;
use mera_eval::{Engine, EngineKind, IndexSet};
use mera_expr::rel::ext_project_schema;
use mera_expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};
use mera_txn::{Ddl, ExecConfig, Program, Statement, Version};
use proptest::prelude::*;

fn base_schema() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "r",
            Schema::named(&[("a", DataType::Int), ("b", DataType::Int)]),
        )
        .expect("fresh")
        .with(
            "s",
            Schema::named(&[("c", DataType::Int), ("d", DataType::Int)]),
        )
        .expect("fresh")
}

/// The literal Definition 4.1 executor: an intermediate state is a whole
/// database plus temporaries.
struct Literal {
    db: Database,
    temps: BTreeMap<String, Relation>,
}

impl RelationProvider for Literal {
    fn relation(&self, name: &str) -> CoreResult<&Relation> {
        match self.temps.get(name) {
            Some(r) => Ok(r),
            None => self.db.relation(name),
        }
    }
}

impl Literal {
    fn eval(&self, expr: &RelExpr) -> CoreResult<Relation> {
        Engine::new(EngineKind::Reference).run(expr, self)
    }

    fn execute(&mut self, stmt: &Statement, queries: &mut Vec<Relation>) -> CoreResult<()> {
        match stmt {
            Statement::Insert { relation, expr } => {
                let value = self.eval(expr)?;
                let next = self.db.relation(relation)?.union(&value)?;
                self.db.replace(relation, next)
            }
            Statement::Delete { relation, expr } => {
                let value = self.eval(expr)?;
                let next = self.db.relation(relation)?.difference(&value)?;
                self.db.replace(relation, next)
            }
            Statement::Update {
                relation,
                expr,
                exprs,
            } => {
                let value = self.eval(expr)?;
                let current = self.db.relation(relation)?;
                let schema = Arc::clone(current.schema());
                schema.check_same_types(&*ext_project_schema(&schema, exprs)?)?;
                let image = current.intersection(&value)?.map_tuples(schema, |t| {
                    let vals: CoreResult<Vec<Value>> = exprs.iter().map(|e| e.eval(t)).collect();
                    Ok(Tuple::new(vals?))
                })?;
                let next = current.difference(&value)?.union(&image)?;
                self.db.replace(relation, next)
            }
            Statement::Assign { name, expr } => {
                if self.db.schema().contains(name) {
                    return Err(CoreError::DuplicateRelation(name.clone()));
                }
                let value = self.eval(expr)?;
                self.temps.insert(name.clone(), value);
                Ok(())
            }
            Statement::Query { expr } => {
                queries.push(self.eval(expr)?);
                Ok(())
            }
        }
    }
}

/// Runs `program` literally over `db`: the post-state and the query
/// outputs, or the first error.
fn literal(db: &Database, program: &Program) -> CoreResult<(Database, Vec<Relation>)> {
    let mut state = Literal {
        db: db.clone(),
        temps: BTreeMap::new(),
    };
    let mut queries = Vec::new();
    for stmt in &program.statements {
        state.execute(stmt, &mut queries)?;
    }
    Ok((state.db, queries))
}

fn name(is_r: bool) -> &'static str {
    if is_r {
        "r"
    } else {
        "s"
    }
}

/// Rows with multiplicities over a small domain, so that inserts, deletes
/// and update images collide with what is there.
fn rows() -> impl Strategy<Value = Vec<(i64, i64, u64)>> {
    proptest::collection::vec((0i64..4, 0i64..4, 1u64..4), 0..5)
}

fn values(rows: &[(i64, i64, u64)]) -> RelExpr {
    let schema = Arc::new(Schema::named(&[("x", DataType::Int), ("y", DataType::Int)]));
    let rel = Relation::from_counted(schema, rows.iter().map(|(a, b, m)| (tuple![*a, *b], *m)))
        .expect("well-typed rows");
    RelExpr::values(rel)
}

fn pred() -> impl Strategy<Value = ScalarExpr> {
    prop_oneof![
        (0i64..4).prop_map(|c| ScalarExpr::attr(1).eq(ScalarExpr::int(c))),
        (0i64..4).prop_map(|c| ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int(c))),
        Just(ScalarExpr::bool(true)),
    ]
}

/// Read expressions over `r`, `s` and the temporary `t`.
fn read(temp: bool) -> BoxedStrategy<RelExpr> {
    let names: usize = if temp { 3 } else { 2 };
    let leaf = (0..names).prop_map(|i| RelExpr::scan(["r", "s", "t"][i]));
    prop_oneof![
        (leaf.clone(), pred()).prop_map(|(e, p)| e.select(p)),
        leaf.clone().prop_map(|e| e.project(&[2, 1])),
        (leaf.clone(), leaf.clone()).prop_map(|(a, b)| a.union(b)),
        (leaf.clone(), leaf.clone()).prop_map(|(a, b)| a.difference(b)),
        (leaf.clone(), leaf.clone()).prop_map(|(a, b)| {
            a.join(b, ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
                .project(&[1, 4])
        }),
        leaf.clone()
            .prop_map(|e| e.group_by(&[1], Aggregate::Sum, 2).project(&[1, 2])),
        // AVG over a possibly empty input: an error in both, or in neither
        (leaf.clone(), pred()).prop_map(|(e, p)| {
            e.select(p)
                .group_by(&[], Aggregate::Avg, 2)
                .ext_project(vec![ScalarExpr::attr(1), ScalarExpr::attr(1)])
        }),
        leaf,
    ]
    .boxed()
}

/// Update expression lists: images that collide with existing tuples,
/// images that move them, and one that changes the schema (an error).
fn update_exprs() -> impl Strategy<Value = Vec<ScalarExpr>> {
    prop_oneof![
        (0i64..4).prop_map(|c| vec![ScalarExpr::attr(1), ScalarExpr::int(c)]),
        Just(vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2).add(ScalarExpr::int(1)),
        ]),
        Just(vec![ScalarExpr::attr(2), ScalarExpr::attr(1)]),
        Just(vec![ScalarExpr::attr(1)]),
    ]
}

fn statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        (any::<bool>(), rows())
            .prop_map(|(is_r, rows)| Statement::insert(name(is_r), values(&rows))),
        (any::<bool>(), read(false)).prop_map(|(is_r, e)| Statement::insert(name(is_r), e)),
        // deletes of literal rows, often more copies than are present
        (any::<bool>(), rows())
            .prop_map(|(is_r, rows)| Statement::delete(name(is_r), values(&rows))),
        (any::<bool>(), pred()).prop_map(|(is_r, p)| {
            Statement::delete(name(is_r), RelExpr::scan(name(is_r)).select(p))
        }),
        (any::<bool>(), pred(), update_exprs()).prop_map(|(is_r, p, exprs)| {
            Statement::update(name(is_r), RelExpr::scan(name(is_r)).select(p), exprs)
        }),
        read(false).prop_map(|e| Statement::assign("t", e)),
        // assigning to a base relation's name is an error in both
        Just(Statement::assign("s", RelExpr::scan("r"))),
        read(false).prop_map(Statement::query),
    ]
}

/// A program of writes and reads, ending with a read-after-write query of
/// both relations; once `t` is bound, later reads may scan it.
fn program() -> impl Strategy<Value = Program> {
    (proptest::collection::vec(statement(), 1..6), read(true)).prop_map(|(stmts, last)| {
        let binds_t = stmts
            .iter()
            .any(|s| matches!(s, Statement::Assign { name, .. } if name == "t"));
        let mut program: Program = stmts.into_iter().collect();
        if binds_t {
            program = program.then(Statement::query(last));
        }
        program.then(Statement::query(
            RelExpr::scan("r").union(RelExpr::scan("s")),
        ))
    })
}

fn initial(r: &[(i64, i64, u64)], s: &[(i64, i64, u64)]) -> Version {
    let mut db = Database::new(base_schema());
    for (relation, rows) in [("r", r), ("s", s)] {
        let schema = Arc::clone(db.schema().get(relation).expect("declared"));
        let rel = Relation::from_counted(schema, rows.iter().map(|(a, b, m)| (tuple![*a, *b], *m)))
            .expect("well-typed rows");
        db.replace(relation, rel).expect("declared relation");
    }
    let mut version = Version::new(db).expect("analyzes");
    let (relation, attrs) = ("r".to_owned(), vec![1]);
    let index = Ddl::Index { relation, attrs };
    version
        .admit(&index, ExecConfig::default())
        .expect("indexes r");
    version
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// run + apply == the literal Def. 4.1 post-state and outputs, errors
    /// agree, and the maintained index equals a freshly built one.
    #[test]
    fn delta_executor_equals_definition_4_1(
        r in rows(),
        s in rows(),
        programs in proptest::collection::vec(program(), 1..4),
    ) {
        // no static pre-check: runtime errors are what is compared
        let config = ExecConfig { analyze: false, ..ExecConfig::default() };
        let mut version = initial(&r, &s);
        for program in &programs {
            let expected = literal(version.database(), program);
            let got = version.run(program, config);
            match (expected, got) {
                (Ok((post, queries)), Ok((deltas, outputs))) => {
                    prop_assert_eq!(&outputs.queries, &queries, "outputs of {}", program);
                    if deltas.values().any(|d| !d.is_empty()) {
                        version.apply(deltas, config).expect("a run's deltas apply");
                    }
                    let db = version.database();
                    for relation in ["r", "s"] {
                        prop_assert_eq!(
                            db.relation(relation).expect("declared"),
                            post.relation(relation).expect("declared"),
                            "{} after {}", relation, program
                        );
                    }
                    let mut fresh = IndexSet::new();
                    fresh.create(db, "r", &[1]).expect("indexes r");
                    let (maintained, fresh) = (
                        version.indexes().find("r", &[1]).expect("declared index"),
                        fresh.find("r", &[1]).expect("just built"),
                    );
                    for a in -1i64..6 {
                        prop_assert_eq!(
                            maintained.lookup(&tuple![a]).expect("lookup"),
                            fresh.lookup(&tuple![a]).expect("lookup"),
                            "index point {} after {}", a, program
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (expected, got) => prop_assert!(
                    false,
                    "executors disagree on {}: literal {:?}, delta {:?}",
                    program,
                    expected.map(|_| ()),
                    got.map(|_| ())
                ),
            }
        }
    }
}
