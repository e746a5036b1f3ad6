//! Lowering: syntactic AST → typed algebra and statements.
//!
//! The main job besides shape translation is *name resolution*: the paper
//! addresses attributes by prefixed index (`%i`), with names as a
//! notational convenience. The lowerer resolves bare attribute names
//! against the schema of the relevant input expression (for joins, the
//! concatenated schema `E ⊕ E'`), rejecting unknown names; `%i` passes
//! through unchanged.

use std::collections::HashMap;
use std::sync::Arc;

use mera_analyze::Diagnostic;
use mera_core::prelude::*;
use mera_expr::{Aggregate, ArithOp, CmpOp, RelExpr, ScalarExpr, SchemaProvider};
use mera_txn::{Program, Statement};

use crate::ast::*;
use crate::error::{LangError, LangResult};
use crate::parser::{parse_rel, parse_script};

/// Lowers syntax to typed algebra, tracking program temporaries so later
/// statements can reference earlier assignments.
pub struct Lowerer<'a> {
    provider: &'a dyn DynProvider,
    temps: HashMap<String, SchemaRef>,
}

trait DynProvider {
    fn schema_of(&self, name: &str) -> CoreResult<SchemaRef>;
}

impl<P: SchemaProvider> DynProvider for P {
    fn schema_of(&self, name: &str) -> CoreResult<SchemaRef> {
        self.relation_schema(name)
    }
}

impl SchemaProvider for Lowerer<'_> {
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef> {
        if let Some(s) = self.temps.get(name) {
            return Ok(Arc::clone(s));
        }
        self.provider.schema_of(name)
    }
}

impl<'a> Lowerer<'a> {
    /// Builds a lowerer over a schema provider (typically the database
    /// schema).
    pub fn new<P: SchemaProvider>(provider: &'a P) -> Self {
        Lowerer {
            provider,
            temps: HashMap::new(),
        }
    }

    /// Lowers one relational expression.
    pub fn lower_rel(&self, rel: &SRel) -> LangResult<RelExpr> {
        match rel {
            SRel::Name(name) => {
                // validate the name resolves at all, for a good error here
                self.relation_schema(name)?;
                Ok(RelExpr::scan(name.clone()))
            }
            SRel::Select { input, predicate } => {
                let input = self.lower_rel(input)?;
                let schema = input.schema(self)?;
                let predicate = self.lower_scalar(predicate, &schema)?;
                Ok(input.select(predicate))
            }
            SRel::Project { input, exprs } => {
                let input = self.lower_rel(input)?;
                let schema = input.schema(self)?;
                let lowered: LangResult<Vec<ScalarExpr>> = exprs
                    .iter()
                    .map(|e| self.lower_scalar(e, &schema))
                    .collect();
                let lowered = lowered?;
                // all-attribute lists become the plain projection π_a
                let plain: Option<Vec<usize>> = lowered
                    .iter()
                    .map(|e| match e {
                        ScalarExpr::Attr(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                match plain {
                    Some(attrs) => Ok(RelExpr::Project {
                        input: Arc::new(input),
                        attrs: AttrList::new(attrs)?,
                    }),
                    None => Ok(input.ext_project(lowered)),
                }
            }
            SRel::Join {
                left,
                right,
                predicate,
            } => {
                let left = self.lower_rel(left)?;
                let right = self.lower_rel(right)?;
                let joined = left.schema(self)?.concat(right.schema(self)?.as_ref());
                let predicate = self.lower_scalar(predicate, &joined)?;
                Ok(left.join(right, predicate))
            }
            SRel::Union(l, r) => Ok(self.lower_rel(l)?.union(self.lower_rel(r)?)),
            SRel::Minus(l, r) => Ok(self.lower_rel(l)?.difference(self.lower_rel(r)?)),
            SRel::Intersect(l, r) => Ok(self.lower_rel(l)?.intersect(self.lower_rel(r)?)),
            SRel::Times(l, r) => Ok(self.lower_rel(l)?.product(self.lower_rel(r)?)),
            SRel::Unique(input) => Ok(self.lower_rel(input)?.distinct()),
            SRel::Closure(input) => Ok(self.lower_rel(input)?.closure()),
            SRel::GroupBy {
                input,
                keys,
                agg,
                attr,
            } => {
                let input = self.lower_rel(input)?;
                let schema = input.schema(self)?;
                let keys: LangResult<Vec<usize>> =
                    keys.iter().map(|k| self.resolve_attr(k, &schema)).collect();
                let attr = self.resolve_attr(attr, &schema)?;
                let agg = Aggregate::parse(agg).ok_or_else(|| {
                    LangError::Semantic(CoreError::TypeError(format!(
                        "unknown aggregate function '{agg}'"
                    )))
                })?;
                Ok(input.group_by(&keys?, agg, attr))
            }
            SRel::Values { types, rows } => {
                let schema = Arc::new(Schema::anon(types));
                let tuples: LangResult<Vec<Tuple>> = rows
                    .iter()
                    .map(|row| {
                        let vals: LangResult<Vec<Value>> = row.iter().map(lower_literal).collect();
                        Ok(Tuple::new(vals?))
                    })
                    .collect();
                let rel = Relation::from_tuples(schema, tuples?)?;
                Ok(RelExpr::values(rel))
            }
        }
    }

    /// Lowers one scalar expression against an input schema.
    pub fn lower_scalar(&self, e: &SScalar, schema: &Schema) -> LangResult<ScalarExpr> {
        Ok(match e {
            SScalar::AttrIndex(i) => {
                schema.attr(*i)?; // range check with a positioned error
                ScalarExpr::Attr(*i)
            }
            SScalar::AttrName(name) => ScalarExpr::Attr(schema.index_of(name)?),
            SScalar::Int(v) => ScalarExpr::int(*v),
            SScalar::Real(v) => ScalarExpr::Literal(Value::real(*v).map_err(LangError::Semantic)?),
            SScalar::Str(s) => ScalarExpr::str(s.clone()),
            SScalar::Bool(b) => ScalarExpr::bool(*b),
            SScalar::Not(inner) => self.lower_scalar(inner, schema)?.not(),
            SScalar::Neg(inner) => {
                // fold unary minus into numeric literals so `-1` lowers to
                // the literal −1 (keeps the printer/parser round trip
                // exact)
                match self.lower_scalar(inner, schema)? {
                    ScalarExpr::Literal(Value::Int(v)) => ScalarExpr::Literal(Value::Int(
                        v.checked_neg().ok_or(CoreError::Overflow("negation"))?,
                    )),
                    ScalarExpr::Literal(Value::Real(r)) => {
                        ScalarExpr::Literal(Value::real(-r.get()).map_err(LangError::Semantic)?)
                    }
                    other => ScalarExpr::Neg(Arc::new(other)),
                }
            }
            SScalar::Binary(op, l, r) => {
                let l = self.lower_scalar(l, schema)?;
                let r = self.lower_scalar(r, schema)?;
                match op {
                    SBinOp::Add => l.arith(ArithOp::Add, r),
                    SBinOp::Sub => l.arith(ArithOp::Sub, r),
                    SBinOp::Mul => l.arith(ArithOp::Mul, r),
                    SBinOp::Div => l.arith(ArithOp::Div, r),
                    SBinOp::Mod => l.arith(ArithOp::Mod, r),
                    SBinOp::Eq => l.cmp(CmpOp::Eq, r),
                    SBinOp::Ne => l.cmp(CmpOp::Ne, r),
                    SBinOp::Lt => l.cmp(CmpOp::Lt, r),
                    SBinOp::Le => l.cmp(CmpOp::Le, r),
                    SBinOp::Gt => l.cmp(CmpOp::Gt, r),
                    SBinOp::Ge => l.cmp(CmpOp::Ge, r),
                    SBinOp::And => l.and(r),
                    SBinOp::Or => l.or(r),
                    SBinOp::Concat => l.concat_with(r),
                }
            }
        })
    }

    fn resolve_attr(&self, e: &SScalar, schema: &Schema) -> LangResult<usize> {
        match e {
            SScalar::AttrIndex(i) => {
                schema.attr(*i)?;
                Ok(*i)
            }
            SScalar::AttrName(name) => Ok(schema.index_of(name)?),
            other => Err(LangError::Semantic(CoreError::TypeError(format!(
                "expected an attribute reference, found expression {other:?}"
            )))),
        }
    }

    /// Lowers one statement; assignments register the temporary's schema
    /// for later statements.
    pub fn lower_stmt(&mut self, stmt: &SStmt) -> LangResult<Statement> {
        Ok(match stmt {
            SStmt::Insert { relation, expr } => {
                let expr = self.lower_rel(expr)?;
                Statement::insert(relation.clone(), expr)
            }
            SStmt::Delete { relation, expr } => {
                let expr = self.lower_rel(expr)?;
                Statement::delete(relation.clone(), expr)
            }
            SStmt::Update {
                relation,
                expr,
                exprs,
            } => {
                let target_schema = self.relation_schema(relation)?;
                let lowered_expr = self.lower_rel(expr)?;
                let lowered: LangResult<Vec<ScalarExpr>> = exprs
                    .iter()
                    .map(|e| self.lower_scalar(e, &target_schema))
                    .collect();
                Statement::update(relation.clone(), lowered_expr, lowered?)
            }
            SStmt::Assign { name, expr } => {
                let lowered = self.lower_rel(expr)?;
                let schema = lowered.schema(self)?;
                self.temps.insert(name.clone(), schema);
                Statement::assign(name.clone(), lowered)
            }
            SStmt::Query { expr } => Statement::query(self.lower_rel(expr)?),
        })
    }

    /// Lowers a whole program.
    pub fn lower_program(&mut self, program: &SProgram) -> LangResult<Program> {
        let mut out = Program::new();
        for stmt in &program.statements {
            out = out.then(self.lower_stmt(stmt)?);
        }
        Ok(out)
    }
}

fn lower_literal(l: &SLiteral) -> LangResult<Value> {
    Ok(match l {
        SLiteral::Int(v) => Value::Int(*v),
        SLiteral::Real(v) => Value::real(*v).map_err(LangError::Semantic)?,
        SLiteral::Str(s) => Value::str(s.as_str()),
        SLiteral::Bool(b) => Value::Bool(*b),
    })
}

/// A lowered materialized-view declaration.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// The view's name.
    pub name: String,
    /// The lowered defining expression.
    pub expr: RelExpr,
}

/// A lowered key-constraint declaration: attribute names resolved to
/// 1-based indexes against the constrained relation's schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyDef {
    /// The constrained relation.
    pub relation: String,
    /// The key attributes as 1-based indexes.
    pub attrs: Vec<usize>,
}

/// A lowered script: schema declarations, materialized-view declarations,
/// key constraints, plus one program per transaction (bare statements
/// become single-statement transactions, matching the paper's rule that
/// transactions are "the best level for database access in practice").
#[derive(Debug, Clone, Default)]
pub struct LoweredScript {
    /// Declared relation schemas, in source order.
    pub declarations: Vec<RelationSchema>,
    /// Declared materialized views, in source order.
    pub views: Vec<ViewDef>,
    /// Declared key constraints, in source order.
    pub keys: Vec<KeyDef>,
    /// One program per transaction.
    pub transactions: Vec<Program>,
}

/// Lowers a script. Declarations are collected into a database schema that
/// also resolves the transactions' relation names; `base` provides any
/// pre-existing relations.
pub fn lower_script<P: SchemaProvider>(script: &SScript, base: &P) -> LangResult<LoweredScript> {
    let mut declared = DatabaseSchema::new();
    let mut out = LoweredScript::default();
    for item in &script.items {
        match item {
            SItem::RelationDecl { name, attrs } => {
                let schema = Schema::new(
                    attrs
                        .iter()
                        .map(|(n, t)| Attribute::named(n.clone(), *t))
                        .collect(),
                );
                declared.add(RelationSchema::new(name.clone(), schema.clone()))?;
                out.declarations
                    .push(RelationSchema::new(name.clone(), schema));
            }
            SItem::ViewDecl { name, expr } => {
                let combined = Combined {
                    declared: &declared,
                    base,
                };
                let lowerer = Lowerer::new(&combined);
                let lowered = lowerer.lower_rel(expr)?;
                // the view name resolves like a relation for the rest of
                // the script (duplicates rejected exactly like relations)
                let schema = lowered.schema(&combined)?;
                declared.add(RelationSchema::new(name.clone(), schema.as_ref().clone()))?;
                out.views.push(ViewDef {
                    name: name.clone(),
                    expr: lowered,
                });
            }
            SItem::KeyDecl { relation, attrs } => {
                let combined = Combined {
                    declared: &declared,
                    base,
                };
                let schema = combined.relation_schema(relation)?;
                let lowerer = Lowerer::new(&combined);
                let resolved: LangResult<Vec<usize>> = attrs
                    .iter()
                    .map(|a| lowerer.resolve_attr(a, &schema))
                    .collect();
                out.keys.push(KeyDef {
                    relation: relation.clone(),
                    attrs: resolved?,
                });
            }
            SItem::Transaction(p) => {
                let combined = Combined {
                    declared: &declared,
                    base,
                };
                let mut lowerer = Lowerer::new(&combined);
                out.transactions.push(lowerer.lower_program(p)?);
            }
            SItem::Statement(s) => {
                let combined = Combined {
                    declared: &declared,
                    base,
                };
                let mut lowerer = Lowerer::new(&combined);
                let stmt = lowerer.lower_stmt(s)?;
                out.transactions.push(Program::single(stmt));
            }
        }
    }
    Ok(out)
}

/// Parses and lowers one relational expression against `catalog` (a
/// pinned version's `catalog_schema()`, views included): the text of a
/// read, for `Version::query` or `Version::explain`.
pub fn lower_rel(catalog: &DatabaseSchema, src: &str) -> LangResult<RelExpr> {
    Lowerer::new(catalog).lower_rel(&parse_rel(src)?)
}

/// Statically checks a script against `catalog` without executing
/// anything: parses, lowers, and runs the `mera-analyze` passes over every
/// view declaration and every transaction.
///
/// Returns one diagnostic list per view declaration (in source order),
/// followed by one per transaction (in source order). Declarations in the
/// script are only *visible* to the check, not installed.
///
/// Relation cardinalities are treated as unknown: a check is a claim
/// about the script against *any* database state matching the schema, so
/// only structurally provable facts (e.g. `select[false]`, literal
/// `values`) feed the emptiness pass.
pub fn check_script(catalog: &DatabaseSchema, src: &str) -> LangResult<Vec<Vec<Diagnostic>>> {
    let lowered = lower_script(&parse_script(src)?, catalog)?;
    let mut schema = catalog.clone();
    for decl in lowered.declarations {
        schema.add(decl)?;
    }
    let mut out = Vec::new();
    for view in &lowered.views {
        let va = mera_analyze::analyze_view_def(&view.name, &view.expr, &schema);
        if let Some(s) = &va.schema {
            schema.add(RelationSchema::new(view.name.clone(), s.as_ref().clone()))?;
        }
        out.push(va.diagnostics);
    }
    let cards = mera_analyze::CardEnv::new();
    out.extend(lowered.transactions.iter().map(|program| {
        mera_analyze::analyze_program(
            program.statements.iter().map(|s| s.analyzer_view()),
            &schema,
            &cards,
        )
    }));
    Ok(out)
}

struct Combined<'a, P: SchemaProvider> {
    declared: &'a DatabaseSchema,
    base: &'a P,
}

impl<P: SchemaProvider> SchemaProvider for Combined<'_, P> {
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef> {
        if self.declared.contains(name) {
            return self.declared.relation_schema(name);
        }
        self.base.relation_schema(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use mera_expr::EmptyProvider;

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
                Schema::named(&[
                    ("name", DataType::Str),
                    ("city", DataType::Str),
                    ("country", DataType::Str),
                ]),
            )
            .expect("fresh")
    }

    fn lower(src: &str) -> LangResult<RelExpr> {
        let cat = catalog();
        let lowerer = Lowerer::new(&cat);
        lowerer.lower_rel(&parse_rel(src).expect("parses"))
    }

    #[test]
    fn example_3_1_lowers_with_name_resolution() {
        // `country` resolves against the joined schema (attribute 6)
        let e = lower("project[%1](select[country = 'NL'](join[brewery = %4](beer, brewery)))")
            .expect("lowers");
        let want = RelExpr::scan("beer")
            .join(
                RelExpr::scan("brewery"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            )
            .select(ScalarExpr::attr(6).eq(ScalarExpr::str("NL")))
            .project(&[1]);
        assert_eq!(e, want);
    }

    #[test]
    fn name_resolution_prefers_first_match_across_join() {
        // both relations have `name`; a bare reference takes the first
        let e = lower("select[name = 'x'](join[%2 = %4](beer, brewery))").expect("lowers");
        let RelExpr::Select { predicate, .. } = e else {
            panic!("expected select");
        };
        assert_eq!(predicate, ScalarExpr::attr(1).eq(ScalarExpr::str("x")));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(matches!(
            lower("select[colour = 'red'](beer)"),
            Err(LangError::Semantic(CoreError::UnknownAttribute(_)))
        ));
        assert!(matches!(
            lower("ales"),
            Err(LangError::Semantic(CoreError::UnknownRelation(_)))
        ));
        assert!(matches!(
            lower("select[%9 = 1](beer)"),
            Err(LangError::Semantic(CoreError::AttrIndexOutOfRange { .. }))
        ));
    }

    #[test]
    fn projection_with_names_becomes_plain_projection() {
        let e = lower("project[alcperc, name](beer)").expect("lowers");
        assert!(matches!(e, RelExpr::Project { ref attrs, .. } if attrs.indexes() == [3, 1]));
        // arithmetic forces the extended projection
        let e = lower("project[name, alcperc * 1.1](beer)").expect("lowers");
        assert!(matches!(e, RelExpr::ExtProject { ref exprs, .. } if exprs.len() == 2));
    }

    #[test]
    fn groupby_lowers_names_and_aggregate() {
        let e = lower("groupby[(brewery), avg, alcperc](beer)").expect("lowers");
        let want = RelExpr::scan("beer").group_by(&[2], Aggregate::Avg, 3);
        assert_eq!(e, want);
        // statistical aggregates are accepted too
        assert!(lower("groupby[(brewery), median, alcperc](beer)").is_ok());
        assert!(lower("groupby[(brewery), stddev, alcperc](beer)").is_ok());
        assert!(matches!(
            lower("groupby[(brewery), quartile, alcperc](beer)"),
            Err(LangError::Semantic(CoreError::TypeError(_)))
        ));
    }

    #[test]
    fn values_literal_lowers_with_duplicates() {
        let cat = catalog();
        let lowerer = Lowerer::new(&cat);
        let e = lowerer
            .lower_rel(&parse_rel("values (int, str) {(1,'a'), (1,'a')}").expect("parses"))
            .expect("lowers");
        let RelExpr::Values(rel) = e else {
            panic!("expected values");
        };
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.distinct_len(), 1);
        // type mismatch inside a row is a semantic error
        let bad = lowerer.lower_rel(&parse_rel("values (int) {('x')}").expect("parses"));
        assert!(bad.is_err());
    }

    #[test]
    fn program_lowering_tracks_temporaries() {
        let cat = catalog();
        let mut lowerer = Lowerer::new(&cat);
        let p = parse_program(
            "dutch = select[country = 'NL'](brewery); \
             ?project[name](join[%2 = %4](beer, dutch))",
        )
        .expect("parses");
        let lowered = lowerer.lower_program(&p).expect("lowers");
        assert_eq!(lowered.len(), 2);
        // the second statement resolved `name` against beer ⊕ dutch
        let Statement::Query { expr } = &lowered.statements[1] else {
            panic!("expected query");
        };
        assert!(expr.to_string().contains("dutch"));
    }

    #[test]
    fn update_lowering_resolves_against_target_schema() {
        let cat = catalog();
        let mut lowerer = Lowerer::new(&cat);
        let p = parse_program(
            "update(beer, select[brewery = 'Guineken'](beer), (name, brewery, alcperc * 1.1))",
        )
        .expect("parses");
        let lowered = lowerer.lower_program(&p).expect("lowers");
        let Statement::Update { exprs, .. } = &lowered.statements[0] else {
            panic!("expected update");
        };
        assert_eq!(exprs.len(), 3);
        assert_eq!(exprs[2], ScalarExpr::attr(3).mul(ScalarExpr::real(1.1)));
    }

    #[test]
    fn key_declaration_lowers_with_name_resolution() {
        let script = parse_script(
            "relation r (a: int, b: str);\n\
             key r (a);\n\
             key r (%2, a);",
        )
        .expect("parses");
        let lowered = lower_script(&script, &EmptyProvider).expect("lowers");
        assert_eq!(
            lowered.keys,
            vec![
                KeyDef {
                    relation: "r".into(),
                    attrs: vec![1],
                },
                KeyDef {
                    relation: "r".into(),
                    attrs: vec![2, 1],
                },
            ]
        );
        // unknown attribute and unknown relation are rejected
        let script = parse_script("relation r (a: int);\nkey r (z);").expect("parses");
        assert!(lower_script(&script, &EmptyProvider).is_err());
        let script = parse_script("key s (a);").expect("parses");
        assert!(matches!(
            lower_script(&script, &EmptyProvider),
            Err(LangError::Semantic(CoreError::UnknownRelation(_)))
        ));
    }

    #[test]
    fn script_lowering_declares_then_uses() {
        let script = parse_script(
            "relation r (a: int);\n\
             begin insert(r, values (int) {(1)}); ?r; end;",
        )
        .expect("parses");
        let lowered = lower_script(&script, &EmptyProvider).expect("lowers");
        assert_eq!(lowered.declarations.len(), 1);
        assert_eq!(lowered.transactions.len(), 1);
        assert_eq!(lowered.transactions[0].len(), 2);
        // duplicate declaration is rejected
        let script = parse_script("relation r (a: int); relation r (b: str);").expect("parses");
        assert!(lower_script(&script, &EmptyProvider).is_err());
    }
}
