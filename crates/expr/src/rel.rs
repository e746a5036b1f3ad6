//! The multi-set extended relational algebra expression tree
//! (Definitions 3.1, 3.2 and 3.4).
//!
//! [`RelExpr`] has one variant per construct the paper admits:
//!
//! | paper | variant |
//! |---|---|
//! | database relation | [`RelExpr::Scan`] |
//! | `E₁ ⊎ E₂` | [`RelExpr::Union`] |
//! | `E₁ − E₂` | [`RelExpr::Difference`] |
//! | `E₁ × E₂` | [`RelExpr::Product`] |
//! | `σ_φ E` | [`RelExpr::Select`] |
//! | `π_a E` (plain) | [`RelExpr::Project`] |
//! | `E₁ ∩ E₂` | [`RelExpr::Intersect`] |
//! | `E₁ ⋈_φ E₂` | [`RelExpr::Join`] |
//! | `π_(e₁,…,eₙ) E` (extended) | [`RelExpr::ExtProject`] |
//! | `δE` | [`RelExpr::Distinct`] |
//! | `γ_{a,f,p} E` | [`RelExpr::GroupBy`] |
//!
//! [`RelExpr::Values`] additionally embeds a literal relation so that
//! expression trees are self-contained in tests and assignment results can
//! be re-fed into the algebra.
//!
//! Children are `Arc`-shared: optimizer rewrites rebuild only the spine of
//! the tree and reuse untouched subtrees — the standard answer to tree
//! rewriting under ownership.

use std::fmt;
use std::sync::Arc;

use mera_core::prelude::*;

use crate::aggregate::Aggregate;
use crate::scalar::ScalarExpr;
use crate::type_error;

/// Supplies schemas for named database relations during schema inference.
pub trait SchemaProvider {
    /// The schema of the relation called `name`.
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef>;
}

impl SchemaProvider for DatabaseSchema {
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef> {
        self.get(name).map(Arc::clone)
    }
}

/// A provider with no relations (for expression trees built purely from
/// [`RelExpr::Values`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyProvider;

impl SchemaProvider for EmptyProvider {
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef> {
        Err(CoreError::UnknownRelation(name.to_owned()))
    }
}

/// A multi-set extended relational algebra expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RelExpr {
    /// A database relation, referenced by name (the base case of
    /// Definition 3.1: "a database relation is a basic relational
    /// expression").
    Scan(String),
    /// A literal relation embedded in the expression.
    Values(Arc<Relation>),
    /// Multi-set union `E₁ ⊎ E₂` — multiplicities add.
    Union(Arc<RelExpr>, Arc<RelExpr>),
    /// Multi-set difference `E₁ − E₂` — `max(0, m₁−m₂)`.
    Difference(Arc<RelExpr>, Arc<RelExpr>),
    /// Cartesian product `E₁ × E₂` — multiplicities multiply.
    Product(Arc<RelExpr>, Arc<RelExpr>),
    /// Selection `σ_φ E`.
    Select {
        /// Input expression.
        input: Arc<RelExpr>,
        /// The condition `φ : dom(E) → bool`.
        predicate: ScalarExpr,
    },
    /// Plain projection `π_a E` — multiplicities of collapsing tuples sum.
    Project {
        /// Input expression.
        input: Arc<RelExpr>,
        /// The attribute list `a`.
        attrs: AttrList,
    },
    /// Intersection `E₁ ∩ E₂` — `min(m₁, m₂)` (Definition 3.2).
    Intersect(Arc<RelExpr>, Arc<RelExpr>),
    /// Join `E₁ ⋈_φ E₂ = σ_φ(E₁ × E₂)` (Definition 3.2). The predicate is
    /// expressed over the concatenated schema `E ⊕ E'`.
    Join {
        /// Left input.
        left: Arc<RelExpr>,
        /// Right input.
        right: Arc<RelExpr>,
        /// Join condition over `E ⊕ E'`.
        predicate: ScalarExpr,
    },
    /// Extended projection `π_(e₁,…,eₙ) E` with arithmetic expressions
    /// (Definition 3.4); the plain projection is the special case where all
    /// expressions are bare attributes.
    ExtProject {
        /// Input expression.
        input: Arc<RelExpr>,
        /// The expression list `(e₁, …, eₙ)`; must be non-empty.
        exprs: Vec<ScalarExpr>,
    },
    /// Duplicate elimination `δE` (Definition 3.4).
    Distinct(Arc<RelExpr>),
    /// Group-by `γ_{a,f,p} E` (Definition 3.4): aggregate `f` on attribute
    /// `p` per group of tuples equal on the duplicate-free key list `a`.
    /// An empty key list aggregates the whole input into one tuple.
    GroupBy {
        /// Input expression.
        input: Arc<RelExpr>,
        /// The grouping attribute indexes (1-based, duplicate-free; may be
        /// empty for whole-relation aggregation).
        keys: Vec<usize>,
        /// The aggregate function `f`.
        agg: Aggregate,
        /// The aggregated attribute `p` (1-based; a dummy for `CNT`).
        attr: usize,
    },
    /// Transitive closure `α(E)` — the §5 extension the paper points to
    /// ("the addition of a transitive closure operator allowing
    /// expressions with a recursive nature is discussed in \[11\]").
    ///
    /// `E` must be a binary relation whose two attributes share a domain
    /// (an edge relation). The result is the *duplicate-free* set of pairs
    /// `(x, y)` connected by a path of ≥ 1 edges: closure is defined via
    /// the δ-based least fixpoint, since a naive bag fixpoint diverges on
    /// cycles (each lap around a cycle would multiply multiplicities).
    Closure(Arc<RelExpr>),
}

/// Output schema of an extended projection `π_(e₁,…,eₙ)` over `input`:
/// one attribute per expression, typed by inference; bare attribute
/// references keep their name. The one rule every evaluator derives this
/// schema by; the first problem [`RelExpr::check_node`] reports for it.
pub fn ext_project_schema(input: &Schema, exprs: &[ScalarExpr]) -> CoreResult<SchemaRef> {
    crate::first_problem(|report| check_ext_project(input, exprs, report))
}

fn check_ext_project(
    input: &Schema,
    exprs: &[ScalarExpr],
    report: &mut dyn FnMut(CoreError),
) -> Option<SchemaRef> {
    if exprs.is_empty() {
        return type_error(
            report,
            "extended projection needs at least one expression".into(),
        );
    }
    let mut attrs = Vec::with_capacity(exprs.len());
    for e in exprs {
        if let Some(dtype) = e.check(input, report) {
            let name = match e {
                ScalarExpr::Attr(i) => input.attr(*i).ok().and_then(|a| a.name.clone()),
                _ => None,
            };
            attrs.push(Attribute { name, dtype });
        }
    }
    (attrs.len() == exprs.len()).then(|| Arc::new(Schema::new(attrs)))
}

/// Checks a selection or join condition: it types, and to `bool`.
fn check_condition(
    predicate: &ScalarExpr,
    input: &Schema,
    what: &str,
    report: &mut dyn FnMut(CoreError),
) {
    match predicate.check(input, report) {
        Some(DataType::Bool) | None => {}
        Some(t) => report(CoreError::TypeError(format!(
            "{what} condition has type {t}, expected bool"
        ))),
    }
}

impl RelExpr {
    // ------------------------------------------------------------------
    // builder API
    // ------------------------------------------------------------------

    /// A named database relation.
    pub fn scan(name: impl Into<String>) -> Self {
        RelExpr::Scan(name.into())
    }

    /// A literal relation.
    pub fn values(rel: Relation) -> Self {
        RelExpr::Values(Arc::new(rel))
    }

    /// `self ⊎ other`.
    pub fn union(self, other: RelExpr) -> Self {
        RelExpr::Union(Arc::new(self), Arc::new(other))
    }

    /// `self − other`.
    pub fn difference(self, other: RelExpr) -> Self {
        RelExpr::Difference(Arc::new(self), Arc::new(other))
    }

    /// `self × other`.
    pub fn product(self, other: RelExpr) -> Self {
        RelExpr::Product(Arc::new(self), Arc::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: RelExpr) -> Self {
        RelExpr::Intersect(Arc::new(self), Arc::new(other))
    }

    /// `σ_φ self`.
    pub fn select(self, predicate: ScalarExpr) -> Self {
        RelExpr::Select {
            input: Arc::new(self),
            predicate,
        }
    }

    /// `π_a self` with 1-based attribute indexes.
    ///
    /// # Panics
    /// Panics when `attrs` is empty or contains index 0; use
    /// [`AttrList::new`] directly to handle those as errors.
    pub fn project(self, attrs: &[usize]) -> Self {
        RelExpr::Project {
            input: Arc::new(self),
            attrs: AttrList::new(attrs.to_vec()).expect("valid projection list"),
        }
    }

    /// `self ⋈_φ other`.
    pub fn join(self, other: RelExpr, predicate: ScalarExpr) -> Self {
        RelExpr::Join {
            left: Arc::new(self),
            right: Arc::new(other),
            predicate,
        }
    }

    /// Extended projection with arbitrary scalar expressions.
    pub fn ext_project(self, exprs: Vec<ScalarExpr>) -> Self {
        RelExpr::ExtProject {
            input: Arc::new(self),
            exprs,
        }
    }

    /// `δ self`.
    pub fn distinct(self) -> Self {
        RelExpr::Distinct(Arc::new(self))
    }

    /// `γ_{keys, agg, attr} self`.
    pub fn group_by(self, keys: &[usize], agg: Aggregate, attr: usize) -> Self {
        RelExpr::GroupBy {
            input: Arc::new(self),
            keys: keys.to_vec(),
            agg,
            attr,
        }
    }

    /// `α(self)` — transitive closure of a binary edge relation.
    pub fn closure(self) -> Self {
        RelExpr::Closure(Arc::new(self))
    }

    // ------------------------------------------------------------------
    // schema inference
    // ------------------------------------------------------------------

    /// Infers the output schema against a catalog, validating the whole
    /// tree: operand compatibility for ⊎/−/∩, predicate typing for σ/⋈,
    /// attribute ranges for π/γ, duplicate-freeness of grouping lists, and
    /// aggregate/domain compatibility. The error is the first problem
    /// [`RelExpr::check_node`] reports, children before parents.
    pub fn schema<P: SchemaProvider>(&self, provider: &P) -> CoreResult<SchemaRef> {
        let check = |inputs: &[SchemaRef]| {
            crate::first_problem(|report| self.check_node(inputs, provider, report))
        };
        match self {
            RelExpr::Scan(_) | RelExpr::Values(_) => check(&[]),
            RelExpr::Select { input, .. }
            | RelExpr::Project { input, .. }
            | RelExpr::ExtProject { input, .. }
            | RelExpr::Distinct(input)
            | RelExpr::Closure(input)
            | RelExpr::GroupBy { input, .. } => check(&[input.schema(provider)?]),
            RelExpr::Union(l, r)
            | RelExpr::Difference(l, r)
            | RelExpr::Product(l, r)
            | RelExpr::Intersect(l, r)
            | RelExpr::Join {
                left: l, right: r, ..
            } => check(&[l.schema(provider)?, r.schema(provider)?]),
        }
    }

    /// Checks this node alone, given its children's schemas in
    /// [`RelExpr::children`] order (and the catalog, for a scan): reports
    /// *every* problem of the node to `report` and returns its schema when
    /// the problems leave one. Only σ and ⋈ have a schema despite a
    /// problem: their condition does not shape it, so the nodes above them
    /// can still be checked. These are the typing rules of Definitions
    /// 3.1–3.4, stated once; [`RelExpr::schema`] and the static analyzer
    /// both apply them.
    ///
    /// # Panics
    /// Panics when `inputs` does not hold one schema per child.
    pub fn check_node<P: SchemaProvider>(
        &self,
        inputs: &[SchemaRef],
        provider: &P,
        report: &mut dyn FnMut(CoreError),
    ) -> Option<SchemaRef> {
        let one = || match inputs {
            [input] => input,
            _ => panic!("{} takes one input schema", self.op_name()),
        };
        let two = || match inputs {
            [l, r] => (l, r),
            _ => panic!("{} takes two input schemas", self.op_name()),
        };
        match self {
            RelExpr::Scan(name) => provider.relation_schema(name).map_err(report).ok(),
            RelExpr::Values(rel) => Some(Arc::clone(rel.schema())),
            RelExpr::Union(..) | RelExpr::Difference(..) | RelExpr::Intersect(..) => {
                let (l, r) = two();
                l.check_same_types(r).map_err(report).ok()?;
                Some(Arc::clone(l))
            }
            RelExpr::Product(..) => {
                let (l, r) = two();
                Some(Arc::new(l.concat(r)))
            }
            RelExpr::Select { predicate, .. } => {
                let input = one();
                check_condition(predicate, input, "selection", report);
                Some(Arc::clone(input))
            }
            RelExpr::Project { attrs, .. } => {
                let input = one();
                let mut out = Vec::with_capacity(attrs.len());
                for &i in attrs.indexes() {
                    if let Ok(a) = input.attr(i).map_err(&mut *report) {
                        out.push(a.clone());
                    }
                }
                (out.len() == attrs.len()).then(|| Arc::new(Schema::new(out)))
            }
            RelExpr::Join { predicate, .. } => {
                let (l, r) = two();
                let joined = l.concat(r);
                check_condition(predicate, &joined, "join", report);
                Some(Arc::new(joined))
            }
            RelExpr::ExtProject { exprs, .. } => check_ext_project(one(), exprs, report),
            RelExpr::Distinct(_) => Some(Arc::clone(one())),
            RelExpr::GroupBy {
                keys, agg, attr, ..
            } => {
                let input = one();
                // result schema: grouping attributes ⊕ ran(f), the
                // grouping list duplicate-free
                let mut out = Vec::with_capacity(keys.len() + 1);
                for (j, &k) in keys.iter().enumerate() {
                    match input.attr(k) {
                        Err(e) => report(e),
                        Ok(_) if keys[..j].contains(&k) => {
                            report(CoreError::DuplicateAttrInList(k))
                        }
                        Ok(a) => out.push(a.clone()),
                    }
                }
                let in_type = input.dtype(*attr).map_err(&mut *report).ok();
                let out_type = agg.result_type(in_type?).map_err(report).ok()?;
                out.push(Attribute::anon(out_type));
                (out.len() == keys.len() + 1).then(|| Arc::new(Schema::new(out)))
            }
            RelExpr::Closure(_) => {
                let input = one();
                match input.attributes() {
                    [a, b] if a.dtype == b.dtype => Some(Arc::clone(input)),
                    [a, b] => type_error(
                        report,
                        format!(
                            "transitive closure needs matching attribute domains, \
                             found {} and {}",
                            a.dtype, b.dtype
                        ),
                    ),
                    attrs => type_error(
                        report,
                        format!(
                            "transitive closure needs a binary relation, found arity {}",
                            attrs.len()
                        ),
                    ),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // tree plumbing (for the optimizer)
    // ------------------------------------------------------------------

    /// The direct child expressions, left to right.
    pub fn children(&self) -> Vec<&Arc<RelExpr>> {
        match self {
            RelExpr::Scan(_) | RelExpr::Values(_) => vec![],
            RelExpr::Select { input, .. }
            | RelExpr::Project { input, .. }
            | RelExpr::ExtProject { input, .. }
            | RelExpr::Distinct(input)
            | RelExpr::Closure(input)
            | RelExpr::GroupBy { input, .. } => vec![input],
            RelExpr::Union(l, r)
            | RelExpr::Difference(l, r)
            | RelExpr::Product(l, r)
            | RelExpr::Intersect(l, r) => vec![l, r],
            RelExpr::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Rebuilds this node with new children (same arity and order as
    /// [`RelExpr::children`]).
    ///
    /// # Panics
    /// Panics when `children` has the wrong length — a programming error in
    /// a rewrite rule, not a data error.
    pub fn with_children(&self, mut children: Vec<RelExpr>) -> RelExpr {
        let mut take = |n: usize| -> Vec<Arc<RelExpr>> {
            assert_eq!(children.len(), n, "with_children arity mismatch");
            children.drain(..).map(Arc::new).collect()
        };
        match self {
            RelExpr::Scan(name) => {
                assert!(children.is_empty(), "with_children arity mismatch");
                RelExpr::Scan(name.clone())
            }
            RelExpr::Values(rel) => {
                assert!(children.is_empty(), "with_children arity mismatch");
                RelExpr::Values(Arc::clone(rel))
            }
            RelExpr::Select { predicate, .. } => {
                let mut c = take(1);
                RelExpr::Select {
                    input: c.pop().expect("one child"),
                    predicate: predicate.clone(),
                }
            }
            RelExpr::Project { attrs, .. } => {
                let mut c = take(1);
                RelExpr::Project {
                    input: c.pop().expect("one child"),
                    attrs: attrs.clone(),
                }
            }
            RelExpr::ExtProject { exprs, .. } => {
                let mut c = take(1);
                RelExpr::ExtProject {
                    input: c.pop().expect("one child"),
                    exprs: exprs.clone(),
                }
            }
            RelExpr::Distinct(_) => {
                let mut c = take(1);
                RelExpr::Distinct(c.pop().expect("one child"))
            }
            RelExpr::Closure(_) => {
                let mut c = take(1);
                RelExpr::Closure(c.pop().expect("one child"))
            }
            RelExpr::GroupBy {
                keys, agg, attr, ..
            } => {
                let mut c = take(1);
                RelExpr::GroupBy {
                    input: c.pop().expect("one child"),
                    keys: keys.clone(),
                    agg: *agg,
                    attr: *attr,
                }
            }
            RelExpr::Union(..) => {
                let mut c = take(2);
                let r = c.pop().expect("two children");
                let l = c.pop().expect("two children");
                RelExpr::Union(l, r)
            }
            RelExpr::Difference(..) => {
                let mut c = take(2);
                let r = c.pop().expect("two children");
                let l = c.pop().expect("two children");
                RelExpr::Difference(l, r)
            }
            RelExpr::Product(..) => {
                let mut c = take(2);
                let r = c.pop().expect("two children");
                let l = c.pop().expect("two children");
                RelExpr::Product(l, r)
            }
            RelExpr::Intersect(..) => {
                let mut c = take(2);
                let r = c.pop().expect("two children");
                let l = c.pop().expect("two children");
                RelExpr::Intersect(l, r)
            }
            RelExpr::Join { predicate, .. } => {
                let mut c = take(2);
                let right = c.pop().expect("two children");
                let left = c.pop().expect("two children");
                RelExpr::Join {
                    left,
                    right,
                    predicate: predicate.clone(),
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Names of all database relations scanned by the tree, sorted and
    /// deduplicated.
    pub fn scanned_relations(&self) -> Vec<&str> {
        fn go<'a>(e: &'a RelExpr, out: &mut Vec<&'a str>) {
            if let RelExpr::Scan(name) = e {
                out.push(name);
            }
            for c in e.children() {
                go(c, out);
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The operator's display name (used by plan rendering and stats).
    pub fn op_name(&self) -> &'static str {
        match self {
            RelExpr::Scan(_) => "scan",
            RelExpr::Values(_) => "values",
            RelExpr::Union(..) => "union",
            RelExpr::Difference(..) => "difference",
            RelExpr::Product(..) => "product",
            RelExpr::Select { .. } => "select",
            RelExpr::Project { .. } => "project",
            RelExpr::Intersect(..) => "intersect",
            RelExpr::Join { .. } => "join",
            RelExpr::ExtProject { .. } => "ext-project",
            RelExpr::Distinct(_) => "distinct",
            RelExpr::Closure(_) => "closure",
            RelExpr::GroupBy { .. } => "group-by",
        }
    }
}

impl fmt::Display for RelExpr {
    /// Renders the expression in the paper's prefix notation on one line,
    /// with ASCII operator names (`u+` for ⊎, `sigma`, `pi`, …).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelExpr::Scan(name) => write!(f, "{name}"),
            RelExpr::Values(rel) => write!(f, "<values:{} tuples>", rel.len()),
            RelExpr::Union(l, r) => write!(f, "({l} u+ {r})"),
            RelExpr::Difference(l, r) => write!(f, "({l} - {r})"),
            RelExpr::Product(l, r) => write!(f, "({l} x {r})"),
            RelExpr::Select { input, predicate } => write!(f, "sigma[{predicate}]({input})"),
            RelExpr::Project { input, attrs } => write!(f, "pi{attrs}({input})"),
            RelExpr::Intersect(l, r) => write!(f, "({l} n {r})"),
            RelExpr::Join {
                left,
                right,
                predicate,
            } => write!(f, "({left} join[{predicate}] {right})"),
            RelExpr::ExtProject { input, exprs } => {
                write!(f, "pi(")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")({input})")
            }
            RelExpr::Distinct(input) => write!(f, "delta({input})"),
            RelExpr::Closure(input) => write!(f, "alpha({input})"),
            RelExpr::GroupBy {
                input,
                keys,
                agg,
                attr,
            } => {
                write!(f, "gamma[(")?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "%{k}")?;
                }
                write!(f, "),{agg},%{attr}]({input})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

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
            .unwrap()
            .with(
                "brewery",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("city", DataType::Str),
                    ("country", DataType::Str),
                ]),
            )
            .unwrap()
    }

    #[test]
    fn scan_schema_comes_from_catalog() {
        let c = catalog();
        let s = RelExpr::scan("beer").schema(&c).unwrap();
        assert_eq!(s.arity(), 3);
        assert!(RelExpr::scan("ale").schema(&c).is_err());
        assert!(RelExpr::scan("beer").schema(&EmptyProvider).is_err());
    }

    #[test]
    fn union_family_requires_compatible_operands() {
        let c = catalog();
        let ok = RelExpr::scan("beer").union(RelExpr::scan("beer"));
        assert_eq!(ok.schema(&c).unwrap().arity(), 3);
        // beer and brewery are both (str,str,str)-incompatible: alcperc is real
        let bad = RelExpr::scan("beer").union(RelExpr::scan("brewery"));
        assert!(bad.schema(&c).is_err());
        let bad = RelExpr::scan("beer").intersect(RelExpr::scan("brewery"));
        assert!(bad.schema(&c).is_err());
        let bad = RelExpr::scan("beer").difference(RelExpr::scan("brewery"));
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn product_concatenates_schemas() {
        let c = catalog();
        let p = RelExpr::scan("beer").product(RelExpr::scan("brewery"));
        let s = p.schema(&c).unwrap();
        assert_eq!(s.arity(), 6);
        assert_eq!(s.attr(4).unwrap().name.as_deref(), Some("name"));
    }

    #[test]
    fn select_requires_boolean_predicate() {
        let c = catalog();
        let ok = RelExpr::scan("beer").select(ScalarExpr::attr(3).eq(ScalarExpr::real(5.0)));
        assert_eq!(ok.schema(&c).unwrap().arity(), 3);
        let bad = RelExpr::scan("beer").select(ScalarExpr::attr(3));
        assert!(bad.schema(&c).is_err());
        // predicate referencing a missing attribute
        let bad = RelExpr::scan("beer").select(ScalarExpr::attr(7).eq(ScalarExpr::int(1)));
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn join_predicate_sees_concatenated_schema() {
        let c = catalog();
        // Example 3.1's join: beer.brewery = brewery.name, i.e. %2 = %4
        let j = RelExpr::scan("beer").join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        );
        let s = j.schema(&c).unwrap();
        assert_eq!(s.arity(), 6);
        // %4 would be out of range for either side alone
        let bad = RelExpr::scan("beer").join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(7).eq(ScalarExpr::attr(1)),
        );
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn ext_project_types_and_names() {
        let c = catalog();
        let e = RelExpr::scan("beer").ext_project(vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(3).mul(ScalarExpr::real(1.1)),
        ]);
        let s = e.schema(&c).unwrap();
        assert_eq!(s.attr(1).unwrap().name.as_deref(), Some("name"));
        assert_eq!(s.attr(2).unwrap().name, None);
        assert_eq!(s.dtype(2).unwrap(), DataType::Real);
        let bad = RelExpr::scan("beer").ext_project(vec![]);
        assert!(bad.schema(&c).is_err());
    }

    #[test]
    fn group_by_schema_is_keys_plus_range() {
        let c = catalog();
        // AVG alcperc per brewery
        let g = RelExpr::scan("beer").group_by(&[2], Aggregate::Avg, 3);
        let s = g.schema(&c).unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.attr(1).unwrap().name.as_deref(), Some("brewery"));
        assert_eq!(s.dtype(2).unwrap(), DataType::Real);
        // empty key list: single aggregate column
        let g = RelExpr::scan("beer").group_by(&[], Aggregate::Cnt, 1);
        let s = g.schema(&c).unwrap();
        assert_eq!(s.arity(), 1);
        assert_eq!(s.dtype(1).unwrap(), DataType::Int);
    }

    #[test]
    fn group_by_validates_keys_and_aggregate() {
        let c = catalog();
        // duplicate key
        let g = RelExpr::scan("beer").group_by(&[2, 2], Aggregate::Cnt, 1);
        assert!(matches!(
            g.schema(&c),
            Err(CoreError::DuplicateAttrInList(2))
        ));
        // SUM over a string attribute
        let g = RelExpr::scan("beer").group_by(&[2], Aggregate::Sum, 1);
        assert!(g.schema(&c).is_err());
        // aggregated attribute out of range
        let g = RelExpr::scan("beer").group_by(&[2], Aggregate::Cnt, 9);
        assert!(g.schema(&c).is_err());
    }

    #[test]
    fn values_carries_its_own_schema() {
        let rel = relation_of(
            Schema::anon(&[DataType::Int]),
            vec![tuple![1_i64], tuple![1_i64]],
        )
        .unwrap();
        let e = RelExpr::values(rel);
        assert_eq!(e.schema(&EmptyProvider).unwrap().arity(), 1);
    }

    #[test]
    fn children_and_with_children_roundtrip() {
        let c = catalog();
        let e = RelExpr::scan("beer")
            .select(ScalarExpr::attr(3).eq(ScalarExpr::real(5.0)))
            .join(
                RelExpr::scan("brewery"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            )
            .project(&[1, 6]);
        assert_eq!(e.node_count(), 5);
        let kids: Vec<RelExpr> = e.children().iter().map(|a| a.as_ref().clone()).collect();
        let rebuilt = e.with_children(kids);
        assert_eq!(rebuilt, e);
        assert_eq!(rebuilt.schema(&c).unwrap().arity(), 2);
    }

    #[test]
    fn scanned_relations_deduplicates() {
        let e = RelExpr::scan("beer")
            .union(RelExpr::scan("beer"))
            .product(RelExpr::scan("brewery"));
        assert_eq!(e.scanned_relations(), vec!["beer", "brewery"]);
    }

    #[test]
    fn display_examples() {
        // Example 3.1: pi(%1)(sigma[...](beer x brewery))
        let e = RelExpr::scan("beer")
            .product(RelExpr::scan("brewery"))
            .select(
                ScalarExpr::attr(2)
                    .eq(ScalarExpr::attr(4))
                    .and(ScalarExpr::attr(6).eq(ScalarExpr::str("NL"))),
            )
            .project(&[1]);
        let s = e.to_string();
        assert!(s.starts_with("pi(%1)(sigma["), "{s}");
        assert!(s.contains("(beer x brewery)"), "{s}");
    }

    #[test]
    fn op_names() {
        assert_eq!(RelExpr::scan("r").op_name(), "scan");
        assert_eq!(RelExpr::scan("r").distinct().op_name(), "distinct");
    }
}
