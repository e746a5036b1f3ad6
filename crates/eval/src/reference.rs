//! The reference evaluator — the executable form of Definitions 3.1–3.4.
//!
//! Each operator is computed directly from its multiplicity law via the
//! counted-bag kernels in `mera-core`. No attempt is made to be fast; this
//! evaluator is the *semantics oracle* the physical engine and every
//! optimizer rewrite are checked against.
//!
//! The evaluator is generic over the multiplicity semiring
//! ([`eval_in`]): stored ℕ relations are lifted into `S` at the leaves and
//! every operator runs its law in `S`. [`eval`] is the paper's ℕ instance;
//! `eval_in::<bool>` is classical *set* semantics — the baseline whose
//! projection loses the duplicates Example 3.2's aggregate needs.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::rel::RelExpr;
use mera_expr::{ext_project_schema, Aggregate};

use crate::provider::{RelationProvider, Schemas};

use rustc_hash::FxHashMap;

/// Evaluates an algebra expression to a materialised relation, reading
/// stored relations from `provider`.
///
/// The expression is schema-checked as a whole before any tuple is
/// processed, so evaluation itself can only fail on *value-level* partial
/// operations: division by zero, overflow, and the partial aggregates
/// AVG/MIN/MAX on an empty group (Definition 3.3).
pub fn eval(expr: &RelExpr, provider: &(impl RelationProvider + ?Sized)) -> CoreResult<Relation> {
    eval_in(expr, provider)
}

/// Evaluates without the up-front schema check (callers that already
/// validated the tree, e.g. the transaction engine, skip the re-walk).
pub fn eval_unchecked(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
) -> CoreResult<Relation> {
    unchecked(expr, provider)
}

/// [`eval`] in the multiplicity semiring `S`: stored relations are lifted
/// into `S` (in 𝔹, their support) and every operator applies its law in
/// `S`. `eval_in::<u64>` is [`eval`]; `eval_in::<bool>` is set semantics.
pub fn eval_in<S: NaturallyOrdered>(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
) -> CoreResult<KRelation<S>> {
    // static check first: ill-typed trees never reach the data
    expr.schema(&Schemas(provider))?;
    unchecked(expr, provider)
}

fn unchecked<S: NaturallyOrdered>(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
) -> CoreResult<KRelation<S>> {
    let go = |e: &RelExpr| unchecked::<S>(e, provider);
    match expr {
        RelExpr::Scan(name) => provider.relation(name)?.lift(),
        RelExpr::Values(rel) => rel.lift(),
        RelExpr::Union(l, r) => go(l)?.union(&go(r)?),
        RelExpr::Difference(l, r) => go(l)?.difference(&go(r)?),
        RelExpr::Intersect(l, r) => go(l)?.intersection(&go(r)?),
        RelExpr::Product(l, r) => go(l)?.product(&go(r)?),
        RelExpr::Select { input, .. }
        | RelExpr::Project { input, .. }
        | RelExpr::ExtProject { input, .. } => linear(expr, &go(input)?),
        RelExpr::Join {
            left,
            right,
            predicate,
        } => {
            // Definition 3.2: E₁ ⋈_φ E₂ = σ_φ(E₁ × E₂)
            let prod = go(left)?.product(&go(right)?)?;
            prod.select(|t| predicate.eval_predicate(t))
        }
        RelExpr::Distinct(input) => Ok(go(input)?.distinct()),
        RelExpr::GroupBy {
            input,
            keys,
            agg,
            attr,
        } => group_by(&go(input)?, keys, *agg, *attr),
        RelExpr::Closure(input) => transitive_closure(&go(input)?),
    }
}

/// Applies the σ, π or π̄ node `expr` to `input`, the value of its child
/// (which is not evaluated). These are the linear operators of
/// Definitions 3.1 and 3.4: their multiplicity laws only keep or sum
/// multiplicities, so they hold in every semiring, and in ℤ each operator
/// is its own delta rule — view maintenance maps signed deltas through
/// this same function.
pub fn linear<S: Semiring>(expr: &RelExpr, input: &KRelation<S>) -> CoreResult<KRelation<S>> {
    match expr {
        RelExpr::Select { predicate, .. } => input.select(|t| predicate.eval_predicate(t)),
        RelExpr::Project { attrs, .. } => input.project(attrs),
        RelExpr::ExtProject { exprs, .. } => {
            input.map_tuples(ext_project_schema(input.schema(), exprs)?, |t| {
                let vals: CoreResult<Vec<Value>> = exprs.iter().map(|e| e.eval(t)).collect();
                Ok(Tuple::new(vals?))
            })
        }
        other => Err(CoreError::TypeError(format!(
            "not a linear operator (σ, π or π̄): {other}"
        ))),
    }
}

/// Transitive closure `α(E)` of a binary edge relation (the §5
/// extension): the duplicate-free set of pairs connected by a path of at
/// least one edge, computed by semi-naive fixpoint iteration.
///
/// Closure is inherently *set*-valued — a bag fixpoint diverges on cycles
/// because every lap multiplies multiplicities — so the result carries
/// multiplicity one throughout, like `δ`.
pub fn transitive_closure<S: Semiring>(rel: &KRelation<S>) -> CoreResult<KRelation<S>> {
    use rustc_hash::FxHashSet;
    if rel.schema().arity() != 2 {
        return Err(CoreError::TypeError(format!(
            "transitive closure needs a binary relation, found arity {}",
            rel.schema().arity()
        )));
    }
    // adjacency over the support
    let mut succ: FxHashMap<&Value, Vec<&Value>> = FxHashMap::default();
    for t in rel.support() {
        succ.entry(t.attr(1)?).or_default().push(t.attr(2)?);
    }
    let mut reached: FxHashSet<(Value, Value)> = FxHashSet::default();
    let mut frontier: Vec<(Value, Value)> = Vec::new();
    for t in rel.support() {
        let pair = (t.attr(1)?.clone(), t.attr(2)?.clone());
        if reached.insert(pair.clone()) {
            frontier.push(pair);
        }
    }
    // semi-naive: extend only the pairs discovered last round
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for (x, y) in &frontier {
            if let Some(zs) = succ.get(y) {
                for &z in zs {
                    let pair = (x.clone(), z.clone());
                    if reached.insert(pair.clone()) {
                        next.push(pair);
                    }
                }
            }
        }
        frontier = next;
    }
    let mut out = KRelation::empty(Arc::clone(rel.schema()));
    for (x, y) in reached {
        out.insert(Tuple::new(vec![x, y]), S::ONE)?;
    }
    Ok(out)
}

/// Direct implementation of the group-by construct (Definition 3.4).
///
/// Groups are classes of tuples equal on the key attributes; the aggregate
/// runs over the bag of `x.attr` values *with multiplicities* — each
/// tuple weighs its multiplicity's [`NaturallyOrdered::weight`], so in 𝔹
/// every distinct tuple counts once. An empty key list produces exactly
/// one tuple aggregating the whole input — in that case partial aggregates
/// (AVG/MIN/MAX) over an empty input propagate the error the paper's
/// partiality implies.
pub fn group_by<S: NaturallyOrdered>(
    rel: &KRelation<S>,
    keys: &[usize],
    agg: Aggregate,
    attr: usize,
) -> CoreResult<KRelation<S>> {
    let key_list = if keys.is_empty() {
        None
    } else {
        let list = AttrList::new_unique(keys.to_vec())?;
        list.check_arity(rel.schema().arity())?;
        Some(list)
    };
    let in_type = rel.schema().dtype(attr)?;
    let out_type = agg.result_type(in_type)?;
    let key_schema = match &key_list {
        Some(list) => rel.schema().project(list)?,
        None => Schema::new(vec![]),
    };
    let out_schema = Arc::new(key_schema.with_attr(Attribute::anon(out_type)));

    // partition: key tuple → bag of (aggregated value, weight)
    let mut groups: FxHashMap<Tuple, Vec<(Value, u64)>> = FxHashMap::default();
    for (t, m) in rel.iter() {
        let key = match &key_list {
            Some(list) => t.project(list)?,
            None => Tuple::empty(),
        };
        let v = t.attr(attr)?.clone();
        groups.entry(key).or_default().push((v, m.weight()));
    }

    let mut out = KRelation::empty(out_schema);
    if key_list.is_none() {
        // whole-relation aggregation always yields exactly one tuple
        let empty = Vec::new();
        let vals = groups.remove(&Tuple::empty()).unwrap_or(empty);
        let v = agg.compute(in_type, vals.iter().map(|(v, m)| (v, *m)))?;
        out.insert(Tuple::new(vec![v]), S::ONE)?;
        return Ok(out);
    }
    for (key, vals) in groups {
        let v = agg.compute(in_type, vals.iter().map(|(v, m)| (v, *m)))?;
        let mut kv = key.into_values();
        kv.push(v);
        out.insert(Tuple::new(kv), S::ONE)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::NoRelations;
    use mera_core::tuple;
    use mera_expr::ScalarExpr;

    /// The paper's beer database, §3 examples.
    pub(crate) fn beer_db() -> Database {
        let schema = DatabaseSchema::new()
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
            .unwrap();
        let mut db = Database::new(schema);
        let beer_schema = Arc::clone(db.schema().get("beer").unwrap());
        db.replace(
            "beer",
            Relation::from_tuples(
                beer_schema,
                vec![
                    tuple!["Grolsch", "Grolsche", 5.0_f64],
                    tuple!["Heineken", "Heineken", 5.0_f64],
                    tuple!["Amstel", "Heineken", 5.1_f64],
                    tuple!["Guinness", "StJames", 4.2_f64],
                    // two different Dutch brewers brew a beer named "Bock"
                    tuple!["Bock", "Grolsche", 6.5_f64],
                    tuple!["Bock", "Heineken", 6.3_f64],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let brewery_schema = Arc::clone(db.schema().get("brewery").unwrap());
        db.replace(
            "brewery",
            Relation::from_tuples(
                brewery_schema,
                vec![
                    tuple!["Grolsche", "Enschede", "NL"],
                    tuple!["Heineken", "Amsterdam", "NL"],
                    tuple!["StJames", "Dublin", "IE"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    /// Example 3.1: names of beers brewed in the Netherlands, duplicates
    /// preserved.
    fn dutch_beers() -> RelExpr {
        RelExpr::scan("beer")
            .join(
                RelExpr::scan("brewery"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            )
            .select(ScalarExpr::attr(6).eq(ScalarExpr::str("NL")))
            .project(&[1])
    }

    #[test]
    fn example_3_1_keeps_duplicates() {
        let db = beer_db();
        let result = eval(&dutch_beers(), &db).unwrap();
        // Bock is brewed by two Dutch brewers → multiplicity 2
        assert_eq!(result.multiplicity(&tuple!["Bock"]), 2);
        assert_eq!(result.multiplicity(&tuple!["Grolsch"]), 1);
        assert_eq!(result.multiplicity(&tuple!["Guinness"]), 0);
        assert_eq!(result.len(), 5);
    }

    #[test]
    fn join_is_selection_over_product() {
        let db = beer_db();
        let join = RelExpr::scan("beer").join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        );
        let desugared = RelExpr::scan("beer")
            .product(RelExpr::scan("brewery"))
            .select(ScalarExpr::attr(2).eq(ScalarExpr::attr(4)));
        assert_eq!(eval(&join, &db).unwrap(), eval(&desugared, &db).unwrap());
    }

    #[test]
    fn intersect_is_double_difference() {
        let db = beer_db();
        let strong = RelExpr::scan("beer")
            .select(ScalarExpr::attr(3).cmp(mera_expr::CmpOp::Gt, ScalarExpr::real(5.0)));
        let heineken =
            RelExpr::scan("beer").select(ScalarExpr::attr(2).eq(ScalarExpr::str("Heineken")));
        let inter = strong.clone().intersect(heineken.clone());
        let desugar = strong.clone().difference(strong.difference(heineken));
        assert_eq!(eval(&inter, &db).unwrap(), eval(&desugar, &db).unwrap());
    }

    #[test]
    fn example_3_2_avg_per_country() {
        let db = beer_db();
        // gamma[(country), AVG, alcperc] over the join; country is %6,
        // alcperc is %3
        let e = RelExpr::scan("beer")
            .join(
                RelExpr::scan("brewery"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            )
            .group_by(&[6], Aggregate::Avg, 3);
        let r = eval(&e, &db).unwrap();
        assert_eq!(r.len(), 2);
        // NL: (5.0 + 5.0 + 5.1 + 6.5 + 6.3) / 5 = 5.58
        let nl_avg = (5.0 + 5.0 + 5.1 + 6.5 + 6.3) / 5.0;
        assert_eq!(r.multiplicity(&tuple!["NL", nl_avg]), 1, "result was: {r}");
        assert_eq!(r.multiplicity(&tuple!["IE", 4.2_f64]), 1);
    }

    #[test]
    fn example_3_2_projection_insertion_is_safe_under_bags() {
        let db = beer_db();
        let join = RelExpr::scan("beer").join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        );
        let direct = join.clone().group_by(&[6], Aggregate::Avg, 3);
        // insert pi(alcperc, country) before grouping: alcperc is now %1,
        // country %2
        let reduced = join.project(&[3, 6]).group_by(&[2], Aggregate::Avg, 1);
        assert_eq!(eval(&direct, &db).unwrap(), eval(&reduced, &db).unwrap());
    }

    #[test]
    fn ext_project_guineken_update_expression() {
        // Example 4.1's attribute expression list: (name, brewery, alcperc*1.1)
        let db = beer_db();
        let e = RelExpr::scan("beer")
            .select(ScalarExpr::attr(2).eq(ScalarExpr::str("Heineken")))
            .ext_project(vec![
                ScalarExpr::attr(1),
                ScalarExpr::attr(2),
                ScalarExpr::attr(3).mul(ScalarExpr::real(1.1)),
            ]);
        let r = eval(&e, &db).unwrap();
        assert_eq!(
            r.multiplicity(&tuple!["Heineken", "Heineken", 5.0 * 1.1]),
            1
        );
        assert_eq!(r.len(), 3);
        // schema is structure-preserving: (str, str, real)
        assert!(r.schema().same_types(db.relation("beer").unwrap().schema()));
    }

    #[test]
    fn distinct_collapses_multiplicities() {
        let db = beer_db();
        let e = dutch_beers().distinct();
        let r = eval(&e, &db).unwrap();
        assert_eq!(r.multiplicity(&tuple!["Bock"]), 1);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn group_by_counts_duplicates() {
        let db = beer_db();
        // CNT of beers per brewery (p = %1 is a dummy for CNT)
        let e = RelExpr::scan("beer").group_by(&[2], Aggregate::Cnt, 1);
        let r = eval(&e, &db).unwrap();
        assert_eq!(r.multiplicity(&tuple!["Heineken", 3_i64]), 1);
        assert_eq!(r.multiplicity(&tuple!["Grolsche", 2_i64]), 1);
        assert_eq!(r.multiplicity(&tuple!["StJames", 1_i64]), 1);
    }

    #[test]
    fn group_by_empty_keys_aggregates_all() {
        let db = beer_db();
        let e = RelExpr::scan("beer").group_by(&[], Aggregate::Max, 3);
        let r = eval(&e, &db).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.multiplicity(&tuple![6.5_f64]), 1);
    }

    #[test]
    fn group_by_empty_input_partial_aggregates_error() {
        let db = beer_db();
        let none = RelExpr::scan("beer").select(ScalarExpr::bool(false));
        // CNT of nothing is 0 — total
        let cnt = none.clone().group_by(&[], Aggregate::Cnt, 1);
        let r = eval(&cnt, &db).unwrap();
        assert_eq!(r.multiplicity(&tuple![0_i64]), 1);
        // SUM of nothing is the typed zero of the domain — total
        let sum = none.clone().group_by(&[], Aggregate::Sum, 3);
        let r = eval(&sum, &db).unwrap();
        assert_eq!(r.multiplicity(&tuple![0.0_f64]), 1);
        // AVG of nothing is undefined — partial
        let avg = none.clone().group_by(&[], Aggregate::Avg, 3);
        assert_eq!(
            eval(&avg, &db).unwrap_err(),
            CoreError::AggregateOnEmpty("AVG")
        );
        // with a non-empty grouping list there are no groups, hence no error
        let avg_by = none.group_by(&[2], Aggregate::Avg, 3);
        assert!(eval(&avg_by, &db).unwrap().is_empty());
    }

    #[test]
    fn sum_of_empty_group_is_typed_zero() {
        // SUM of the empty bag is the zero of the attribute's domain, so
        // the result stays schema-correct for real columns too.
        let schema = Arc::new(Schema::anon(&[DataType::Real]));
        let rel = Relation::empty(schema);
        let r = group_by(&rel, &[], Aggregate::Sum, 1).unwrap();
        assert_eq!(r.multiplicity(&tuple![0.0_f64]), 1);
    }

    #[test]
    fn runtime_errors_surface() {
        let rel = relation_of(Schema::anon(&[DataType::Int]), vec![tuple![0_i64]]).unwrap();
        let e = RelExpr::values(rel).select(
            ScalarExpr::int(1)
                .div(ScalarExpr::attr(1))
                .eq(ScalarExpr::int(1)),
        );
        assert_eq!(
            eval(&e, &NoRelations).unwrap_err(),
            CoreError::DivisionByZero
        );
    }

    #[test]
    fn eval_checks_schema_first() {
        let db = beer_db();
        let bad = RelExpr::scan("beer").union(RelExpr::scan("brewery"));
        assert!(matches!(
            eval(&bad, &db),
            Err(CoreError::SchemaMismatch { .. })
        ));
        let bad = RelExpr::scan("nosuch");
        assert!(matches!(
            eval(&bad, &db),
            Err(CoreError::UnknownRelation(_))
        ));
    }

    // ---- the 𝔹 instance: classical set semantics ----

    #[test]
    fn set_scan_discards_duplicates() {
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int]))
            .unwrap();
        let mut db = Database::new(schema);
        db.update_with("r", |r| {
            let mut r = r.clone();
            r.insert(tuple![1_i64], 5)?;
            Ok(r)
        })
        .unwrap();
        let out = eval_in::<bool>(&RelExpr::scan("r"), &db).unwrap();
        assert_eq!(out.len(), 1);
    }

    /// Example 3.2's incorrectness claim, reproduced exactly: under set
    /// semantics the direct aggregation and the projection-reduced
    /// aggregation disagree; under bag semantics they agree.
    #[test]
    fn example_3_2_set_semantics_is_wrong() {
        let db = beer_db();
        let join = RelExpr::scan("beer").join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        );
        let direct = join.clone().group_by(&[6], Aggregate::Avg, 3);
        let reduced = join.project(&[3, 6]).group_by(&[2], Aggregate::Avg, 1);

        // bag semantics: identical
        assert_eq!(eval(&direct, &db).unwrap(), eval(&reduced, &db).unwrap());

        // set semantics: the projection collapses the two distinct 5.0%
        // Dutch beers into one tuple, skewing the NL average
        let set_direct = eval_in::<bool>(&direct, &db).unwrap();
        let set_reduced = eval_in::<bool>(&reduced, &db).unwrap();
        assert_ne!(set_direct, set_reduced);
        let nl = |r: &KRelation<bool>| {
            let row = r
                .support()
                .find(|t| t.attr(1).unwrap() == &Value::from("NL"));
            row.unwrap().attr(2).unwrap().as_f64().unwrap()
        };
        let nl_direct = (5.0 + 5.0 + 5.1 + 6.5 + 6.3) / 5.0;
        let nl_reduced = (5.0 + 5.1 + 6.5 + 6.3) / 4.0; // 5.0 counted once!
        assert!((nl(&set_direct) - nl_direct).abs() < 1e-9);
        assert!((nl(&set_reduced) - nl_reduced).abs() < 1e-9);
    }

    #[test]
    fn set_and_bag_agree_on_duplicate_free_data() {
        // when the data and query produce no duplicates, both semantics
        // coincide — a sanity check on the baseline
        let db = beer_db();
        let e = RelExpr::scan("brewery").select(ScalarExpr::attr(3).eq(ScalarExpr::str("NL")));
        let bag = eval(&e, &db).unwrap();
        assert!(bag.iter().all(|(_, m)| m == 1));
        assert_eq!(eval_in::<bool>(&e, &db).unwrap(), bag.lift().unwrap());
    }

    #[test]
    fn set_projection_loses_cardinality() {
        let db = beer_db();
        let e = RelExpr::scan("beer").project(&[3]);
        assert_eq!(eval(&e, &db).unwrap().len(), 6); // bag projection keeps all 6
        assert_eq!(eval_in::<bool>(&e, &db).unwrap().len(), 5); // 5.0 appears once
    }

    /// A 𝔹 result is a set by construction; over positive operators it is
    /// exactly the support of the bag result.
    #[test]
    fn results_always_duplicate_free() {
        let db = beer_db();
        let exprs = vec![
            RelExpr::scan("beer").project(&[2]),
            RelExpr::scan("beer").union(RelExpr::scan("beer")),
            RelExpr::scan("beer")
                .product(RelExpr::scan("brewery"))
                .project(&[2]),
            RelExpr::scan("beer").ext_project(vec![ScalarExpr::attr(2)]),
        ];
        for e in exprs {
            let set = eval_in::<bool>(&e, &db).unwrap();
            assert_eq!(set.len(), set.distinct_len() as u64, "{e}");
            assert_eq!(set, eval(&e, &db).unwrap().lift().unwrap(), "{e}");
        }
    }
}
