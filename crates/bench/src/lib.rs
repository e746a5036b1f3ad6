//! # mera-bench — workload generators and the experiment harness
//!
//! Deterministic (seeded) generators for the relations every experiment
//! in `EXPERIMENTS.md` runs on:
//!
//! * [`scaled_beer_db`] — the paper's beer/brewery schema scaled to
//!   arbitrary sizes with a controllable duplication profile,
//! * [`int_relation`] — generic `(int, int)` relations with exact control
//!   over cardinality and distinct counts (duplication factor),
//! * [`zipf_indices`] — skewed value distributions, the regime where bag
//!   semantics and duplicate-removal costs diverge most.
//!
//! The [`experiments`] module contains the measured experiment drivers
//! shared by the Criterion benches and the `experiments` report binary.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use std::sync::Arc;

use mera_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for a named experiment.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples `n` indices in `0..universe` from a (truncated) Zipf-like
/// distribution with exponent `s` — rank `k` is drawn with probability
/// ∝ `1/(k+1)^s`. `s = 0.0` is uniform.
pub fn zipf_indices(rng: &mut StdRng, n: usize, universe: usize, s: f64) -> Vec<usize> {
    assert!(universe > 0, "universe must be non-empty");
    // cumulative weights
    let mut cum = Vec::with_capacity(universe);
    let mut total = 0.0;
    for k in 0..universe {
        total += 1.0 / ((k + 1) as f64).powf(s);
        cum.push(total);
    }
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..total);
            match cum.binary_search_by(|c| c.partial_cmp(&x).expect("no NaN")) {
                Ok(i) | Err(i) => i.min(universe - 1),
            }
        })
        .collect()
}

/// A generic relation `(k: int, v: int)` with exactly `rows` tuples whose
/// key column draws from `distinct_keys` values with Zipf exponent
/// `skew`. `skew = 0` gives a uniform duplication profile;
/// `rows / distinct_keys` is the mean duplication factor.
pub fn int_relation(rows: usize, distinct_keys: usize, skew: f64, seed: u64) -> Relation {
    let mut r = rng(seed);
    let schema = Arc::new(Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]));
    let keys = zipf_indices(&mut r, rows, distinct_keys.max(1), skew);
    let mut rel = Relation::empty(schema);
    for k in keys {
        let v: i64 = r.gen_range(0..1_000);
        rel.insert(tuple![k as i64, v], 1).expect("well-typed");
    }
    rel
}

/// A generic relation `(k: str, v: int)` — the string-keyed sibling of
/// [`int_relation`] for workloads that hash, compare and group interned
/// string keys. Keys are `"key{i}"` over `distinct_keys` values with Zipf
/// exponent `skew`.
pub fn str_relation(rows: usize, distinct_keys: usize, skew: f64, seed: u64) -> Relation {
    let mut r = rng(seed);
    let schema = Arc::new(Schema::named(&[("k", DataType::Str), ("v", DataType::Int)]));
    let keys = zipf_indices(&mut r, rows, distinct_keys.max(1), skew);
    let mut rel = Relation::empty(schema);
    for k in keys {
        let v: i64 = r.gen_range(0..1_000);
        rel.insert(tuple![format!("key{k}"), v], 1)
            .expect("well-typed");
    }
    rel
}

/// A single-column `(a: int)` relation for set-operation workloads:
/// `rows` tuples over `distinct` values, uniform.
pub fn column_relation(rows: usize, distinct: usize, seed: u64) -> Relation {
    let mut r = rng(seed);
    let schema = Arc::new(Schema::named(&[("a", DataType::Int)]));
    let mut rel = Relation::empty(schema);
    for _ in 0..rows {
        let v: i64 = r.gen_range(0..distinct.max(1) as i64);
        rel.insert(tuple![v], 1).expect("well-typed");
    }
    rel
}

/// The paper's beer/brewery database scaled up: `n_beers` beer tuples
/// over `n_breweries` breweries across `n_countries` countries, with
/// beer-name duplication controlled by `name_universe` (smaller universe
/// ⇒ more duplicate names — Example 3.1's "several Dutch brewers brew
/// beers with the same name").
pub fn scaled_beer_db(
    n_beers: usize,
    n_breweries: usize,
    n_countries: usize,
    name_universe: usize,
    seed: u64,
) -> Database {
    let mut r = rng(seed);
    let schema = DatabaseSchema::new()
        .with(
            "beer",
            Schema::named(&[
                ("name", DataType::Str),
                ("brewery", DataType::Str),
                ("alcperc", DataType::Real),
            ]),
        )
        .expect("fresh schema")
        .with(
            "brewery",
            Schema::named(&[
                ("name", DataType::Str),
                ("city", DataType::Str),
                ("country", DataType::Str),
            ]),
        )
        .expect("fresh schema");
    let mut db = Database::new(schema);

    let brewery_schema = Arc::clone(db.schema().get("brewery").expect("declared"));
    let mut breweries = Relation::empty(brewery_schema);
    for b in 0..n_breweries {
        let country = format!("C{}", b % n_countries.max(1));
        breweries
            .insert(
                tuple![format!("brewery{b}"), format!("city{b}"), country],
                1,
            )
            .expect("well-typed");
    }
    db.replace("brewery", breweries).expect("replace");

    let beer_schema = Arc::clone(db.schema().get("beer").expect("declared"));
    let mut beers = Relation::empty(beer_schema);
    let names = zipf_indices(&mut r, n_beers, name_universe.max(1), 1.1);
    for name_ix in names {
        let brewery = r.gen_range(0..n_breweries.max(1));
        // alcohol percentages on a coarse grid so duplicates also arise in
        // projections of the numeric column
        let alc = (r.gen_range(30..130) as f64) / 10.0;
        beers
            .insert(
                tuple![format!("beer{name_ix}"), format!("brewery{brewery}"), alc],
                1,
            )
            .expect("well-typed");
    }
    db.replace("beer", beers).expect("replace");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let mut a = rng(7);
        let mut b = rng(7);
        let xs = zipf_indices(&mut a, 1000, 50, 1.2);
        let ys = zipf_indices(&mut b, 1000, 50, 1.2);
        assert_eq!(xs, ys);
        // rank 0 must dominate under skew
        let count0 = xs.iter().filter(|&&x| x == 0).count();
        let count49 = xs.iter().filter(|&&x| x == 49).count();
        assert!(count0 > count49, "rank 0: {count0}, rank 49: {count49}");
        assert!(xs.iter().all(|&x| x < 50));
    }

    #[test]
    fn int_relation_has_requested_shape() {
        let rel = int_relation(500, 20, 0.0, 1);
        assert_eq!(rel.len(), 500);
        // keys live in 0..20
        for t in rel.support() {
            let k = t.attr(1).expect("key").as_int().expect("int");
            assert!((0..20).contains(&k));
        }
    }

    #[test]
    fn str_relation_has_requested_shape() {
        let rel = str_relation(500, 20, 0.0, 5);
        assert_eq!(rel.len(), 500);
        for t in rel.support() {
            let k = t.attr(1).expect("key").as_str().expect("str");
            assert!(k.starts_with("key"));
        }
        assert_eq!(str_relation(100, 10, 1.0, 7), str_relation(100, 10, 1.0, 7));
    }

    #[test]
    fn column_relation_duplicates() {
        let rel = column_relation(1000, 10, 2);
        assert_eq!(rel.len(), 1000);
        assert!(rel.distinct_len() <= 10);
        // mean duplication ≈ 100
        assert!(rel.len() / rel.distinct_len() as u64 >= 50);
    }

    #[test]
    fn scaled_beer_db_is_well_formed() {
        let db = scaled_beer_db(1000, 50, 5, 100, 3);
        let beer = db.relation("beer").expect("present");
        let brewery = db.relation("brewery").expect("present");
        assert_eq!(beer.len(), 1000);
        assert_eq!(brewery.len(), 50);
        // every beer's brewery exists (referential integrity of the
        // generator, not the model — the paper keeps constraints out of
        // scope)
        let known: std::collections::HashSet<&Value> = brewery
            .support()
            .map(|t| t.attr(1).expect("name"))
            .collect();
        for t in beer.support() {
            assert!(known.contains(t.attr(2).expect("brewery")));
        }
    }

    #[test]
    fn generators_are_seed_stable() {
        assert_eq!(
            int_relation(100, 10, 1.0, 42),
            int_relation(100, 10, 1.0, 42)
        );
        let a = scaled_beer_db(100, 10, 3, 20, 9);
        let b = scaled_beer_db(100, 10, 3, 20, 9);
        assert_eq!(
            a.relation("beer").expect("present"),
            b.relation("beer").expect("present")
        );
    }
}
