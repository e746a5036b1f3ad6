//! Database schemas, instances and transitions (Definitions 2.5–2.6).
//!
//! A database schema is a set of relation schemas; a database instance (or
//! *state*) assigns each a relation. Relations in a database are always
//! addressed by name. States carry a *logical time* `t`, and an ordered pair
//! of states `(D_t1, D_t2)` with `t1 < t2` is a [`Transition`]; the common
//! single-step case has `t2 = t1 + 1`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{CoreError, CoreResult};
use crate::multiset::SignedBag;
use crate::relation::Relation;
use crate::schema::{RelationSchema, Schema, SchemaRef};
use crate::tuple::Tuple;

/// Logical time of a database state (Definition 2.6 uses naturals).
pub type LogicalTime = u64;

/// A database schema: named relation schemas, addressed by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseSchema {
    relations: BTreeMap<String, SchemaRef>,
}

impl DatabaseSchema {
    /// The empty database schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a relation schema, rejecting duplicate names (a schema is a
    /// *set* of relation schemas).
    pub fn add(&mut self, rs: RelationSchema) -> CoreResult<()> {
        if self.relations.contains_key(&rs.name) {
            return Err(CoreError::DuplicateRelation(rs.name));
        }
        self.relations.insert(rs.name, rs.schema);
        Ok(())
    }

    /// Convenience builder.
    pub fn with(mut self, name: &str, schema: Schema) -> CoreResult<Self> {
        self.add(RelationSchema::new(name, schema))?;
        Ok(self)
    }

    /// Looks up a relation schema by name.
    pub fn get(&self, name: &str) -> CoreResult<&SchemaRef> {
        self.relations
            .get(name)
            .ok_or_else(|| CoreError::UnknownRelation(name.to_owned()))
    }

    /// True when `name` is declared.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Relation names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Number of relation schemas.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when no relation schema is declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

impl fmt::Display for DatabaseSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for (name, schema) in &self.relations {
            writeln!(f, "  {name} {schema}")?;
        }
        write!(f, "}}")
    }
}

/// A database state `D_t`: one relation instance per declared schema, plus
/// the logical time.
///
/// Relations are persistent tries ([`crate::pmap::PMap`]), so a clone
/// shares them and costs O(#relations); a write copies only the trie
/// nodes it touches. A transaction never clones one: it runs as a signed
/// delta over a borrowed state, and a commit applies that delta
/// ([`Database::apply`]) to a clone of the newest state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    schema: Arc<DatabaseSchema>,
    relations: BTreeMap<String, Relation>,
    time: LogicalTime,
}

impl Database {
    /// Builds the initial (all-empty) state of a database schema at logical
    /// time 0.
    pub fn new(schema: DatabaseSchema) -> Self {
        let schema = Arc::new(schema);
        let relations = schema
            .relations
            .iter()
            .map(|(n, s)| (n.clone(), Relation::empty(Arc::clone(s))))
            .collect();
        Database {
            schema,
            relations,
            time: 0,
        }
    }

    /// Rebuilds a database state from its constituent parts — the
    /// deserialization entry point snapshot restore needs. Every declared
    /// relation must be given an instance of a type-compatible schema;
    /// instances for undeclared relations are rejected.
    pub fn from_parts<I>(
        schema: DatabaseSchema,
        relations: I,
        time: LogicalTime,
    ) -> CoreResult<Self>
    where
        I: IntoIterator<Item = (String, Relation)>,
    {
        let mut db = Database::new(schema);
        for (name, rel) in relations {
            db.replace(&name, rel)?;
        }
        db.time = time;
        Ok(db)
    }

    /// The database schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The logical time `t` of this state.
    pub fn time(&self) -> LogicalTime {
        self.time
    }

    /// Reads a relation by name.
    pub fn relation(&self, name: &str) -> CoreResult<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| CoreError::UnknownRelation(name.to_owned()))
    }

    /// Replaces the instance of a declared relation (the `R ← E` replacement
    /// of Definition 4.1). The new instance must be type-compatible with the
    /// declared schema.
    pub fn replace(&mut self, name: &str, rel: Relation) -> CoreResult<()> {
        let declared = self.schema.get(name)?;
        declared.check_same_types(rel.schema())?;
        self.relations.insert(name.to_owned(), rel);
        Ok(())
    }

    /// Applies a relation-to-relation transformation in place.
    pub fn update_with<F>(&mut self, name: &str, f: F) -> CoreResult<()>
    where
        F: FnOnce(&Relation) -> CoreResult<Relation>,
    {
        let cur = self.relation(name)?;
        let next = f(cur)?;
        self.replace(name, next)
    }

    /// Applies a signed delta to a relation in place
    /// ([`Relation::apply`]); on error the relation is partly updated.
    pub fn apply(&mut self, name: &str, delta: &SignedBag<Tuple>) -> CoreResult<()> {
        match self.relations.get_mut(name) {
            Some(rel) => rel.apply(delta),
            None => Err(CoreError::UnknownRelation(name.to_owned())),
        }
    }

    /// Advances logical time by one step, returning the new time.
    pub fn tick(&mut self) -> LogicalTime {
        self.time += 1;
        self.time
    }

    /// Adds a new (empty) relation to the database, extending its schema —
    /// the DDL operation a practical front-end needs. Rejects duplicate
    /// names.
    pub fn add_relation(&mut self, rs: RelationSchema) -> CoreResult<()> {
        if self.schema.contains(&rs.name) {
            return Err(CoreError::DuplicateRelation(rs.name));
        }
        let schema = Arc::make_mut(&mut self.schema);
        let name = rs.name.clone();
        let rel_schema = Arc::clone(&rs.schema);
        schema.add(rs)?;
        self.relations.insert(name, Relation::empty(rel_schema));
        Ok(())
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Total number of tuples across all relations (with multiplicity).
    pub fn total_tuples(&self) -> u64 {
        self.relations.values().map(Relation::len).sum()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "D_{} {{", self.time)?;
        for (name, rel) in &self.relations {
            writeln!(f, "{name} ({} tuples)", rel.len())?;
        }
        write!(f, "}}")
    }
}

/// A database transition (Definition 2.6): an ordered pair of states of the
/// same schema with strictly increasing logical time.
#[derive(Debug, Clone)]
pub struct Transition {
    /// The earlier state `D_t1`.
    pub before: Database,
    /// The later state `D_t2`.
    pub after: Database,
}

impl Transition {
    /// Builds a transition, enforcing `t1 < t2` and schema equality.
    pub fn new(before: Database, after: Database) -> CoreResult<Self> {
        if before.time >= after.time {
            return Err(CoreError::TypeError(format!(
                "transition requires t1 < t2, got {} >= {}",
                before.time, after.time
            )));
        }
        if before.schema.as_ref() != after.schema.as_ref() {
            return Err(CoreError::SchemaMismatch {
                expected: before.schema.to_string(),
                found: after.schema.to_string(),
            });
        }
        Ok(Transition { before, after })
    }

    /// True when this is a single-step transition (`t2 = t1 + 1`), the
    /// default reading of "transition" in the paper.
    pub fn is_single_step(&self) -> bool {
        self.after.time == self.before.time + 1
    }

    /// True when the transition left every relation unchanged (an aborted
    /// transaction still advances time but `T(D) = D` up to time).
    pub fn is_identity(&self) -> bool {
        self.before.relations == self.after.relations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::types::DataType;

    fn beer_db() -> Database {
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
        Database::new(schema)
    }

    #[test]
    fn schema_rejects_duplicate_relation_names() {
        let s = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int]))
            .unwrap();
        assert!(matches!(
            s.with("r", Schema::anon(&[DataType::Int])),
            Err(CoreError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn initial_state_is_empty_at_time_zero() {
        let db = beer_db();
        assert_eq!(db.time(), 0);
        assert_eq!(db.relation("beer").unwrap().len(), 0);
        assert_eq!(db.total_tuples(), 0);
        assert!(db.relation("ale").is_err());
    }

    #[test]
    fn replace_validates_schema() {
        let mut db = beer_db();
        let beer_schema = Arc::clone(db.schema().get("beer").unwrap());
        let rel = Relation::from_tuples(beer_schema, vec![tuple!["Grolsch", "Grolsche", 5.0_f64]])
            .unwrap();
        db.replace("beer", rel).unwrap();
        assert_eq!(db.relation("beer").unwrap().len(), 1);

        let wrong = Relation::empty(Arc::new(Schema::anon(&[DataType::Int])));
        assert!(db.replace("beer", wrong).is_err());
        assert!(db
            .replace("nosuch", Relation::empty(Arc::new(Schema::anon(&[]))))
            .is_err());
    }

    #[test]
    fn update_with_transforms_in_place() {
        let mut db = beer_db();
        db.update_with("beer", |r| {
            let mut r = r.clone();
            r.insert(tuple!["Guinness", "StJames", 4.2_f64], 2)?;
            Ok(r)
        })
        .unwrap();
        assert_eq!(db.relation("beer").unwrap().len(), 2);
    }

    #[test]
    fn tick_advances_logical_time() {
        let mut db = beer_db();
        assert_eq!(db.tick(), 1);
        assert_eq!(db.tick(), 2);
        assert_eq!(db.time(), 2);
    }

    #[test]
    fn transition_requires_increasing_time() {
        let d0 = beer_db();
        let mut d1 = d0.clone();
        d1.tick();
        let t = Transition::new(d0.clone(), d1).unwrap();
        assert!(t.is_single_step());
        assert!(t.is_identity());
        assert!(Transition::new(d0.clone(), d0).is_err());
    }

    #[test]
    fn transition_detects_changes() {
        let d0 = beer_db();
        let mut d1 = d0.clone();
        d1.update_with("beer", |r| {
            let mut r = r.clone();
            r.insert(tuple!["Grolsch", "Grolsche", 5.0_f64], 1)?;
            Ok(r)
        })
        .unwrap();
        d1.tick();
        d1.tick(); // multi-step transitions are allowed
        let t = Transition::new(d0, d1).unwrap();
        assert!(!t.is_single_step());
        assert!(!t.is_identity());
    }

    #[test]
    fn add_relation_extends_schema() {
        let mut db = beer_db();
        db.add_relation(RelationSchema::new(
            "drinker",
            Schema::named(&[("name", DataType::Str)]),
        ))
        .unwrap();
        assert!(db.relation("drinker").unwrap().is_empty());
        assert!(db.schema().contains("drinker"));
        // duplicates rejected
        let dup = RelationSchema::new("beer", Schema::anon(&[DataType::Int]));
        assert!(matches!(
            db.add_relation(dup),
            Err(CoreError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn from_parts_rebuilds_a_state() {
        let mut db = beer_db();
        db.update_with("beer", |r| {
            let mut r = r.clone();
            r.insert(tuple!["Grolsch", "Grolsche", 5.0_f64], 2)?;
            Ok(r)
        })
        .unwrap();
        db.tick();
        db.tick();
        let rebuilt = Database::from_parts(
            db.schema().clone(),
            db.relation_names()
                .map(|n| (n.to_owned(), db.relation(n).unwrap().clone()))
                .collect::<Vec<_>>(),
            db.time(),
        )
        .unwrap();
        assert_eq!(rebuilt, db);
        // ill-typed instances are rejected
        let err = Database::from_parts(
            beer_db().schema().clone(),
            vec![(
                "beer".to_owned(),
                Relation::empty(Arc::new(Schema::anon(&[DataType::Int]))),
            )],
            0,
        );
        assert!(matches!(err, Err(CoreError::SchemaMismatch { .. })));
        // undeclared instances too
        let err = Database::from_parts(
            beer_db().schema().clone(),
            vec![(
                "ale".to_owned(),
                Relation::empty(Arc::new(Schema::anon(&[]))),
            )],
            0,
        );
        assert!(matches!(err, Err(CoreError::UnknownRelation(_))));
    }

    #[test]
    fn snapshot_clone_isolates_states() {
        let mut db = beer_db();
        let snap = db.clone();
        db.update_with("beer", |r| {
            let mut r = r.clone();
            r.insert(tuple!["X", "Y", 1.0_f64], 1)?;
            Ok(r)
        })
        .unwrap();
        assert_eq!(snap.relation("beer").unwrap().len(), 0);
        assert_eq!(db.relation("beer").unwrap().len(), 1);
    }
}
