//! Hash aggregation state for the group-by construct (Definition 3.4).

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::Aggregate;
use rustc_hash::FxHashMap;

use super::{Counted, CountedBatch};

/// A group-by `γ_{keys, agg, attr}` resolved against its input schema —
/// built once at plan time, so the per-row path is index arithmetic only.
pub(crate) struct GroupBySpec {
    /// Output schema: the key attributes followed by the aggregate.
    pub schema: SchemaRef,
    /// Resolved key offsets; `None` for the empty key list (one global
    /// group, exactly one output tuple).
    pub keys: Option<ResolvedAttrs>,
    /// 0-based offset of the aggregated attribute.
    pub attr0: usize,
    /// Type of the aggregated attribute in the input schema.
    pub in_type: DataType,
}

impl GroupBySpec {
    /// Validates the key list (unique, in range) and the aggregate's
    /// domain against `input`.
    pub fn new(input: &Schema, keys: &[usize], agg: Aggregate, attr: usize) -> CoreResult<Self> {
        let in_type = input.dtype(attr)?;
        let key_list = if keys.is_empty() {
            None
        } else {
            let list = AttrList::new_unique(keys.to_vec())?;
            list.check_arity(input.arity())?;
            Some(list)
        };
        let key_schema = match &key_list {
            Some(list) => input.project(list)?,
            None => Schema::new(vec![]),
        };
        let schema = Arc::new(key_schema.with_attr(Attribute::anon(agg.result_type(in_type)?)));
        let keys = match &key_list {
            Some(list) => Some(ResolvedAttrs::from_attr_list(list, input.arity())?),
            None => None,
        };
        Ok(GroupBySpec {
            schema,
            keys,
            attr0: attr - 1,
            in_type,
        })
    }
}

/// One group's accumulated state: its key tuple — materialised exactly
/// once, when the group is first seen — and the distinct aggregated values
/// with total multiplicities.
struct Group {
    key: Tuple,
    vals: Vec<(Value, u64)>,
}

/// Accumulated per-group state for hash aggregation. Keyed
/// aggregation parallelises by **radix partitioning**: batches are split
/// on the columnar key hash so each worker owns a disjoint slice of the
/// key space and builds a complete `AggState` for it — partition results
/// simply concatenate, no merge step. The empty key list (one global
/// group) cannot be partitioned, so it keeps the two-phase shape: each
/// worker folds a thread-local state, then the states are
/// [`merge`](AggState::merge)d once. Both splits are exact for every
/// aggregate — the same `(group, value)` pair merges associatively
/// (multiplicities add) — including AVG's weighted denominator.
///
/// Groups are looked up hash-then-verify on the columnar key hash: the
/// update path hashes the key columns of each batch **in place** and
/// compares candidates cell-wise against the group's key tuple; a row
/// landing in an existing group allocates nothing.
pub struct AggState {
    keys: Option<ResolvedAttrs>,
    /// 0-based offset of the aggregated attribute.
    attr0: usize,
    groups: FxHashMap<u64, Vec<Group>>,
}

impl AggState {
    /// Fresh state grouping on the resolved `keys` (`None` ⇒ one global
    /// group) and aggregating the 0-based attribute offset `attr0`.
    pub fn new(keys: Option<ResolvedAttrs>, attr0: usize) -> Self {
        AggState {
            keys,
            attr0,
            groups: FxHashMap::default(),
        }
    }

    /// Folds every counted row of a batch into its group.
    pub fn update_batch(&mut self, batch: &CountedBatch) -> CoreResult<()> {
        if self.attr0 >= batch.schema().arity() {
            return Err(CoreError::AttrIndexOutOfRange {
                index: self.attr0 + 1,
                arity: batch.schema().arity(),
            });
        }
        let hashes = match &self.keys {
            Some(k) => batch.key_hashes(k.offsets()),
            None => vec![0; batch.len()],
        };
        let val_col = batch.column(self.attr0);
        for (i, h) in hashes.into_iter().enumerate() {
            let bucket = self.groups.entry(h).or_default();
            let gi = match bucket.iter().position(|g| match &self.keys {
                Some(k) => k
                    .offsets()
                    .iter()
                    .zip(g.key.values())
                    .all(|(&off, kv)| batch.column(off).eq_value(i, kv)),
                None => true,
            }) {
                Some(gi) => gi,
                None => {
                    let key = match &self.keys {
                        Some(k) => Tuple::new(
                            k.offsets()
                                .iter()
                                .map(|&off| batch.column(off).value(i))
                                .collect(),
                        ),
                        None => Tuple::empty(),
                    };
                    bucket.push(Group {
                        key,
                        vals: Vec::new(),
                    });
                    bucket.len() - 1
                }
            };
            // merge rows of the same (key, value) eagerly to bound memory
            let v = val_col.value(i);
            let m = batch.counts()[i];
            let entry = &mut bucket[gi].vals;
            match entry.iter_mut().find(|(ev, _)| ev == &v) {
                Some((_, em)) => {
                    *em = em.checked_add(m).ok_or(CoreError::Overflow("group size"))?;
                }
                None => entry.push((v, m)),
            }
        }
        Ok(())
    }

    /// Absorbs a state built over a disjoint chunk of the same input
    /// (phase two of parallel aggregation). Group keys are already
    /// materialised on both sides, so candidates compare tuple-to-tuple.
    pub fn merge(&mut self, other: AggState) -> CoreResult<()> {
        for (h, groups) in other.groups {
            let bucket = self.groups.entry(h).or_default();
            for g in groups {
                let Some(mine) = bucket.iter_mut().find(|mine| mine.key == g.key) else {
                    bucket.push(g);
                    continue;
                };
                for (v, m) in g.vals {
                    match mine.vals.iter_mut().find(|(ev, _)| ev == &v) {
                        Some((_, em)) => {
                            *em = em.checked_add(m).ok_or(CoreError::Overflow("group size"))?;
                        }
                        None => mine.vals.push((v, m)),
                    }
                }
            }
        }
        Ok(())
    }

    /// Computes the aggregate per group, consuming the state. `in_type` is
    /// the type of the aggregated attribute in the input schema.
    pub fn finish(self, agg: Aggregate, in_type: DataType) -> CoreResult<Vec<Counted>> {
        if self.keys.is_none() {
            let vals = self
                .groups
                .into_values()
                .flatten()
                .next()
                .map(|g| g.vals)
                .unwrap_or_default();
            let v = agg.compute(in_type, vals.iter().map(|(v, m)| (v, *m)))?;
            return Ok(vec![(Tuple::new(vec![v]), 1)]);
        }
        let mut out = Vec::with_capacity(self.groups.len().max(1));
        for g in self.groups.into_values().flatten() {
            let v = agg.compute(in_type, g.vals.iter().map(|(v, m)| (v, *m)))?;
            let mut kv = g.key.into_values();
            kv.push(v);
            out.push((Tuple::new(kv), 1));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    fn sales() -> Relation {
        Relation::from_counted(
            Arc::new(Schema::named(&[
                ("city", DataType::Str),
                ("amount", DataType::Int),
            ])),
            vec![
                (tuple!["ams", 10_i64], 2),
                (tuple!["ams", 20_i64], 1),
                (tuple!["ens", 5_i64], 3),
            ],
        )
        .unwrap()
    }

    /// `γ` over `inputs`, each fed to one state in batches of two rows.
    fn group_by(
        inputs: &[&Relation],
        keys: &[usize],
        agg: Aggregate,
        attr: usize,
    ) -> CoreResult<Relation> {
        let schema = inputs[0].schema();
        let spec = GroupBySpec::new(schema, keys, agg, attr)?;
        let mut state = AggState::new(spec.keys, spec.attr0);
        for rel in inputs {
            let rows: Vec<Counted> = rel.iter().map(|(t, m)| (t.clone(), m)).collect();
            for chunk in rows.chunks(2) {
                state.update_batch(&CountedBatch::from_rows(Arc::clone(schema), chunk.to_vec()))?;
            }
        }
        Relation::from_counted(spec.schema, state.finish(agg, spec.in_type)?)
    }

    #[test]
    fn grouped_sum_weights_multiplicities() {
        let r = sales();
        let out = group_by(&[&r], &[1], Aggregate::Sum, 2).unwrap();
        assert_eq!(out.multiplicity(&tuple!["ams", 40_i64]), 1);
        assert_eq!(out.multiplicity(&tuple!["ens", 15_i64]), 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn whole_relation_aggregate_single_tuple() {
        let r = sales();
        let out = group_by(&[&r], &[], Aggregate::Cnt, 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.multiplicity(&tuple![6_i64]), 1);
    }

    #[test]
    fn chunked_input_merges_before_aggregation() {
        // the same tuple arriving in two rows must count once per total
        // multiplicity, e.g. for AVG denominator correctness
        let r = sales();
        let out = group_by(&[&r, &r], &[1], Aggregate::Avg, 2).unwrap();
        // doubling every multiplicity does not change the average
        let expected_ams = (10.0 * 2.0 + 20.0) / 3.0;
        assert_eq!(out.multiplicity(&tuple!["ams", expected_ams]), 1);
    }

    #[test]
    fn empty_input_with_keys_yields_empty() {
        let empty = Relation::empty(Arc::clone(sales().schema()));
        assert!(group_by(&[&empty], &[1], Aggregate::Avg, 2)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn empty_input_without_keys_partial_aggregate_errors() {
        let empty = Relation::empty(Arc::clone(sales().schema()));
        assert_eq!(
            group_by(&[&empty], &[], Aggregate::Min, 2).unwrap_err(),
            CoreError::AggregateOnEmpty("MIN")
        );
    }

    #[test]
    fn build_validates_keys() {
        let schema = sales().schema().clone();
        assert!(GroupBySpec::new(&schema, &[1, 1], Aggregate::Cnt, 1).is_err());
        assert!(GroupBySpec::new(&schema, &[9], Aggregate::Cnt, 1).is_err());
        // SUM over str
        assert!(GroupBySpec::new(&schema, &[1], Aggregate::Sum, 1).is_err());
    }
}
