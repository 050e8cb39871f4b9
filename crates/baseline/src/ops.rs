//! Pull-based (Volcano-with-batches) operators for the Impala-like engine.
//!
//! Each operator consumes batches from its child and produces batches. The
//! join is a grace-style partitioned hash join: both inputs are hash-
//! partitioned into `fanout` buckets first and each bucket pair is joined
//! independently — the structure Impala uses to bound memory, reproduced
//! here because the paper names "(grace) hash joins" as the baseline's join
//! strategy.

use crate::expr::Expr;
use crate::row::{Row, RowBatch, Schema};
use rede_common::{fxhash, FxHashMap, RedeError, Result, Value};
use std::sync::Arc;

/// A batch-at-a-time operator.
pub trait Operator {
    /// The output schema.
    fn schema(&self) -> Arc<Schema>;

    /// Produce the next batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<RowBatch>>;

    /// Drain the operator into a single vector of rows.
    fn collect_rows(&mut self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        while let Some(batch) = self.next_batch()? {
            out.extend(batch.rows);
        }
        Ok(out)
    }
}

/// Materialized input (already-scanned batches).
pub struct MemSource {
    schema: Arc<Schema>,
    batches: std::vec::IntoIter<RowBatch>,
}

impl MemSource {
    /// Source over pre-materialized batches.
    pub fn new(schema: Arc<Schema>, batches: Vec<RowBatch>) -> MemSource {
        MemSource {
            schema,
            batches: batches.into_iter(),
        }
    }

    /// Source over one vector of rows.
    pub fn from_rows(schema: Arc<Schema>, rows: Vec<Row>) -> MemSource {
        let batch = RowBatch {
            schema: schema.clone(),
            rows,
        };
        MemSource::new(schema, vec![batch])
    }
}

impl Operator for MemSource {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.batches.next())
    }
}

/// Row filter.
pub struct FilterOp {
    input: Box<dyn Operator>,
    predicate: Expr,
}

impl FilterOp {
    /// Filter `input` by `predicate`.
    pub fn new(input: Box<dyn Operator>, predicate: Expr) -> FilterOp {
        FilterOp { input, predicate }
    }
}

impl Operator for FilterOp {
    fn schema(&self) -> Arc<Schema> {
        self.input.schema()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        while let Some(mut batch) = self.input.next_batch()? {
            let mut err = None;
            batch
                .rows
                .retain(|row| match self.predicate.eval_bool(row) {
                    Ok(keep) => keep,
                    Err(e) => {
                        err.get_or_insert(e);
                        false
                    }
                });
            if let Some(e) = err {
                return Err(e);
            }
            if !batch.rows.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

/// Column projection (by expression).
pub struct ProjectOp {
    input: Box<dyn Operator>,
    exprs: Vec<Expr>,
    schema: Arc<Schema>,
}

impl ProjectOp {
    /// Project `input` through `exprs`, producing `schema`.
    pub fn new(input: Box<dyn Operator>, exprs: Vec<Expr>, schema: Arc<Schema>) -> ProjectOp {
        ProjectOp {
            input,
            exprs,
            schema,
        }
    }
}

impl Operator for ProjectOp {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        match self.input.next_batch()? {
            None => Ok(None),
            Some(batch) => {
                let mut rows = Vec::with_capacity(batch.rows.len());
                for row in &batch.rows {
                    let mut out = Vec::with_capacity(self.exprs.len());
                    for e in &self.exprs {
                        out.push(e.eval(row)?);
                    }
                    rows.push(out);
                }
                Ok(Some(RowBatch {
                    schema: self.schema.clone(),
                    rows,
                }))
            }
        }
    }
}

/// Grace-style partitioned hash join (inner, equi-join on one key column
/// per side).
pub struct HashJoinOp {
    schema: Arc<Schema>,
    output: std::vec::IntoIter<RowBatch>,
}

const JOIN_BATCH: usize = 4096;

impl HashJoinOp {
    /// Join `left` and `right` on `left.rows[left_key] ==
    /// right.rows[right_key]`, partitioning both sides into `fanout`
    /// buckets first. The right side is the build side.
    pub fn new(
        mut left: Box<dyn Operator>,
        left_key: usize,
        mut right: Box<dyn Operator>,
        right_key: usize,
        fanout: usize,
    ) -> Result<HashJoinOp> {
        if fanout == 0 {
            return Err(RedeError::Config("join fanout must be positive".into()));
        }
        let schema = left.schema().join(&right.schema());

        // Grace phase 1: partition both inputs by join-key hash.
        let bucket_of = |v: &Value| {
            let hash = v.with_hash_bytes(|bytes| fxhash::hash_bytes(0x97ace, bytes));
            (hash % fanout as u64) as usize
        };
        let mut left_parts: Vec<Vec<Row>> = vec![Vec::new(); fanout];
        while let Some(batch) = left.next_batch()? {
            for row in batch.rows {
                let key = row
                    .get(left_key)
                    .ok_or_else(|| RedeError::Exec(format!("left row lacks key col {left_key}")))?;
                left_parts[bucket_of(key)].push(row);
            }
        }
        let mut right_parts: Vec<Vec<Row>> = vec![Vec::new(); fanout];
        while let Some(batch) = right.next_batch()? {
            for row in batch.rows {
                let key = row.get(right_key).ok_or_else(|| {
                    RedeError::Exec(format!("right row lacks key col {right_key}"))
                })?;
                right_parts[bucket_of(key)].push(row);
            }
        }

        // Grace phase 2: per-bucket in-memory hash join.
        let mut batches = Vec::new();
        let mut current = RowBatch::empty(schema.clone());
        for (lpart, rpart) in left_parts.into_iter().zip(right_parts) {
            if lpart.is_empty() || rpart.is_empty() {
                continue;
            }
            let mut table: FxHashMap<Value, Vec<Row>> = FxHashMap::default();
            for row in rpart {
                table.entry(row[right_key].clone()).or_default().push(row);
            }
            for lrow in lpart {
                if let Some(matches) = table.get(&lrow[left_key]) {
                    for rrow in matches {
                        let mut joined = lrow.clone();
                        joined.extend(rrow.iter().cloned());
                        current.rows.push(joined);
                        if current.rows.len() >= JOIN_BATCH {
                            batches.push(std::mem::replace(
                                &mut current,
                                RowBatch::empty(schema.clone()),
                            ));
                        }
                    }
                }
            }
        }
        if !current.rows.is_empty() {
            batches.push(current);
        }
        Ok(HashJoinOp {
            schema,
            output: batches.into_iter(),
        })
    }
}

impl Operator for HashJoinOp {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.output.next())
    }
}

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    SumInt,
    SumFloat,
    Min,
    Max,
}

/// Hash aggregation: `GROUP BY key_cols` with one aggregate per spec.
pub struct HashAggregateOp {
    schema: Arc<Schema>,
    output: std::vec::IntoIter<RowBatch>,
}

impl HashAggregateOp {
    /// Aggregate `input` grouped by `key_cols`; each `(func, col)` pair
    /// appends one output column after the keys. Output schema is supplied
    /// by the caller (names are query-specific).
    pub fn new(
        mut input: Box<dyn Operator>,
        key_cols: Vec<usize>,
        aggs: Vec<(AggFunc, usize)>,
        schema: Arc<Schema>,
    ) -> Result<HashAggregateOp> {
        let mut groups: FxHashMap<Vec<Value>, Vec<Value>> = FxHashMap::default();
        while let Some(batch) = input.next_batch()? {
            for row in &batch.rows {
                let key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
                let state = groups.entry(key).or_insert_with(|| {
                    aggs.iter()
                        .map(|(f, _)| match f {
                            AggFunc::Count => Value::Int(0),
                            AggFunc::SumInt => Value::Int(0),
                            AggFunc::SumFloat => Value::Float(0.0),
                            AggFunc::Min | AggFunc::Max => Value::Null,
                        })
                        .collect()
                });
                for (slot, (func, col)) in state.iter_mut().zip(&aggs) {
                    let v = &row[*col];
                    match func {
                        AggFunc::Count => {
                            *slot = Value::Int(slot.as_int().unwrap_or(0) + 1);
                        }
                        AggFunc::SumInt => {
                            let add = v.as_int().ok_or_else(|| {
                                RedeError::Exec(format!("SUM(int) over non-int {v}"))
                            })?;
                            *slot = Value::Int(slot.as_int().unwrap_or(0) + add);
                        }
                        AggFunc::SumFloat => {
                            let add = v.as_float().ok_or_else(|| {
                                RedeError::Exec(format!("SUM(float) over non-numeric {v}"))
                            })?;
                            *slot = Value::Float(slot.as_float().unwrap_or(0.0) + add);
                        }
                        AggFunc::Min => {
                            if slot.is_null() || v < slot {
                                *slot = v.clone();
                            }
                        }
                        AggFunc::Max => {
                            if slot.is_null() || v > slot {
                                *slot = v.clone();
                            }
                        }
                    }
                }
            }
        }
        let mut rows: Vec<Row> = groups
            .into_iter()
            .map(|(mut key, state)| {
                key.extend(state);
                key
            })
            .collect();
        rows.sort(); // deterministic output order
        let batch = RowBatch {
            schema: schema.clone(),
            rows,
        };
        Ok(HashAggregateOp {
            schema,
            output: vec![batch].into_iter(),
        })
    }
}

impl Operator for HashAggregateOp {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.output.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::ColType;

    fn ints(schema: &Arc<Schema>, rows: Vec<Vec<i64>>) -> MemSource {
        MemSource::from_rows(
            schema.clone(),
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect())
                .collect(),
        )
    }

    fn two_col() -> Arc<Schema> {
        Schema::new(vec![("a", ColType::Int), ("b", ColType::Int)])
    }

    #[test]
    fn filter_keeps_matches() {
        let src = ints(&two_col(), vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        let mut op = FilterOp::new(Box::new(src), Expr::col(1).between(15i64, 25i64));
        let rows = op.collect_rows().unwrap();
        assert_eq!(rows, vec![vec![Value::Int(2), Value::Int(20)]]);
    }

    #[test]
    fn project_reorders_and_computes() {
        let src = ints(&two_col(), vec![vec![1, 10]]);
        let out_schema = Schema::new(vec![("b", ColType::Int)]);
        let mut op = ProjectOp::new(Box::new(src), vec![Expr::col(1)], out_schema);
        assert_eq!(op.collect_rows().unwrap(), vec![vec![Value::Int(10)]]);
    }

    #[test]
    fn hash_join_inner_semantics() {
        let left = ints(&two_col(), vec![vec![1, 100], vec![2, 200], vec![3, 300]]);
        let right = ints(
            &two_col(),
            vec![vec![2, -2], vec![3, -3], vec![3, -33], vec![4, -4]],
        );
        let mut join = HashJoinOp::new(Box::new(left), 0, Box::new(right), 0, 4).unwrap();
        let mut rows = join.collect_rows().unwrap();
        rows.sort();
        assert_eq!(rows.len(), 3, "2→1 match, 3→2 matches");
        assert_eq!(rows[0][0], Value::Int(2));
        assert_eq!(join.schema().arity(), 4);
    }

    #[test]
    fn hash_join_fanout_invariant() {
        // Result must be identical for any grace fanout.
        let make = || {
            (
                ints(&two_col(), (0..50).map(|i| vec![i, i * 2]).collect()),
                ints(
                    &two_col(),
                    (0..50)
                        .filter(|i| i % 3 == 0)
                        .map(|i| vec![i, -i])
                        .collect(),
                ),
            )
        };
        let mut counts = Vec::new();
        for fanout in [1, 2, 7, 32] {
            let (l, r) = make();
            let mut j = HashJoinOp::new(Box::new(l), 0, Box::new(r), 0, fanout).unwrap();
            counts.push(j.collect_rows().unwrap().len());
        }
        assert!(counts.iter().all(|&c| c == counts[0]));
        assert_eq!(counts[0], 17);
    }

    #[test]
    fn aggregate_sum_and_count() {
        let src = ints(&two_col(), vec![vec![1, 10], vec![1, 20], vec![2, 5]]);
        let out = Schema::new(vec![
            ("a", ColType::Int),
            ("sum_b", ColType::Int),
            ("cnt", ColType::Int),
        ]);
        let mut agg = HashAggregateOp::new(
            Box::new(src),
            vec![0],
            vec![(AggFunc::SumInt, 1), (AggFunc::Count, 1)],
            out,
        )
        .unwrap();
        let rows = agg.collect_rows().unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(30), Value::Int(2)],
                vec![Value::Int(2), Value::Int(5), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn aggregate_min_max() {
        let src = ints(&two_col(), vec![vec![1, 10], vec![1, 3], vec![1, 7]]);
        let out = Schema::new(vec![
            ("a", ColType::Int),
            ("min", ColType::Int),
            ("max", ColType::Int),
        ]);
        let mut agg = HashAggregateOp::new(
            Box::new(src),
            vec![0],
            vec![(AggFunc::Min, 1), (AggFunc::Max, 1)],
            out,
        )
        .unwrap();
        assert_eq!(
            agg.collect_rows().unwrap(),
            vec![vec![Value::Int(1), Value::Int(3), Value::Int(10)]]
        );
    }

    #[test]
    fn empty_inputs() {
        let left = ints(&two_col(), vec![]);
        let right = ints(&two_col(), vec![vec![1, 1]]);
        let mut j = HashJoinOp::new(Box::new(left), 0, Box::new(right), 0, 4).unwrap();
        assert!(j.collect_rows().unwrap().is_empty());

        let src = ints(&two_col(), vec![]);
        let mut f = FilterOp::new(Box::new(src), Expr::lit(true));
        assert!(f.next_batch().unwrap().is_none());
    }
}
