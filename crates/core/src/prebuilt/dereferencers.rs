//! Pre-built dereference functions.
//!
//! Each implements [`Dereferencer::dereference_batch`] as its one real
//! body — charge every access, emit the records, return the simulated time
//! still [`Owed`] — so the SMPE executor never waits inside them. The
//! scalar [`Dereferencer::dereference`] (the partitioned executor, tests)
//! is that batch of one followed by an inline wait.

use crate::traits::{DerefInput, Dereferencer, StageCtx};
use rede_common::{RedeError, Result, Value};
use rede_storage::{Owed, Record};

/// A synchronous dereference: a batch of one, then what it owes waited
/// inline on the calling thread.
fn dereference_one(
    func: &dyn Dereferencer,
    input: &DerefInput,
    ctx: &StageCtx,
    emit: &mut dyn FnMut(Record),
) -> Result<()> {
    let (mut results, owed) =
        func.dereference_batch(std::slice::from_ref(input), ctx, &mut |_, r| emit(r));
    ctx.cluster.wait(owed);
    results.pop().expect("one result per input")
}

/// Range-probes a B-tree file — the paper's `Dereferencer-0` ("takes a
/// range of Part.p_retailprice values as arguments and uses the B-tree
/// index to get a set of matching records").
///
/// In a `local_only` context (the seed stage, where every node receives the
/// same range) each node probes only its locally placed index partitions,
/// so the union of all nodes covers the index exactly once.
pub struct BtreeRangeDereferencer {
    index: String,
    label: String,
}

impl BtreeRangeDereferencer {
    /// Dereferencer over the named B-tree file.
    pub fn new(index: impl Into<String>) -> BtreeRangeDereferencer {
        let index = index.into();
        let label = format!("btree-range({index})");
        BtreeRangeDereferencer { index, label }
    }

    /// The probe one input asks for: `(lo, hi)` with `hi == None` for an
    /// exact key.
    fn bounds<'a>(&self, input: &'a DerefInput) -> Result<(&'a Value, Option<&'a Value>)> {
        match input {
            DerefInput::Range(lo, hi) => match (lo.logical_key(), hi.logical_key()) {
                (Some(lo), Some(hi)) => Ok((lo, Some(hi))),
                _ => Err(RedeError::InvalidJob(format!(
                    "{}: range endpoints must be logical pointers",
                    self.label
                ))),
            },
            DerefInput::Point(p) => match p.logical_key() {
                Some(key) => Ok((key, None)),
                None => Err(RedeError::InvalidJob(format!(
                    "{}: point input must be logical",
                    self.label
                ))),
            },
        }
    }
}

impl Dereferencer for BtreeRangeDereferencer {
    fn dereference(
        &self,
        input: &DerefInput,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Record),
    ) -> Result<()> {
        dereference_one(self, input, ctx, emit)
    }

    /// One probe per input, one after the other (seeds never coalesce, so
    /// this is a batch of one in practice).
    fn dereference_batch(
        &self,
        inputs: &[DerefInput],
        ctx: &StageCtx,
        emit: &mut dyn FnMut(usize, Record),
    ) -> (Vec<Result<()>>, Owed) {
        let mut owed = Owed::default();
        let results = inputs
            .iter()
            .enumerate()
            .map(|(idx, input)| {
                let ix = ctx.cluster.index(&self.index)?;
                let (lo, hi) = self.bounds(input)?;
                let on_node = ctx.local_only.then_some(ctx.node);
                let (entries, probe_owed) = ix.probe_submit(lo, hi, ctx.node, on_node);
                owed.then(probe_owed);
                for entry in entries? {
                    emit(idx, entry);
                }
                Ok(())
            })
            .collect();
        (results, owed)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Key-probes a B-tree file — the paper's `Dereferencer-2` ("takes the
/// pointer and uses the B-tree index to get a set of matching records").
///
/// For a broadcast-replicated pointer (`local_only`), only the partitions
/// placed on the executing node are probed.
pub struct IndexLookupDereferencer {
    index: String,
    label: String,
}

impl IndexLookupDereferencer {
    /// Dereferencer over the named B-tree file.
    pub fn new(index: impl Into<String>) -> IndexLookupDereferencer {
        let index = index.into();
        let label = format!("index-lookup({index})");
        IndexLookupDereferencer { index, label }
    }
}

impl Dereferencer for IndexLookupDereferencer {
    fn dereference(
        &self,
        input: &DerefInput,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Record),
    ) -> Result<()> {
        dereference_one(self, input, ctx, emit)
    }

    fn dereference_batch(
        &self,
        inputs: &[DerefInput],
        ctx: &StageCtx,
        emit: &mut dyn FnMut(usize, Record),
    ) -> (Vec<Result<()>>, Owed) {
        let mut owed = Owed::default();
        let mut out: Vec<Option<Result<()>>> = (0..inputs.len()).map(|_| None).collect();
        let mut probes = Vec::with_capacity(inputs.len());
        for (idx, input) in inputs.iter().enumerate() {
            match input.as_point().and_then(|p| p.logical_key()) {
                Some(key) => probes.push((idx, key.clone())),
                None => {
                    out[idx] = Some(Err(RedeError::InvalidJob(format!(
                        "{}: expected a logical point input",
                        self.label
                    ))));
                }
            }
        }
        let mut emit_entries = |idx: usize, entries: Vec<Record>| {
            for entry in entries {
                emit(idx, entry);
            }
        };
        match ctx.cluster.index(&self.index) {
            Err(e) => {
                for (idx, _) in probes {
                    out[idx] = Some(Err(e.clone()));
                }
            }
            // Local-only probes are already restricted to node-held
            // partitions and gain nothing from coalescing: one probe per
            // key, one after the other.
            Ok(ix) if ctx.local_only => {
                for (idx, key) in probes {
                    let (entries, probe_owed) =
                        ix.probe_submit(&key, None, ctx.node, Some(ctx.node));
                    owed.then(probe_owed);
                    out[idx] = Some(entries.map(|entries| emit_entries(idx, entries)));
                }
            }
            Ok(ix) => {
                let keys: Vec<Value> = probes.iter().map(|(_, key)| key.clone()).collect();
                let (results, batch_owed) = ix.lookup_batch_submit(&keys, ctx.node);
                owed.then(batch_owed);
                for (&(idx, _), result) in probes.iter().zip(results) {
                    out[idx] = Some(result.map(|entries| emit_entries(idx, entries)));
                }
            }
        }
        let results = out
            .into_iter()
            .map(|slot| slot.expect("every input validated or probed"))
            .collect();
        (results, owed)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Fetches base-file records through pointers — the paper's
/// `Dereferencer-1`/`Dereferencer-3` ("takes the pointer and accesses the
/// Part file using the pointer to get the corresponding record"). Accesses
/// may be local or cross-partition; the cluster charges accordingly.
pub struct LookupDereferencer {
    file: String,
    label: String,
}

impl LookupDereferencer {
    /// Dereferencer over the named heap file.
    pub fn new(file: impl Into<String>) -> LookupDereferencer {
        let file = file.into();
        let label = format!("lookup({file})");
        LookupDereferencer { file, label }
    }
}

impl Dereferencer for LookupDereferencer {
    fn dereference(
        &self,
        input: &DerefInput,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Record),
    ) -> Result<()> {
        dereference_one(self, input, ctx, emit)
    }

    fn dereference_batch(
        &self,
        inputs: &[DerefInput],
        ctx: &StageCtx,
        emit: &mut dyn FnMut(usize, Record),
    ) -> (Vec<Result<()>>, Owed) {
        let mut out: Vec<Option<Result<()>>> = (0..inputs.len()).map(|_| None).collect();
        let mut ptrs = Vec::with_capacity(inputs.len());
        for (idx, input) in inputs.iter().enumerate() {
            match input.as_point() {
                // The pointer names the file it was minted for; the
                // configured file must agree, otherwise the job is wired
                // incorrectly.
                Some(ptr) if *ptr.file == self.file => ptrs.push((idx, ptr)),
                Some(ptr) => {
                    out[idx] = Some(Err(RedeError::InvalidJob(format!(
                        "{}: pointer targets '{}'",
                        self.label, ptr.file
                    ))));
                }
                None => {
                    out[idx] = Some(Err(RedeError::InvalidJob(format!(
                        "{}: expected a point input",
                        self.label
                    ))));
                }
            }
        }
        let refs: Vec<&rede_storage::Pointer> = ptrs.iter().map(|&(_, ptr)| ptr).collect();
        let (results, owed) = ctx.cluster.resolve_batch_submit(&refs, ctx.node);
        for (&(idx, _), result) in ptrs.iter().zip(results) {
            out[idx] = Some(result.map(|record| emit(idx, record)));
        }
        let results = out
            .into_iter()
            .map(|slot| slot.expect("every input validated or resolved"))
            .collect();
        (results, owed)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rede_storage::{FileSpec, IndexEntry, IndexSpec, Partitioning, Pointer, SimCluster};

    /// Cluster with a heap file of 100 rows and a global index on the
    /// `v % 10` attribute.
    fn fixture() -> SimCluster {
        let c = SimCluster::builder().nodes(2).build().unwrap();
        let f = c
            .create_file(FileSpec::new("base", Partitioning::hash(4)))
            .unwrap();
        let ix = c
            .create_index(IndexSpec::global("mod10", "base", 4))
            .unwrap();
        for i in 0..100i64 {
            f.insert(Value::Int(i), Record::from_text(&format!("{i}|{}", i % 10)))
                .unwrap();
            ix.insert(
                Value::Int(i % 10),
                IndexEntry::new(Value::Int(i), Value::Int(i)).to_record(),
            )
            .unwrap();
        }
        c
    }

    fn run_deref(d: &dyn Dereferencer, input: DerefInput, ctx: &StageCtx) -> Vec<Record> {
        let mut out = Vec::new();
        d.dereference(&input, ctx, &mut |r| out.push(r)).unwrap();
        out
    }

    #[test]
    fn index_lookup_finds_postings() {
        let c = fixture();
        let ctx = StageCtx::new(c, 0);
        let d = IndexLookupDereferencer::new("mod10");
        let input = DerefInput::Point(Pointer::logical("mod10", Value::Int(3), Value::Int(3)));
        let out = run_deref(&d, input, &ctx);
        assert_eq!(out.len(), 10, "keys 3,13,…,93");
    }

    #[test]
    fn range_deref_covers_nodes_disjointly() {
        let c = fixture();
        let d = BtreeRangeDereferencer::new("mod10");
        let input = DerefInput::Range(
            Pointer::broadcast("mod10", Value::Int(0)),
            Pointer::broadcast("mod10", Value::Int(9)),
        );
        let mut total = 0;
        for node in 0..c.nodes() {
            let ctx = StageCtx::new(c.clone(), node).local();
            total += run_deref(&d, input.clone(), &ctx).len();
        }
        assert_eq!(
            total, 100,
            "local-only probes across nodes must cover all postings once"
        );
    }

    #[test]
    fn range_deref_global_context_covers_everything() {
        let c = fixture();
        let ctx = StageCtx::new(c, 0);
        let d = BtreeRangeDereferencer::new("mod10");
        let input = DerefInput::Range(
            Pointer::broadcast("mod10", Value::Int(2)),
            Pointer::broadcast("mod10", Value::Int(4)),
        );
        assert_eq!(run_deref(&d, input, &ctx).len(), 30);
    }

    #[test]
    fn lookup_deref_resolves_and_validates_target() {
        let c = fixture();
        let ctx = StageCtx::new(c, 0);
        let d = LookupDereferencer::new("base");
        let input = DerefInput::Point(Pointer::logical("base", Value::Int(7), Value::Int(7)));
        let out = run_deref(&d, input, &ctx);
        assert_eq!(out[0].text().unwrap(), "7|7");

        let wrong = DerefInput::Point(Pointer::logical("other", Value::Int(7), Value::Int(7)));
        let mut sink = Vec::new();
        assert!(d.dereference(&wrong, &ctx, &mut |r| sink.push(r)).is_err());
    }

    #[test]
    fn lookup_deref_rejects_ranges() {
        let c = fixture();
        let ctx = StageCtx::new(c, 0);
        let d = LookupDereferencer::new("base");
        let p = Pointer::logical("base", Value::Int(1), Value::Int(1));
        let mut sink = Vec::new();
        assert!(d
            .dereference(&DerefInput::Range(p.clone(), p), &ctx, &mut |r| sink
                .push(r))
            .is_err());
    }

    #[test]
    fn lookup_deref_batch_matches_scalar_and_isolates_errors() {
        let c = fixture();
        let ctx = StageCtx::new(c, 0);
        let d = LookupDereferencer::new("base");
        let inputs: Vec<DerefInput> = (0..20i64)
            .map(|i| DerefInput::Point(Pointer::logical("base", Value::Int(i), Value::Int(i))))
            .collect();
        let mut tagged: Vec<(usize, Record)> = Vec::new();
        let (results, _) = d.dereference_batch(&inputs, &ctx, &mut |idx, r| tagged.push((idx, r)));
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(tagged.len(), 20);
        for (idx, record) in &tagged {
            assert_eq!(record.text().unwrap(), format!("{idx}|{}", idx % 10));
        }
        // A mis-targeted pointer fails its own slot only.
        let mut inputs = inputs;
        inputs[3] = DerefInput::Point(Pointer::logical("other", Value::Int(3), Value::Int(3)));
        let mut count = 0;
        let (results, _) = d.dereference_batch(&inputs, &ctx, &mut |_, _| count += 1);
        assert!(results[3].is_err());
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 19);
        assert_eq!(count, 19);
    }

    #[test]
    fn index_lookup_batch_matches_scalar() {
        let c = fixture();
        let ctx = StageCtx::new(c.clone(), 1);
        let d = IndexLookupDereferencer::new("mod10");
        let inputs: Vec<DerefInput> = (0..10i64)
            .map(|i| DerefInput::Point(Pointer::logical("mod10", Value::Int(i), Value::Int(i))))
            .collect();
        let mut batched: Vec<Vec<Record>> = vec![Vec::new(); inputs.len()];
        let (results, _) = d.dereference_batch(&inputs, &ctx, &mut |idx, r| batched[idx].push(r));
        assert!(results.iter().all(|r| r.is_ok()));
        for (input, got) in inputs.iter().zip(&batched) {
            assert_eq!(got, &run_deref(&d, input.clone(), &ctx), "postings differ");
        }
        assert!(
            c.metrics().snapshot().batches_issued > 0,
            "global-index batch must take the amortized path"
        );
    }

    #[test]
    fn missing_index_is_not_found() {
        let c = fixture();
        let ctx = StageCtx::new(c, 0);
        let d = IndexLookupDereferencer::new("missing");
        let input = DerefInput::Point(Pointer::logical("missing", Value::Int(1), Value::Int(1)));
        let mut sink = Vec::new();
        let err = d.dereference(&input, &ctx, &mut |r| sink.push(r));
        assert!(matches!(err, Err(RedeError::NotFound(_))));
    }
}
