//! The Reference–Dereference function traits.
//!
//! These four traits are the access-method registration surface of
//! LakeHarbor: users (or the pre-built library in [`crate::prebuilt`])
//! implement them to describe *how data is interpreted and accessed*, and
//! the engine derives structures and parallelism from the composition.
//!
//! * [`Referencer`] — record → pointers ("referencing").
//! * [`Dereferencer`] — pointer (or pointer range) → records
//!   ("dereferencing").
//! * [`Interpreter`] — schema-on-read extraction of attribute values from a
//!   raw record; used inside referencers and by index maintenance.
//! * [`Filter`] — schema-on-read predicate attached to a dereference stage.

use rede_common::{Result, Value};
use rede_storage::{Owed, Pointer, Record, SimCluster};

/// Execution context handed to every function invocation.
#[derive(Clone)]
pub struct StageCtx {
    /// The cluster the job runs against.
    pub cluster: SimCluster,
    /// The node executing this invocation (determines local vs. remote
    /// access cost).
    pub node: usize,
    /// True if this invocation must restrict itself to partitions placed on
    /// `node`. Set for the initial (seed) stage — every node receives the
    /// seed and covers its own partitions — and for broadcast-replicated
    /// pointers (the paper's `SETPARTITION(input, LOCAL)`).
    pub local_only: bool,
}

impl StageCtx {
    /// Context for a plain (non-local-only) invocation.
    pub fn new(cluster: SimCluster, node: usize) -> StageCtx {
        StageCtx {
            cluster,
            node,
            local_only: false,
        }
    }

    /// Same context with the local-only flag set.
    pub fn local(mut self) -> StageCtx {
        self.local_only = true;
        self
    }
}

/// Input of a dereference invocation: one pointer, or a pointer pair
/// denoting an inclusive range ("a dereference function takes a pointer or
/// two pointers", § III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerefInput {
    /// Locate the records behind one pointer.
    Point(Pointer),
    /// Locate all records between two pointers (inclusive); only meaningful
    /// against a `BtreeFile`.
    Range(Pointer, Pointer),
}

impl DerefInput {
    /// The single pointer, if this is a point input.
    pub fn as_point(&self) -> Option<&Pointer> {
        match self {
            DerefInput::Point(p) => Some(p),
            DerefInput::Range(..) => None,
        }
    }

    /// True if any contained pointer is a broadcast pointer.
    pub fn is_broadcast(&self) -> bool {
        match self {
            DerefInput::Point(p) => p.is_broadcast(),
            DerefInput::Range(a, b) => a.is_broadcast() || b.is_broadcast(),
        }
    }
}

/// A *reference* function: takes a record and produces a set of pointers to
/// other records the record is associated with.
pub trait Referencer: Send + Sync {
    /// Derive pointers from `record`, passing each to `emit`.
    fn reference(
        &self,
        record: &Record,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Pointer),
    ) -> Result<()>;

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "referencer"
    }
}

/// A *dereference* function: takes a pointer (or range) and produces the
/// set of records it points to.
pub trait Dereferencer: Send + Sync {
    /// Resolve `input`, passing each located record to `emit`.
    fn dereference(
        &self,
        input: &DerefInput,
        ctx: &StageCtx,
        emit: &mut dyn FnMut(Record),
    ) -> Result<()>;

    /// Resolve a batch of inputs in one call — the entry point the
    /// executor drives (a lone input is a batch of one). Each located
    /// record is passed to `emit` tagged with the index of the input that
    /// produced it; the returned vector holds one result per input, in
    /// input order, so items succeed or fail independently.
    ///
    /// The returned [`Owed`] is the simulated time the batch still owes:
    /// all charged work — fault injection, counters, the reads themselves
    /// — happens inside this call, in input order, but nothing waits. The
    /// device slots, page-fault service and network round trip the accesses
    /// cost are handed to the caller, which settles them as events
    /// (`SimCluster::settle`) and routes the outputs when the last lands —
    /// or, when nothing is owed, treats the results as final at once.
    ///
    /// The default implementation loops the scalar path, which waits
    /// everything inline, and owes nothing: correct, but under the SMPE
    /// executor each such call occupies one of the pool's workers — there
    /// are only as many as cores — for as long as it waits. Implementations
    /// backed by charged storage override it, both to owe instead of wait
    /// and to amortize fixed per-request costs (network RTT, root-to-leaf
    /// descents) across the batch — see the prebuilt dereferencers.
    fn dereference_batch(
        &self,
        inputs: &[DerefInput],
        ctx: &StageCtx,
        emit: &mut dyn FnMut(usize, Record),
    ) -> (Vec<Result<()>>, Owed) {
        let results = inputs
            .iter()
            .enumerate()
            .map(|(idx, input)| self.dereference(input, ctx, &mut |r| emit(idx, r)))
            .collect();
        (results, Owed::default())
    }

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "dereferencer"
    }
}

/// Schema-on-read extraction of one attribute from a raw record.
///
/// An interpreter may yield zero values (the record has no such attribute —
/// common in the nested claims format), one value (a flat column), or many
/// (a repeated attribute inside sub-records).
pub trait Interpreter: Send + Sync {
    /// Extract the attribute values from `record`.
    fn extract(&self, record: &Record) -> Result<Vec<Value>>;

    /// Pass each value [`Interpreter::extract`] yields to `emit`, in order.
    /// The default collects them first; a one-value interpreter overrides
    /// it to emit without building a `Vec`.
    fn extract_each(&self, record: &Record, emit: &mut dyn FnMut(Value)) -> Result<()> {
        self.extract(record)?.into_iter().for_each(emit);
        Ok(())
    }

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "interpreter"
    }
}

/// Schema-on-read predicate optionally attached to a dereference stage
/// ("interprets a given record with schema-on-read and filters out the
/// record if the given condition does not match").
pub trait Filter: Send + Sync {
    /// True if the record passes.
    fn matches(&self, record: &Record) -> Result<bool>;

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str {
        "filter"
    }
}

/// Blanket interpreter from a closure (ergonomics for custom schemas).
pub struct FnInterpreter<F>(pub F);

impl<F> Interpreter for FnInterpreter<F>
where
    F: Fn(&Record) -> Result<Vec<Value>> + Send + Sync,
{
    fn extract(&self, record: &Record) -> Result<Vec<Value>> {
        (self.0)(record)
    }

    fn name(&self) -> &str {
        "fn-interpreter"
    }
}

/// Blanket filter from a closure.
pub struct FnFilter<F>(pub F);

impl<F> Filter for FnFilter<F>
where
    F: Fn(&Record) -> Result<bool> + Send + Sync,
{
    fn matches(&self, record: &Record) -> Result<bool> {
        (self.0)(record)
    }

    fn name(&self) -> &str {
        "fn-filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deref_input_accessors() {
        let p = Pointer::logical("f", Value::Int(1), Value::Int(1));
        let point = DerefInput::Point(p.clone());
        assert!(point.as_point().is_some());
        assert!(!point.is_broadcast());

        let range = DerefInput::Range(p.clone(), p);
        assert!(range.as_point().is_none());

        let b = DerefInput::Point(Pointer::broadcast("f", Value::Int(1)));
        assert!(b.is_broadcast());
    }

    #[test]
    fn fn_adapters_delegate() {
        let interp = FnInterpreter(|r: &Record| Ok(vec![Value::Int(r.len() as i64)]));
        let vals = interp.extract(&Record::from_text("abc")).unwrap();
        assert_eq!(vals, vec![Value::Int(3)]);

        let filter = FnFilter(|r: &Record| Ok(r.len() > 2));
        assert!(filter.matches(&Record::from_text("abc")).unwrap());
        assert!(!filter.matches(&Record::from_text("a")).unwrap());
    }

    #[test]
    fn stage_ctx_local_flag() {
        let cluster = SimCluster::builder().nodes(2).build().unwrap();
        let ctx = StageCtx::new(cluster, 1);
        assert!(!ctx.local_only);
        assert_eq!(ctx.node, 1);
        let local = ctx.local();
        assert!(local.local_only);
    }
}
