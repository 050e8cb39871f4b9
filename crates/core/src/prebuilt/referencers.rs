//! Pre-built reference functions.

use crate::traits::{Interpreter, Referencer, StageCtx};
use rede_common::{Result, Value};
use rede_storage::{IndexEntry, Pointer, PointerKey, Record};
use std::sync::Arc;

/// A pointer into `file` whose name is shared, not copied: emitting one
/// bumps a reference count instead of allocating the name.
fn pointer(file: &Arc<str>, partition_key: Option<Value>, key: Value) -> Pointer {
    Pointer {
        file: file.clone(),
        partition_key,
        key: PointerKey::Logical(key),
    }
}

/// Decodes an index entry record into a logical pointer to the index's base
/// file — the paper's `Referencer-1`/`Referencer-3` ("creates a pointer to
/// a Part record from the interpreted record and emits the pointer").
pub struct IndexEntryReferencer {
    target: Arc<str>,
    label: String,
}

impl IndexEntryReferencer {
    /// Referencer emitting pointers into `target`.
    pub fn new(target: impl Into<String>) -> IndexEntryReferencer {
        let target: Arc<str> = Arc::from(target.into());
        let label = format!("entry->{target}");
        IndexEntryReferencer { target, label }
    }
}

impl Referencer for IndexEntryReferencer {
    fn reference(
        &self,
        record: &Record,
        _ctx: &StageCtx,
        emit: &mut dyn FnMut(Pointer),
    ) -> Result<()> {
        let entry = IndexEntry::from_record(record)?;
        emit(pointer(&self.target, Some(entry.partition_key), entry.key));
        Ok(())
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Interprets a record with schema-on-read and emits one pointer per
/// extracted value — the paper's `Referencer-2` ("takes the Part record and
/// extracts a pointer to the B-tree index of Lineitem.l_partkey").
///
/// The emitted pointer's partition key is the extracted value itself, which
/// is correct for global indexes partitioned by their indexed key. With
/// [`InterpretReferencer::broadcast`] the partition information is left
/// null instead, making the executor replicate the pointer to every
/// partition — the paper's broadcast-join encoding.
pub struct InterpretReferencer {
    target: Arc<str>,
    interpreter: Arc<dyn Interpreter>,
    broadcast: bool,
    label: String,
}

impl InterpretReferencer {
    /// Referencer into a key-partitioned target (global index or
    /// co-partitioned file).
    pub fn new(target: impl Into<String>, interpreter: Arc<dyn Interpreter>) -> Self {
        let target: Arc<str> = Arc::from(target.into());
        let label = format!("{}->{}", interpreter.name(), target);
        InterpretReferencer {
            target,
            interpreter,
            broadcast: false,
            label,
        }
    }

    /// Referencer emitting broadcast pointers (null partition information).
    pub fn broadcast(target: impl Into<String>, interpreter: Arc<dyn Interpreter>) -> Self {
        let target: Arc<str> = Arc::from(target.into());
        let label = format!("{}->{} (broadcast)", interpreter.name(), target);
        InterpretReferencer {
            target,
            interpreter,
            broadcast: true,
            label,
        }
    }
}

impl Referencer for InterpretReferencer {
    fn reference(
        &self,
        record: &Record,
        _ctx: &StageCtx,
        emit: &mut dyn FnMut(Pointer),
    ) -> Result<()> {
        self.interpreter.extract_each(record, &mut |value| {
            // Broadcast leaves the partition information null.
            let partition_key = (!self.broadcast).then(|| value.clone());
            emit(pointer(&self.target, partition_key, value));
        })
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prebuilt::interpreters::{DelimitedInterpreter, FieldType};
    use rede_storage::SimCluster;

    fn ctx() -> StageCtx {
        StageCtx::new(SimCluster::builder().nodes(2).build().unwrap(), 0)
    }

    fn collect_ptrs(r: &dyn Referencer, record: &Record) -> Vec<Pointer> {
        let mut out = Vec::new();
        r.reference(record, &ctx(), &mut |p| out.push(p)).unwrap();
        out
    }

    #[test]
    fn index_entry_referencer_decodes() {
        let entry = IndexEntry::new(Value::Int(3), Value::Int(42)).to_record();
        let ptrs = collect_ptrs(&IndexEntryReferencer::new("part"), &entry);
        assert_eq!(
            ptrs,
            vec![Pointer::logical("part", Value::Int(3), Value::Int(42))]
        );
    }

    #[test]
    fn emitted_pointers_share_the_target_name() {
        let r = IndexEntryReferencer::new("part");
        let entry = IndexEntry::new(Value::Int(3), Value::Int(42)).to_record();
        let ptrs = [collect_ptrs(&r, &entry), collect_ptrs(&r, &entry)].concat();
        assert!(Arc::ptr_eq(&ptrs[0].file, &ptrs[1].file));
    }

    #[test]
    fn index_entry_referencer_rejects_non_entries() {
        let r = IndexEntryReferencer::new("part");
        let mut out = Vec::new();
        assert!(r
            .reference(&Record::from_text("plain"), &ctx(), &mut |p| out.push(p))
            .is_err());
    }

    #[test]
    fn interpret_referencer_emits_key_partitioned_pointer() {
        let interp = Arc::new(DelimitedInterpreter::pipe(1, FieldType::Int));
        let r = InterpretReferencer::new("lineitem_ix", interp);
        let ptrs = collect_ptrs(&r, &Record::from_text("x|77|y"));
        assert_eq!(
            ptrs,
            vec![Pointer::logical(
                "lineitem_ix",
                Value::Int(77),
                Value::Int(77)
            )]
        );
    }

    #[test]
    fn broadcast_variant_leaves_partition_null() {
        let interp = Arc::new(DelimitedInterpreter::pipe(0, FieldType::Int));
        let r = InterpretReferencer::broadcast("ix", interp);
        let ptrs = collect_ptrs(&r, &Record::from_text("5"));
        assert_eq!(ptrs.len(), 1);
        assert!(ptrs[0].is_broadcast());
        assert_eq!(ptrs[0].logical_key(), Some(&Value::Int(5)));
    }
}
