//! A higher-level query abstraction over Reference–Dereference (§ V-A).
//!
//! The paper notes that Reference–Dereference "might not be high-level
//! enough" and calls exploring higher-level abstractions a research
//! direction: "a higher-level abstraction brings not only better usability
//! but also an opportunity for query optimizations". This module is that
//! layer: a fluent builder describing *what* to traverse —
//!
//! ```text
//! Query::via_index("orders.o_orderdate").range(lo, hi)
//!     .fetch("orders")
//!     .join_via("lineitem.l_orderkey", orderkey_interpreter)
//!     .fetch("lineitem")
//! ```
//!
//! — which compiles down to the exact Referencer/Dereferencer list a user
//! would have written by hand (each `fetch` expands to an
//! entry-to-pointer reference stage plus a lookup dereference stage; each
//! `join_via` to an interpret-reference stage plus an index-lookup
//! dereference stage). Because the intent survives to this level, the
//! [`optimizer`](crate::optimizer) can inspect the root access and decide
//! whether the structures should be used at all.

use crate::job::{Job, SeedInput};
use crate::prebuilt::{
    BtreeRangeDereferencer, IndexEntryReferencer, IndexLookupDereferencer, InterpretReferencer,
    LookupDereferencer,
};
use crate::traits::{Filter, Interpreter};
use rede_common::{RedeError, Result, Value};
use rede_storage::Pointer;
use std::sync::Arc;

/// Root access of a query: how the driving entries are located.
#[derive(Clone)]
pub enum RootAccess {
    /// Inclusive key range over a B-tree file.
    Range { index: String, lo: Value, hi: Value },
    /// A set of exact keys over a B-tree file (each probed everywhere it
    /// may live).
    Keys { index: String, keys: Vec<Value> },
}

impl RootAccess {
    /// Name of the root index.
    pub fn index(&self) -> &str {
        match self {
            RootAccess::Range { index, .. } => index,
            RootAccess::Keys { index, .. } => index,
        }
    }
}

enum Step {
    /// Entry records → base-file records (reference + lookup).
    Fetch {
        file: String,
        filter: Option<Arc<dyn Filter>>,
    },
    /// Base records → index entries of another file (interpret + probe).
    JoinVia {
        index: String,
        key: Arc<dyn Interpreter>,
    },
}

/// A declarative traversal query. Build with [`Query::via_index`].
pub struct Query {
    name: String,
    root: RootAccess,
    steps: Vec<Step>,
}

impl Query {
    /// Start a query from a B-tree file (index) probe.
    pub fn via_index(index: impl Into<String>) -> QueryRoot {
        QueryRoot {
            index: index.into(),
        }
    }

    /// The root access (inspected by the optimizer).
    pub fn root(&self) -> &RootAccess {
        &self.root
    }

    /// The query's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of traversal steps after the root.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Compile into a validated Reference–Dereference [`Job`].
    pub fn compile(&self) -> Result<Job> {
        if self.steps.is_empty() {
            return Err(RedeError::InvalidJob(format!(
                "query '{}' never fetches records; add .fetch(file)",
                self.name
            )));
        }
        if !matches!(self.steps[0], Step::Fetch { .. }) {
            return Err(RedeError::InvalidJob(format!(
                "query '{}' must fetch the root index's base file first",
                self.name
            )));
        }
        for pair in self.steps.windows(2) {
            if matches!(pair[0], Step::Fetch { .. }) == matches!(pair[1], Step::Fetch { .. }) {
                return Err(RedeError::InvalidJob(format!(
                    "query '{}': fetch and join_via must alternate",
                    self.name
                )));
            }
        }
        if !matches!(self.steps.last(), Some(Step::Fetch { .. })) {
            return Err(RedeError::InvalidJob(format!(
                "query '{}' must end with .fetch(file) (queries return records)",
                self.name
            )));
        }

        let seed = match &self.root {
            RootAccess::Range { index, lo, hi } => SeedInput::Range {
                file: index.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
            },
            RootAccess::Keys { index, keys } => SeedInput::Pointers(
                keys.iter()
                    .map(|k| Pointer::broadcast(index, k.clone()))
                    .collect(),
            ),
        };
        let mut builder = Job::builder(self.name.clone()).seed(seed).dereference(
            format!("probe:{}", self.root.index()),
            Arc::new(BtreeRangeDereferencer::new(self.root.index())),
        );
        // The index whose entries are currently flowing.
        let mut current_index = self.root.index().to_string();
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Step::Fetch { file, filter } => {
                    builder = builder
                        .reference(
                            format!("ref-{i}:{current_index}->{file}"),
                            Arc::new(IndexEntryReferencer::new(file.clone())),
                        )
                        .dereference_filtered_opt(
                            format!("fetch-{i}:{file}"),
                            Arc::new(LookupDereferencer::new(file.clone())),
                            filter.clone(),
                        );
                }
                Step::JoinVia { index, key } => {
                    let referencer = InterpretReferencer::new(index.clone(), key.clone());
                    builder = builder
                        .reference(format!("ref-{i}:->{index}"), Arc::new(referencer))
                        .dereference(
                            format!("probe-{i}:{index}"),
                            Arc::new(IndexLookupDereferencer::new(index.clone())),
                        );
                    current_index = index.clone();
                }
            }
        }
        builder.build()
    }
}

/// First stage of the builder: choose the root predicate.
pub struct QueryRoot {
    index: String,
}

impl QueryRoot {
    /// Inclusive range `[lo, hi]` over the root index.
    pub fn range(self, lo: impl Into<Value>, hi: impl Into<Value>) -> QueryBuilder {
        QueryBuilder {
            name: format!("query:{}", self.index),
            root: RootAccess::Range {
                index: self.index,
                lo: lo.into(),
                hi: hi.into(),
            },
            steps: Vec::new(),
        }
    }

    /// Exact keys over the root index.
    pub fn keys(self, keys: Vec<Value>) -> QueryBuilder {
        QueryBuilder {
            name: format!("query:{}", self.index),
            root: RootAccess::Keys {
                index: self.index,
                keys,
            },
            steps: Vec::new(),
        }
    }
}

/// Fluent query builder.
pub struct QueryBuilder {
    name: String,
    root: RootAccess,
    steps: Vec<Step>,
}

impl QueryBuilder {
    /// Name the query (diagnostics).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Fetch the base records the current entries point at.
    pub fn fetch(mut self, file: impl Into<String>) -> Self {
        self.steps.push(Step::Fetch {
            file: file.into(),
            filter: None,
        });
        self
    }

    /// Fetch with a schema-on-read filter.
    pub fn fetch_filtered(mut self, file: impl Into<String>, filter: Arc<dyn Filter>) -> Self {
        self.steps.push(Step::Fetch {
            file: file.into(),
            filter: Some(filter),
        });
        self
    }

    /// Join: interpret a key from the current records and probe another
    /// index with it (key-routed pointers).
    pub fn join_via(mut self, index: impl Into<String>, key: Arc<dyn Interpreter>) -> Self {
        self.steps.push(Step::JoinVia {
            index: index.into(),
            key,
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> Query {
        Query {
            name: self.name,
            root: self.root,
            steps: self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prebuilt::{DelimitedInterpreter, FieldType};

    fn interp() -> Arc<dyn Interpreter> {
        Arc::new(DelimitedInterpreter::pipe(0, FieldType::Int))
    }

    #[test]
    fn compiles_to_expected_stage_list() {
        let q = Query::via_index("orders.by_date")
            .range(Value::Int(0), Value::Int(10))
            .fetch("orders")
            .join_via("lineitem.by_orderkey", interp())
            .fetch("lineitem")
            .build();
        let job = q.compile().unwrap();
        assert_eq!(job.stages().len(), 7, "probe + 2×(ref+deref) + (ref+deref)");
        assert!(job.stages()[0].is_dereference());
        assert_eq!(q.steps(), 3);
    }

    #[test]
    fn keys_root_compiles() {
        let q = Query::via_index("claims.disease")
            .keys(vec![Value::str("I10"), Value::str("I11")])
            .fetch("claims")
            .build();
        let job = q.compile().unwrap();
        assert_eq!(job.stages().len(), 3);
        match job.seed() {
            SeedInput::Pointers(ptrs) => assert_eq!(ptrs.len(), 2),
            other => panic!("unexpected seed {other:?}"),
        }
    }

    #[test]
    fn query_without_fetch_rejected() {
        let q = Query::via_index("ix")
            .range(Value::Int(0), Value::Int(1))
            .build();
        assert!(q.compile().is_err());
    }

    #[test]
    fn join_first_rejected() {
        let q = Query::via_index("ix")
            .range(Value::Int(0), Value::Int(1))
            .join_via("other", interp())
            .fetch("f")
            .build();
        assert!(q.compile().is_err());
    }

    #[test]
    fn consecutive_fetches_rejected() {
        let q = Query::via_index("ix")
            .range(Value::Int(0), Value::Int(1))
            .fetch("a")
            .fetch("b")
            .build();
        assert!(q.compile().is_err());
    }

    #[test]
    fn ending_on_join_rejected() {
        let q = Query::via_index("ix")
            .range(Value::Int(0), Value::Int(1))
            .fetch("a")
            .join_via("other", interp())
            .build();
        assert!(q.compile().is_err());
    }

    #[test]
    fn named_and_root_accessors() {
        let q = Query::via_index("ix")
            .range(Value::Int(0), Value::Int(1))
            .named("my-query")
            .fetch("a")
            .build();
        assert_eq!(q.name(), "my-query");
        assert_eq!(q.root().index(), "ix");
    }
}
