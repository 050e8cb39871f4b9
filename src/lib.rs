//! # LakeHarbor
//!
//! A from-scratch Rust reproduction of *"LakeHarbor: Making Structures
//! First-Class Citizens in Data Lakes"* (ICDE 2024) and its prototype data
//! processing engine **ReDe**.
//!
//! LakeHarbor is a data-management paradigm in which *structures* (indexes)
//! are first-class citizens of a data lake: users register access-method
//! definitions post hoc, the system builds auxiliary structures from them
//! lazily, and jobs execute with the fine-grained massive parallelism those
//! structures inherently hold — all without giving up schema-on-read.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`common`] — values, errors, metrics, deterministic RNG.
//! * [`storage`] — the simulated distributed storage substrate: partitioned
//!   files, pointers, partitioners, a from-scratch B+-tree, and the I/O
//!   latency/cost model that stands in for the paper's 128-node HDD cluster.
//! * [`core`] — the ReDe engine: the Reference–Dereference abstraction, the
//!   SMPE executor (Algorithm 1 of the paper), the partitioned (non-SMPE)
//!   executor, lazy structure maintenance, and the `HarborScheduler`
//!   multi-job service layer (fair-share admission, build-once structure
//!   coordination).
//! * [`baseline`] — the comparison systems: an Impala-like scan/hash-join
//!   engine and a normalized data-warehouse comparator.
//! * [`tpch`] — a deterministic TPC-H generator and the paper's Q5'
//!   workload.
//! * [`claims`] — the Japanese health-insurance claims case study: format,
//!   generator, schema-on-read interpreters, and queries Q1–Q3.
//!
//! ## Quickstart
//!
//! ```
//! use lakeharbor::prelude::*;
//!
//! // A 4-node simulated cluster with zero injected latency.
//! let cluster = SimCluster::builder()
//!     .nodes(4)
//!     .io_model(IoModel::zero())
//!     .build()
//!     .unwrap();
//!
//! // Register a hash-partitioned file and write a few records.
//! let file = cluster
//!     .create_file(FileSpec::new("events", Partitioning::hash(4)))
//!     .unwrap();
//! for i in 0..100i64 {
//!     let payload = format!("event,{i},{}", i * 10);
//!     file.insert(Value::Int(i), Record::from_text(&payload)).unwrap();
//! }
//!
//! // Point-read through a pointer, the unit of Reference–Dereference.
//! let ptr = Pointer::logical("events", Value::Int(7), Value::Int(7));
//! let rec = cluster.resolve(&ptr, 0).unwrap();
//! assert_eq!(rec.text().unwrap(), "event,7,70");
//! ```

pub use rede_baseline as baseline;
pub use rede_claims as claims;
pub use rede_common as common;
pub use rede_core as core;
pub use rede_storage as storage;
pub use rede_tpch as tpch;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use rede_common::{AccessKind, Counter, Date, Metrics, RedeError, Result, Value};
    pub use rede_core::exec::{
        Batching, ExecMode, ExecutorConfig, JobResult, JobRunner, RoutingPolicy,
    };
    pub use rede_core::gate::{
        Command, CursorId, GateConfig, GateStats, HarborGate, Page, QueryOptions, Reply, SessionId,
        SweepReport,
    };
    pub use rede_core::job::{Job, JobBuilder};
    pub use rede_core::maintenance::IndexBuilder;
    pub use rede_core::prebuilt::*;
    pub use rede_core::scheduler::{
        EnsureOutcome, HarborScheduler, JobHandle, SchedulerConfig, SchedulerStats,
        StructureTicket, SubmitOptions,
    };
    pub use rede_core::traits::{
        DerefInput, Dereferencer, Filter, FnFilter, FnInterpreter, Interpreter, Referencer,
        StageCtx,
    };
    pub use rede_storage::{
        Brownout, DownWindow, FaultInjector, FaultPlan, FileSpec, IoModel, Partitioning, Pointer,
        PoolStats, Record, SimCluster, SimClusterBuilder, MIN_MEMORY_BUDGET,
    };
}
