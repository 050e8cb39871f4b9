//! Simulated distributed partitioned storage substrate for ReDe.
//!
//! The paper evaluates ReDe on a 128-node cluster with a purpose-built
//! distributed file system ("we created a simple distributed file system for
//! the experiments and used it instead of HDFS since HDFS is not
//! well-optimized for non-scan accesses such as lookups"). This crate is
//! that file system, rebuilt as an in-process simulation:
//!
//! * [`Record`] — a unit of raw data; schema is applied on read.
//! * [`Pointer`] — a logical or physical pointer carrying partition
//!   information (including the broadcast marker used by broadcast joins).
//! * [`Partitioning`] / [`partitioner`] — hash and range partitioners.
//! * [`HeapFile`] — the primary, partitioned record store (`File` in the
//!   paper's I/O abstraction).
//! * [`btree`] — a from-scratch B+-tree; [`BtreeFile`] is the paper's
//!   special `File` that can also locate records for a *range* of pointers.
//! * [`SimCluster`] — N logical nodes, partition→node placement, point-read
//!   resolution with local/remote cost accounting.
//! * [`IoModel`] — the injectable latency model and per-node I/O admission
//!   control (device queue depth, wire window) that stand in for HDD seek
//!   times, RAID queue depth, and the 10 GbE fabric of the paper's testbed.
//! * [`cost`] — a deterministic cost model replaying collected I/O counters
//!   into modeled seconds (used by tests; wall-clock is used by benches).

pub mod btree;
pub mod btree_file;
pub mod buffer;
pub mod cache;
pub mod catalog;
pub mod cluster;
pub mod cost;
mod fabric;
pub mod faults;
pub mod heap_file;
pub mod io_model;
pub mod partitioner;
pub mod pointer;
pub mod record;
pub mod wal;

pub use btree::BPlusTree;
pub use btree_file::{BtreeFile, IndexEntry, IndexLocality, IndexSpec};
pub use buffer::{
    BufferPool, ByteBudget, PageGuard, PageId, PageReadGuard, PageStats, PoolStats, SlottedPage,
    DEFAULT_PAGE_BYTES,
};
pub use cache::{CacheKey, RecordCache};
pub use cluster::{
    FileHandle, FileSpec, IndexHandle, Placement, SimCluster, SimClusterBuilder, MIN_MEMORY_BUDGET,
};
pub use cost::{CostModel, CostReport};
pub use faults::{AccessClass, Brownout, DownWindow, FaultDecision, FaultInjector, FaultPlan};
pub use heap_file::HeapFile;
pub use io_model::{IoModel, Owed, SCAN_BATCH};
pub use partitioner::{Partitioner, Partitioning};
pub use pointer::{Pointer, PointerKey};
pub use record::Record;
pub use wal::{WalOp, WriteAheadLog};
