//! Shared primitives for the LakeHarbor / ReDe reproduction.
//!
//! This crate contains the small, dependency-light building blocks used by
//! every other crate in the workspace:
//!
//! * [`error`] — the workspace-wide error type ([`RedeError`]) and result
//!   alias ([`Result`]).
//! * [`value`] — [`Value`], the dynamically typed scalar used for keys,
//!   schema-on-read field extraction, and query parameters.
//! * [`fxhash`] — an Fx-style fast hasher plus [`FxHashMap`]/[`FxHashSet`]
//!   aliases (the workloads hash short integer/string keys on every record
//!   access, so SipHash would dominate profiles).
//! * [`rng`] — deterministic SplitMix64 / Xoshiro256** generators used by the
//!   data generators so every experiment is reproducible bit-for-bit.
//! * [`metrics`] — atomic I/O and record-access counters; the substrate for
//!   the paper's Figure 9 (record-access comparison) and for the
//!   deterministic cost model.

pub mod error;
pub mod fxhash;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod value;

pub use error::{RedeError, Result};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use json::Json;
pub use metrics::{
    AccessKind, Counter, ExecProfile, IoScope, Kind, Metrics, MetricsSnapshot, NodeIoSnapshot,
    NodeProfile, PermitHold, StageProfile,
};
pub use rng::{SplitMix64, Xoshiro256};
pub use value::{Date, Value, ValueType};
