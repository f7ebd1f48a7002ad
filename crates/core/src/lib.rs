#![warn(missing_docs)]
//! # ofd-core
//!
//! Relational substrate and Ontology Functional Dependency (OFD) semantics:
//!
//! * interned values ([`ValuePool`]), schemas and u64-bitset attribute sets
//!   ([`AttrSet`]);
//! * column-major [`Relation`] instances with cell-level repair support;
//! * partitions Π_X and stripped partitions Π*_X with linear-time products
//!   ([`StrippedPartition`]);
//! * FDs and OFDs ([`Fd`], [`Ofd`]) and their verification over equivalence
//!   classes ([`Validator`]), including approximate support for
//!   κ-approximate discovery;
//! * execution guards ([`ExecGuard`], [`Partial`]) giving every
//!   long-running engine deadlines, work/memory budgets and cooperative
//!   cancellation with sound partial results;
//! * crash safety ([`SnapshotStore`], [`atomic_write`]): versioned,
//!   checksummed checkpoint snapshots written atomically at level/phase
//!   boundaries, plus seeded deterministic fault injection
//!   ([`FaultPlan`]) for I/O errors, worker panics and delays;
//! * zero-dependency observability ([`Obs`], [`MetricsSnapshot`]): counters,
//!   gauges, histograms and span timers threaded through the engines the
//!   same way the guards are;
//! * exact κ-support arithmetic ([`meets_support`], [`support_threshold`]),
//!   the single boundary comparison shared by discovery, the brute-force
//!   oracle and approximate cleaning.
//!
//! The running examples of the paper (Table 1 and its Example 1.2 update)
//! ship as [`table1`] / [`table1_updated`] and are exercised throughout the
//! test suites.

mod error;
mod evidence;
pub mod fault;
pub mod fxhash;
pub mod guard;
pub mod snapshot;
pub mod incremental;
pub mod lhs_synonyms;
pub mod nfd_check;
pub mod obs;
mod ofd;
pub mod support;
mod partition;
mod relation;
mod schema;
mod sense_index;
mod validate;
mod value;

pub use error::CoreError;
pub use evidence::{sorted_neighbourhood, EvidenceSet};
pub use fault::{
    silence_injected_panics, FaultPlan, FaultSite, FaultSpecError, NetFault, SnapshotFault,
    INJECTED_PANIC, NET_SITES,
};
pub use guard::{rss_kib, ExecGuard, GuardConfig, Interrupt, Partial};
pub use snapshot::{atomic_write, fnv1a64, fsync_dir, hash_ontology, hash_relation, CheckpointOptions, Fingerprint, LoadedSnapshot, SnapshotError, SnapshotStore, SNAPSHOT_VERSION};
pub use obs::{MetricsSnapshot, Obs, SpanGuard};
pub use support::{meets_support, support_threshold};
pub use incremental::{IncrementalChecker, RetractOutcome};
pub use nfd_check::NfdChecker;
pub use lhs_synonyms::{check_lhs_synonyms, InterpretationOutcome, LhsSynonymValidation};
pub use ofd::{Fd, Ofd, OfdKind};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use partition::{Classes, Partition, ProductScratch, StrippedPartition};
pub use relation::{table1, table1_updated, Relation, RelationBuilder, MAX_ROWS};
pub use schema::{AttrId, AttrSet, AttrSetIter, Schema, MAX_ATTRS};
pub use sense_index::SenseIndex;
pub use validate::{check_ofd_exact, check_ofd_with_index, estimate_support, ClassOutcome, Validation, Validator, Witness};
pub use value::{ValueId, ValuePool};
