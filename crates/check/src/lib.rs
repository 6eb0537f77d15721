//! `dam-check` — the differential correctness harness.
//!
//! The paper's cross-structure comparisons (Table 3, Figures 2–3) are only
//! meaningful if every [`dam_kv::Dictionary`] implementation is
//! *semantically identical*: a tombstone leaking into `range`, an
//! off-by-one at a segment boundary, or a miscounted `len` corrupts the
//! cost comparison without failing any unit test. This crate makes the
//! contract executable:
//!
//! 1. [`generate_trace`] derives a deterministic, adversarial operation
//!    sequence from a seed — shared-prefix keys, the empty key, keys that
//!    sort above the `[0xFF; 64]` sentinel, zero-length values, degenerate
//!    ranges (`start == end`, `start > end`), and keys dense around node
//!    and segment boundaries.
//! 2. [`replay`] runs the trace in lockstep against any subset of the four
//!    trees (B-tree, Bε-tree, optimized Bε-tree, LSM) and a
//!    `std::collections::BTreeMap` oracle, asserting byte-identical
//!    answers after every step and enforcing the [`dam_kv::OpCost`]
//!    accounting contract (reset per op, attributed ≤ device totals).
//! 3. [`Mode`] composes the earlier resilience layers: transient faults
//!    fully absorbed by `RetryingDevice`, probabilistic faults that may
//!    surface as typed `KvError`s (the harness redrives idempotent ops and
//!    still demands convergence to the oracle), and `CrashAfterIos`
//!    crash-points followed by reopen-and-compare against the last synced
//!    state.
//! 4. On failure, [`shrink`] minimizes the trace and [`render_test`]
//!    prints a ready-to-paste `#[test]` that replays the reproducer.
//!
//! The `damlab check` subcommand and the `tests/differential.rs` seed
//! corpus are thin wrappers over [`check`] and [`replay`].

pub mod concurrent;
pub mod harness;
pub mod oracle;
pub mod trace;

pub use concurrent::{replay_concurrent, serve_op, ConcurrentStats};
pub use harness::{check, replay, shrink, CheckConfig, CheckReport, Failure, Mode, Structure};
pub use oracle::Oracle;
pub use trace::{generate_trace, render_test, Op};
