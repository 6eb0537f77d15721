//! Multi-client trace mode: replay a differential trace *through the
//! serving engine* — `k` closed-loop clients over `S` shards on the PDAM
//! scheduler — and compare the commit log against the serial oracle.
//!
//! The single-client harness ([`crate::replay`]) pins the dictionaries'
//! semantics; this mode pins the serving layer on top of them: hash
//! routing, admission batching, group commit, and capture/re-timing must
//! not change any observable answer, for any client count. The trace's ops
//! are dealt round-robin to the clients (op `i` goes to client `i % k`,
//! preserving per-client order), so the engine's admission interleaves
//! them in a schedule the serial harness never produces.

use crate::harness::{Failure, Mode, Structure};
use crate::trace::Op;
use dam_serve::{oracle_divergence, run_ops, ServeConfig, ServeOp};

/// Convert a trace op to a serving-engine op (total: every trace op has a
/// serving equivalent; `Sync` becomes a fan-out `SyncAll`).
pub fn serve_op(op: &Op) -> ServeOp {
    match op {
        Op::Insert { key, value } => ServeOp::Put {
            key: key.clone(),
            value: value.clone(),
        },
        Op::Delete { key } => ServeOp::Del { key: key.clone() },
        Op::Get { key } => ServeOp::Get { key: key.clone() },
        Op::Range { start, end } => ServeOp::Range {
            start: start.clone(),
            end: end.clone(),
        },
        Op::Sync => ServeOp::SyncAll,
        Op::Len => ServeOp::Len,
    }
}

/// Counters from a passing concurrent replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcurrentStats {
    /// Ops committed through the engine.
    pub ops: u64,
    /// PDAM steps the run took.
    pub steps: u64,
    /// Write batches flushed by the admission layer.
    pub batches: u64,
    /// Fraction of served blocks that rode a coalesced read.
    pub coalesce_rate: f64,
}

/// Replay `trace` through the serving engine with `clients` closed-loop
/// clients over `shards` shards, comparing the commit log against the
/// serial `BTreeMap` oracle. Uses [`Mode::Plain`] semantics (healthy
/// device); byte-identical answers are required.
pub fn replay_concurrent(
    structure: Structure,
    clients: usize,
    shards: usize,
    trace: &[Op],
) -> Result<ConcurrentStats, Failure> {
    assert!(clients >= 1 && shards >= 1);
    let mut per_client: Vec<Vec<ServeOp>> = vec![Vec::new(); clients];
    for (i, op) in trace.iter().enumerate() {
        per_client[i % clients].push(serve_op(op));
    }
    let cfg = ServeConfig {
        structure,
        clients,
        shards,
        p: 4,
        preload_keys: 0,
        audit: false,
        ..ServeConfig::default()
    };
    let fail = |op_index: Option<usize>, message: String| Failure {
        mode: Mode::Plain,
        structure,
        op_index,
        message,
    };
    let out = run_ops(&cfg, per_client)
        .map_err(|e| fail(None, format!("concurrent replay failed: {e}")))?;
    if out.commits.len() != trace.len() {
        return Err(fail(
            None,
            format!(
                "commit log has {} entries for a {}-op trace",
                out.commits.len(),
                trace.len()
            ),
        ));
    }
    if let Some((i, why)) = oracle_divergence(&cfg, &out.commits) {
        return Err(fail(
            Some(i),
            format!(
                "k={clients} S={shards} commit {i} ({:?}) diverged from serial oracle: {why}",
                out.commits[i].op
            ),
        ));
    }
    Ok(ConcurrentStats {
        ops: out.report.ops,
        steps: out.report.steps,
        batches: out.report.batches,
        coalesce_rate: out.report.coalesce_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::generate_trace;

    #[test]
    fn adversarial_trace_replays_concurrently_for_all_structures() {
        let trace = generate_trace(11, 250);
        for s in Structure::ALL {
            let stats = replay_concurrent(s, 3, 2, &trace).expect("divergence");
            assert_eq!(stats.ops, 250, "{s:?}");
            assert!(stats.steps > 0, "{s:?}");
        }
    }

    #[test]
    fn client_count_never_changes_answers() {
        let trace = generate_trace(23, 120);
        for &k in &[1usize, 2, 5] {
            replay_concurrent(Structure::BeTree, k, 3, &trace).expect("divergence");
        }
    }
}
