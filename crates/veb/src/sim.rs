//! The PDAM time-step simulator of §8.
//!
//! `k` closed-loop clients run random point queries against a static search
//! tree. Each query becomes an [`IoChain`] — one wave per read, in
//! root-to-leaf order — and the shared [`PdamScheduler`] times the chains:
//! each step it serves up to `P` block fetches (Definition 1), split
//! round-robin among the clients. A wave is a contiguous *read-ahead run* of
//! `max(1, P/k)` blocks starting at the probe's block — the §8 prefetching
//! story, where unused slots expand a request. Within a node, a probe whose
//! block an earlier run already covers costs nothing; crossing to the next
//! node forgets those runs (the cache serves one node at a time per client,
//! as in the paper's walk-through).
//!
//! The run width is exact, not an approximation of per-step slack: every
//! client always has a query in flight (the next one is submitted the step
//! the previous completes), so all `k` clients are active on every step and
//! each one's share of the `P` slots is always `max(1, P/k)`.
//!
//! Three designs compete (the §8 narrative):
//!
//! * fat `PB` nodes in vEB layout — optimal at every `k` (Lemma 13),
//! * fat `PB` nodes with sorted pivots — scattered probes defeat read-ahead,
//! * small `B` nodes — fine at `k = P`, wasteful at `k = 1`.

use crate::node::{IntraNode, NodeLayout};
use dam_stats::{derive_seed, SplitMix64};
use dam_storage::{BlockAddr, BlockReq, IoChain, PdamScheduler, SchedConfig};

/// Tree/node design under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDesign {
    /// Nodes of `node_blocks` blocks, pivots in vEB order.
    FatVeb,
    /// Nodes of `node_blocks` blocks, pivots sorted, binary search.
    FatSorted,
    /// Nodes of one block each (the classic B-tree sizing).
    SmallNodes,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdamSimConfig {
    /// Device parallelism `P`: block fetches per time step.
    pub p: usize,
    /// Concurrent query clients `k`.
    pub clients: usize,
    /// Pivots per block (`B` in entries).
    pub block_pivots: u64,
    /// Blocks per fat node (`P` in the paper's `PB` sizing; ignored for
    /// [`TreeDesign::SmallNodes`]).
    pub node_blocks: u64,
    /// Key-space size (`N`).
    pub n_items: u64,
    /// Which design to simulate.
    pub design: TreeDesign,
    /// Time steps to run.
    pub steps: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Simulator output.
#[derive(Debug, Clone, PartialEq)]
pub struct PdamSimResult {
    /// Queries completed within the step budget.
    pub queries_completed: u64,
    /// Aggregate throughput in queries per time step.
    pub throughput: f64,
    /// Mean steps per completed query.
    pub mean_steps_per_query: f64,
    /// Total block fetches issued (including read-ahead).
    pub blocks_fetched: u64,
}

/// Height (levels of pivots) of a node holding `pivots` pivots: the tallest
/// complete tree that fits, and at least one level.
fn node_height(pivots: u64) -> u32 {
    (pivots + 1).ilog2().max(1)
}

/// The IO chain of one query for `key`: per node on the root-to-leaf path,
/// one wave of `run` contiguous blocks for each probe block not already
/// covered by an earlier run in that node; then the leaf, one wave of `run`
/// blocks from block 0. Block numbers are node-relative; `space` keeps them
/// from coalescing with another client's.
fn query_chain(cfg: &PdamSimConfig, space: u32, key: u64, run: u64) -> IoChain {
    let (node_pivots, layout) = match cfg.design {
        TreeDesign::FatVeb => (cfg.node_blocks * cfg.block_pivots, NodeLayout::Veb),
        TreeDesign::FatSorted => (cfg.node_blocks * cfg.block_pivots, NodeLayout::Sorted),
        TreeDesign::SmallNodes => (cfg.block_pivots, NodeLayout::Veb),
    };
    let max_h = node_height(node_pivots);
    let wave = |first: u64| {
        (first..first + run)
            .map(|block| BlockReq {
                addr: BlockAddr { space, block },
                write: false,
            })
            .collect()
    };
    let mut chain = IoChain::empty();
    let (mut lo, mut hi) = (0, cfg.n_items);
    while hi - lo > cfg.block_pivots {
        let width = hi - lo;
        let mut h = max_h;
        while h > 1 && (width >> h) == 0 {
            h -= 1;
        }
        let node = IntraNode::build(lo, hi, h, layout);
        let (child, blocks) = node.block_demands(key, cfg.block_pivots);
        let mut runs = Vec::new();
        for b in blocks {
            if !runs.iter().any(|&first| (first..first + run).contains(&b)) {
                chain.push_wave(wave(b));
                runs.push(b);
            }
        }
        let children = 1u64 << h;
        let child_lo = lo + (width * child) / children;
        hi = (lo + (width * (child + 1)) / children).max(child_lo + 1);
        lo = child_lo;
    }
    chain.push_wave(wave(0));
    chain
}

/// Run the simulator; deterministic for a given config.
pub fn run_pdam_sim(cfg: &PdamSimConfig) -> PdamSimResult {
    assert!(cfg.p >= 1 && cfg.clients >= 1 && cfg.steps >= 1);
    assert!(cfg.block_pivots >= 2 && cfg.n_items >= 4);
    let run = (cfg.p / cfg.clients).max(1) as u64;
    let mut sched = PdamScheduler::new(SchedConfig {
        p: cfg.p,
        clients: cfg.clients,
        record_steps: false,
    });
    let mut rngs: Vec<SplitMix64> = (0..cfg.clients)
        .map(|i| SplitMix64::new(derive_seed(cfg.seed, i as u64)))
        .collect();
    let mut submit = |sched: &mut PdamScheduler, c: usize| {
        let key = rngs[c].below(cfg.n_items);
        sched.submit(c, query_chain(cfg, c as u32, key, run));
    };
    for c in 0..cfg.clients {
        submit(&mut sched, c);
    }
    let mut started = vec![0u64; cfg.clients];
    let mut completed = 0u64;
    let mut total_steps = 0u64;
    for step in 0..cfg.steps {
        for (c, _) in sched.step().completed {
            // A query that completes on the last step is not counted: its
            // client would only see the result on the step after.
            if step + 1 < cfg.steps {
                completed += 1;
                total_steps += step + 1 - started[c];
            }
            started[c] = step + 1;
            submit(&mut sched, c);
        }
    }
    PdamSimResult {
        queries_completed: completed,
        throughput: completed as f64 / cfg.steps as f64,
        mean_steps_per_query: if completed > 0 {
            total_steps as f64 / completed as f64
        } else {
            f64::INFINITY
        },
        blocks_fetched: sched.stats().slots_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> PdamSimConfig {
        PdamSimConfig {
            p: 8,
            clients: 1,
            block_pivots: 64,
            node_blocks: 8,
            n_items: 1 << 26,
            design: TreeDesign::FatVeb,
            steps: 2000,
            seed: 42,
        }
    }

    #[test]
    fn determinism() {
        let cfg = base_cfg();
        assert_eq!(run_pdam_sim(&cfg), run_pdam_sim(&cfg));
    }

    #[test]
    fn throughput_rises_with_clients_for_veb() {
        // Lemma 13: k/log_{PB/k}(N) increases with k.
        let mut cfg = base_cfg();
        let mut last = 0.0;
        for k in [1usize, 2, 4, 8] {
            cfg.clients = k;
            let r = run_pdam_sim(&cfg);
            assert!(
                r.throughput > last,
                "k={k}: throughput {} should rise (was {last})",
                r.throughput
            );
            last = r.throughput;
        }
    }

    #[test]
    fn single_client_fat_veb_beats_small_nodes() {
        // §8: with one client, size-B nodes waste P−1 slots per step.
        let mut cfg = base_cfg();
        cfg.clients = 1;
        cfg.design = TreeDesign::FatVeb;
        let fat = run_pdam_sim(&cfg);
        cfg.design = TreeDesign::SmallNodes;
        let small = run_pdam_sim(&cfg);
        assert!(
            fat.mean_steps_per_query < small.mean_steps_per_query,
            "fat-veb {} vs small {}",
            fat.mean_steps_per_query,
            small.mean_steps_per_query
        );
    }

    #[test]
    fn many_clients_veb_matches_small_nodes() {
        // At k = P both designs should be in the same ballpark (Lemma 13's
        // k = P case matches the multi-threaded optimum).
        let mut cfg = base_cfg();
        cfg.clients = 8;
        cfg.design = TreeDesign::FatVeb;
        let fat = run_pdam_sim(&cfg);
        cfg.design = TreeDesign::SmallNodes;
        let small = run_pdam_sim(&cfg);
        let ratio = fat.throughput / small.throughput;
        assert!(
            (0.5..=2.5).contains(&ratio),
            "fat {} vs small {} (ratio {ratio})",
            fat.throughput,
            small.throughput
        );
    }

    #[test]
    fn veb_beats_sorted_layout_single_client() {
        // Sorted-pivot probes are scattered; read-ahead cannot help them.
        let mut cfg = base_cfg();
        cfg.clients = 1;
        cfg.design = TreeDesign::FatVeb;
        let veb = run_pdam_sim(&cfg);
        cfg.design = TreeDesign::FatSorted;
        let sorted = run_pdam_sim(&cfg);
        assert!(
            veb.mean_steps_per_query < sorted.mean_steps_per_query,
            "veb {} vs sorted {}",
            veb.mean_steps_per_query,
            sorted.mean_steps_per_query
        );
    }

    #[test]
    fn oversubscription_saturates() {
        // k > P: throughput stops growing (device is the bottleneck).
        let mut cfg = base_cfg();
        cfg.design = TreeDesign::SmallNodes;
        cfg.clients = 8;
        let at_p = run_pdam_sim(&cfg);
        cfg.clients = 32;
        let over = run_pdam_sim(&cfg);
        assert!(
            over.throughput <= at_p.throughput * 1.3,
            "oversubscribed {} vs saturated {}",
            over.throughput,
            at_p.throughput
        );
    }

    #[test]
    fn blocks_fetched_bounded_by_slots() {
        let cfg = base_cfg();
        let r = run_pdam_sim(&cfg);
        assert!(r.blocks_fetched <= cfg.steps * cfg.p as u64);
    }

    #[test]
    fn queries_complete_at_all() {
        let r = run_pdam_sim(&base_cfg());
        assert!(
            r.queries_completed > 10,
            "completed {}",
            r.queries_completed
        );
        assert!(r.mean_steps_per_query.is_finite());
    }

    #[test]
    fn known_answers() {
        // Exact results behind the Lemma 13 tables in EXPERIMENTS.md: any
        // change to how queries are chained or timed shows up here first.
        use TreeDesign::*;
        #[rustfmt::skip]
        let expected = [
            (FatVeb, 8, 1, 499, 16000, 0.2495, 4.0),
            (FatVeb, 8, 3, 988, 12000, 0.494, 6.063765182186235),
            (FatVeb, 8, 8, 2335, 16000, 1.1675, 6.840256959314775),
            (FatVeb, 8, 16, 2330, 16000, 1.165, 13.670815450643778),
            (FatVeb, 1, 3, 290, 2000, 0.145, 20.555172413793102),
            (FatSorted, 8, 1, 333, 16000, 0.1665, 6.0),
            (FatSorted, 8, 3, 792, 12000, 0.396, 7.558080808080808),
            (FatSorted, 8, 8, 1675, 16000, 0.8375, 9.520597014925373),
            (FatSorted, 8, 16, 1673, 16000, 0.8365, 19.01255230125523),
            (SmallNodes, 8, 1, 399, 16000, 0.1995, 5.0),
            (SmallNodes, 8, 3, 1197, 12000, 0.5985, 5.0),
            (SmallNodes, 8, 8, 3192, 16000, 1.596, 5.0),
            (SmallNodes, 8, 16, 3192, 16000, 1.596, 9.988721804511279),
        ];
        for (design, p, clients, done, fetched, throughput, mean_steps) in expected {
            let cfg = PdamSimConfig {
                p,
                clients,
                design,
                ..base_cfg()
            };
            assert_eq!(
                run_pdam_sim(&cfg),
                PdamSimResult {
                    queries_completed: done,
                    throughput,
                    mean_steps_per_query: mean_steps,
                    blocks_fetched: fetched,
                },
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn node_height_is_tallest_complete_tree() {
        assert_eq!(node_height(0), 1);
        assert_eq!(node_height(2), 1);
        assert_eq!(node_height(3), 2);
        assert_eq!(node_height(64), 6);
        assert_eq!(node_height(511), 9);
        assert_eq!(node_height(512), 9);
    }
}
