//! Deterministic parallel sweep engine.
//!
//! Every grid-shaped experiment in this crate — node-size sweeps, client
//! sweeps, per-device fits, ablation arms — is a list of *independent*
//! points: each point builds its own device/pager/dictionary stack, owns
//! its own simulated clock, and draws from its own derived RNG stream.
//! That independence makes parallelism free of modeling risk: results are
//! a pure function of `(point, derived seed)`, so fanning points across OS
//! threads changes wall-clock time and nothing else.
//!
//! [`Sweep`] guarantees it observationally:
//!
//! * **Isolation** — the engine never shares mutable state between points;
//!   each point's closure constructs everything it mutates. Observability
//!   uses per-point registries (see [`crate::metrics::scoped`]).
//! * **Derived seeding** — [`derive_seed`] gives every point an RNG seed
//!   that is a pure function of `(base seed, point index)` (a splitmix64
//!   finalizer, so neighboring indices land in uncorrelated streams). No
//!   point's randomness depends on which points ran before it.
//! * **Ordered merge** — results come back in input order, and per-point
//!   metrics registries fold into the process-wide registry in input
//!   order, so result rows *and* metrics sidecars are byte-identical at
//!   any job count (`tests/parallel_sweeps.rs` asserts this).
//!
//! Worker count: explicit [`Sweep::jobs`] builder > [`set_global_jobs`]
//! (used by `damlab --jobs` and tests) > the `DAM_JOBS` environment
//! variable > `std::thread::available_parallelism()`.

use crate::metrics;
use refined_dam::obs::Obs;
use refined_dam::stats::derive_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide job-count override (0 = unset). Set by `damlab --jobs` and
/// the equivalence tests; beats `DAM_JOBS`.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Install (Some) or clear (None) the process-wide job-count override.
pub fn set_global_jobs(jobs: Option<usize>) {
    JOBS_OVERRIDE.store(jobs.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count a sweep will use when none is set explicitly:
/// the global override, else `DAM_JOBS`, else available parallelism.
pub fn default_jobs() -> usize {
    let o = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("DAM_JOBS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One-line worker-pool description, printed to stderr before an experiment. Job
/// count changes wall-clock time only — results are identical at any value
/// — so the line documents the run without invalidating comparisons.
pub fn describe_jobs() -> String {
    format!(
        "sweep workers: {} (set DAM_JOBS or damlab --jobs)",
        default_jobs()
    )
}

/// What a sweep point's closure receives: the point, its position in the
/// input list, and its derived RNG seed.
pub struct SweepCtx<'a, P> {
    /// The sweep point itself.
    pub point: &'a P,
    /// Index of the point in the input list.
    pub index: usize,
    /// Per-point seed: `derive_seed(base_seed, index)`.
    pub seed: u64,
}

/// An ordered list of independent experiment points, ready to fan across a
/// scoped worker pool. See the module docs for the determinism contract.
pub struct Sweep<P> {
    points: Vec<P>,
    base_seed: u64,
    jobs: Option<usize>,
}

impl<P: Sync> Sweep<P> {
    /// A sweep over `points`, deriving per-point seeds from `base_seed`.
    pub fn new(base_seed: u64, points: Vec<P>) -> Self {
        Sweep {
            points,
            base_seed,
            jobs: None,
        }
    }

    /// Pin the worker count for this sweep (overrides every default).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Run `f` once per point and return the results in input order.
    ///
    /// Workers pull point indices off a shared atomic queue; each point's
    /// closure runs with a private metrics registry installed (when
    /// `DAM_METRICS` is on), and the registries fold into the global one in
    /// input order after all workers join. A panic in any point propagates
    /// after the scope joins the remaining workers.
    pub fn run<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&SweepCtx<'_, P>) -> R + Sync,
    {
        let n = self.points.len();
        if n == 0 {
            return Vec::new();
        }
        let jobs = self.jobs.unwrap_or_else(default_jobs).clamp(1, n);

        // Created up front (not inside workers) so registry identity never
        // depends on scheduling.
        let point_obs: Vec<Option<Obs>> = (0..n).map(|_| metrics::fresh_point_obs()).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let run_point = |i: usize| {
            let ctx = SweepCtx {
                point: &self.points[i],
                index: i,
                seed: derive_seed(self.base_seed, i as u64),
            };
            let result = metrics::scoped(point_obs[i].clone(), || f(&ctx));
            *slots[i].lock().expect("sweep slot poisoned") = Some(result);
        };

        if jobs == 1 {
            for i in 0..n {
                run_point(i);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        run_point(i);
                    });
                }
            });
        }

        // Ordered merge: the global registry sees the per-point registries
        // in input order regardless of which worker ran which point.
        if let Some(global) = metrics::global_obs() {
            for o in point_obs.into_iter().flatten() {
                global.merge_from(&o);
            }
        }

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("every sweep point must produce a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let points: Vec<usize> = (0..100).collect();
        let out = Sweep::new(7, points).jobs(8).run(|ctx| ctx.index * 10);
        assert_eq!(out, (0..100).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_order_independent_and_distinct() {
        let a: Vec<u64> = Sweep::new(0xDA4, (0..16u64).collect())
            .jobs(1)
            .run(|ctx| ctx.seed);
        let b: Vec<u64> = Sweep::new(0xDA4, (0..16u64).collect())
            .jobs(5)
            .run(|ctx| ctx.seed);
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "derived seeds must be distinct");
        assert_eq!(a[3], derive_seed(0xDA4, 3));
    }

    #[test]
    fn parallel_equals_serial_for_computed_results() {
        let work = |ctx: &SweepCtx<'_, u64>| -> f64 {
            // Deterministic float work sensitive to the seed.
            let mut acc = 0.0f64;
            let mut x = ctx.seed | 1;
            for _ in 0..1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (x >> 11) as f64 * 1e-9;
            }
            acc + *ctx.point as f64
        };
        let serial = Sweep::new(42, (0..32u64).collect()).jobs(1).run(work);
        let parallel = Sweep::new(42, (0..32u64).collect()).jobs(7).run(work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u32> = Sweep::new(1, Vec::<u8>::new()).run(|_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_resolution_precedence() {
        // Builder beats the global override.
        set_global_jobs(Some(3));
        let seen = Mutex::new(0usize);
        Sweep::new(0, (0..4u8).collect()).jobs(2).run(|_| {
            *seen.lock().unwrap() += 1;
        });
        assert_eq!(*seen.lock().unwrap(), 4);
        assert_eq!(default_jobs(), 3);
        set_global_jobs(None);
        assert!(default_jobs() >= 1);
    }
}
