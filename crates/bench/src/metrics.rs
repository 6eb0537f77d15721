//! Opt-in observability for the experiments.
//!
//! Set `DAM_METRICS=1` and every experiment device is wrapped in an
//! [`ObservedDevice`], every measured dictionary in an [`ObservedDict`],
//! and `damlab experiment <name>` writes a `BENCH_<name>.metrics.json`
//! sidecar next to its table output (same schema as `dam-cli stats --json`; CI validates it
//! against `schemas/metrics_schema.json`). Unset, all hooks are inert and
//! the experiments run exactly as before.
//!
//! `DAM_METRICS_PROFILE` picks the model-residual pricing profile:
//! `hdd` (default, the testbed Toshiba disk the experiments run on) or
//! `ssd` (the Samsung 860 Pro).
//!
//! ## Parallel sweeps
//!
//! Under the [`crate::sweep`] engine each sweep point gets a *private*
//! registry, installed for the duration of the point's closure via
//! [`scoped`] (a thread-local stack, so worker threads never contend on —
//! or interleave into — the process-wide registry). [`obs`] returns the
//! innermost scoped registry when one is installed and the global one
//! otherwise, which is why the experiment code is oblivious to whether it
//! runs serially or fanned out. After a sweep the engine folds the
//! per-point registries into the global registry **in input order**
//! ([`refined_dam::obs::Obs::merge_from`]), so the exported sidecar is
//! byte-identical at any job count.
//!
//! [`ObservedDict`]: refined_dam::obs::ObservedDict

use refined_dam::obs::{ModelParams, Obs, ObservedDevice};
use refined_dam::storage::{profiles, BlockDevice, SharedDevice};
use std::cell::RefCell;
use std::sync::OnceLock;

static OBS: OnceLock<Option<Obs>> = OnceLock::new();

thread_local! {
    /// Innermost-last stack of sweep-point registries for this thread.
    static POINT_OBS: RefCell<Vec<Obs>> = const { RefCell::new(Vec::new()) };
}

/// The residual-pricing parameters selected by `DAM_METRICS_PROFILE`.
fn model_params() -> ModelParams {
    match std::env::var("DAM_METRICS_PROFILE").as_deref() {
        Ok("ssd") => ModelParams::from_ssd(&profiles::samsung_860_pro()),
        _ => ModelParams::from_hdd(&profiles::toshiba_dt01aca050()),
    }
}

/// The process-wide registry, or `None` when `DAM_METRICS` is off.
pub fn global_obs() -> Option<Obs> {
    OBS.get_or_init(|| {
        let enabled = std::env::var("DAM_METRICS").is_ok_and(|v| !v.is_empty() && v != "0");
        enabled.then(|| Obs::with_model(model_params()))
    })
    .clone()
}

/// True when `DAM_METRICS` is enabled for this process.
pub fn enabled() -> bool {
    global_obs().is_some()
}

/// The registry experiment code should report into: the innermost scoped
/// per-sweep-point registry when one is installed on this thread, otherwise
/// the process-wide one (`None` when metrics are off).
pub fn obs() -> Option<Obs> {
    let point = POINT_OBS.with(|s| s.borrow().last().cloned());
    if point.is_some() {
        return point;
    }
    global_obs()
}

/// A fresh registry configured like the global one (same model profile),
/// for one sweep point; `None` when metrics are off.
pub fn fresh_point_obs() -> Option<Obs> {
    enabled().then(|| Obs::with_model(model_params()))
}

/// Run `f` with `point` installed as this thread's innermost registry (a
/// no-op pass-through when `point` is `None`). The registry is uninstalled
/// on exit, including on unwind.
pub fn scoped<R>(point: Option<Obs>, f: impl FnOnce() -> R) -> R {
    let Some(o) = point else { return f() };
    POINT_OBS.with(|s| s.borrow_mut().push(o));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            POINT_OBS.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// Wrap an experiment device: observed when metrics are on, plain
/// otherwise. Drop-in for `SharedDevice::new(Box::new(...))`.
pub fn observe(device: Box<dyn BlockDevice>) -> SharedDevice {
    match obs() {
        Some(o) => ObservedDevice::shared(device, o),
        None => SharedDevice::new(device),
    }
}

/// Write the snapshot sidecar `BENCH_<name>.metrics.json` for a finished
/// experiment. No-op when metrics are off.
pub fn export(name: &str) {
    let Some(o) = global_obs() else { return };
    let snap = o.snapshot();
    if let Err(e) = snap.check_io_consistency() {
        eprintln!("metrics consistency warning: {e}");
    }
    let path = format!("BENCH_{name}.metrics.json");
    match std::fs::write(&path, snap.to_json()) {
        Ok(()) => eprintln!("metrics sidecar written to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
