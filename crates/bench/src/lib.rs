//! Experiment regenerators: one function per table/figure in the paper's
//! evaluation ([`experiments`]), one renderer per table ([`report`]),
//! shared by `damlab experiment <name>`, the integration tests, and
//! EXPERIMENTS.md.
//!
//! Every experiment runs on simulated devices with simulated time and a
//! fixed seed, so results are bit-reproducible. Scale knobs live in
//! [`Scale`]; the defaults keep every experiment laptop-sized while
//! preserving the data-to-cache ratios that drive the paper's effects
//! (see DESIGN.md §9).
//!
//! Grid-shaped experiments fan their points across worker threads via the
//! deterministic [`sweep`] engine (`DAM_JOBS` / `damlab --jobs`); because
//! every point owns its own simulated clock and derived seed, job count
//! changes wall-clock time and nothing else (see DESIGN.md §8).

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod sweep;
pub mod table;

/// Experiment scale parameters (paper values ÷ scale factor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Keys preloaded into the dictionaries (paper: ~140M for 16 GB).
    pub n_keys: u64,
    /// Value bytes per key (paper: ~100 B).
    pub value_bytes: usize,
    /// Buffer-pool bytes (paper: 4 GiB).
    pub cache_bytes: u64,
    /// Measured operations per phase (paper: N/1000).
    pub ops: u64,
    /// Closed-loop IOs per client in the Fig 1 sweep (paper: 163,840 =
    /// 10 GiB at 64 KiB).
    pub fig1_ios_per_client: u64,
    /// Random reads per IO size in the Table 2 sweep (paper: 64).
    pub table2_reads: u64,
    /// Time steps for the Lemma 13 simulator.
    pub lemma13_steps: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            n_keys: 400_000,
            value_bytes: 100,
            cache_bytes: 8 << 20,
            ops: 400,
            fig1_ios_per_client: 300,
            table2_reads: 64,
            lemma13_steps: 3_000,
            seed: 0xDA4,
        }
    }
}

impl Scale {
    /// A tiny scale for integration tests (seconds, not minutes).
    pub fn smoke() -> Self {
        Scale {
            n_keys: 40_000,
            value_bytes: 100,
            cache_bytes: 1 << 20,
            ops: 120,
            fig1_ios_per_client: 120,
            table2_reads: 24,
            lemma13_steps: 800,
            seed: 0xDA4,
        }
    }

    /// Read overrides from the `DAM_N_KEYS`, `DAM_OPS`, `DAM_CACHE_MB` and
    /// `DAM_SEED` environment variables. A malformed value is an error
    /// that names the variable.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`Scale::from_env`] over any variable lookup (`var(name)` is the
    /// variable's value, `None` when unset).
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let parse = |name: &str| -> Result<Option<u64>, String> {
            var(name)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("{name} expects an unsigned integer, got '{v}'"))
                })
                .transpose()
        };
        let mut s = Scale::default();
        if let Some(n) = parse("DAM_N_KEYS")? {
            s.n_keys = n;
        }
        if let Some(n) = parse("DAM_OPS")? {
            s.ops = n;
        }
        if let Some(n) = parse("DAM_CACHE_MB")? {
            s.cache_bytes = n
                .checked_mul(1 << 20)
                .ok_or_else(|| format!("DAM_CACHE_MB is too large: {n}"))?;
        }
        if let Some(n) = parse("DAM_SEED")? {
            s.seed = n;
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_from(vars: &[(&str, &str)]) -> Result<Scale, String> {
        Scale::from_vars(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_variables_keep_the_default_scale() {
        assert_eq!(scale_from(&[]), Ok(Scale::default()));
    }

    #[test]
    fn well_formed_variables_override_the_scale() {
        let s = scale_from(&[
            ("DAM_N_KEYS", "40000"),
            ("DAM_OPS", "80"),
            ("DAM_CACHE_MB", "2"),
            ("DAM_SEED", "18446744073709551615"),
        ])
        .unwrap();
        assert_eq!((s.n_keys, s.ops, s.cache_bytes), (40_000, 80, 2 << 20));
        assert_eq!(s.seed, u64::MAX);
    }

    #[test]
    fn malformed_variables_are_errors_naming_the_variable() {
        for (name, bad) in [
            ("DAM_N_KEYS", "4e4"),
            ("DAM_OPS", ""),
            ("DAM_CACHE_MB", "-1"),
            ("DAM_SEED", "0xDA4"),
            ("DAM_CACHE_MB", "18446744073709551615"),
        ] {
            let err = scale_from(&[(name, bad)]).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
    }
}
