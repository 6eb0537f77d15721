//! A small, dependency-free argument parser: one positional command, an
//! optional positional argument, and `--key value` flags.

use std::collections::BTreeMap;

/// CLI failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation; the message explains what to fix.
    Usage(String),
    /// The requested operation failed.
    Runtime(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Runtime(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// First positional token (the subcommand); empty if none.
    pub command: String,
    /// Second positional token, if any (e.g. the experiment name).
    pub positional: Option<String>,
    /// `--key value` flags.
    pub flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            if let Some(name) = tok.strip_prefix("--") {
                let value = argv
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
                if out.flags.insert(name.to_string(), value).is_some() {
                    return Err(CliError::Usage(format!("flag --{name} given twice")));
                }
                i += 2;
            } else {
                if out.command.is_empty() {
                    out.command = tok.clone();
                } else if out.positional.is_none() {
                    out.positional = Some(tok.clone());
                } else {
                    return Err(CliError::Usage(format!("unexpected argument '{tok}'")));
                }
                i += 1;
            }
        }
        Ok(out)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// An optional numeric flag with a default.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got '{v}'"))),
        }
    }

    /// An optional float flag.
    pub fn get_f64(&self, name: &str) -> Result<Option<f64>, CliError> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("--{name} expects a number, got '{v}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&argv("run --structure btree --keys 1000")).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("structure"), Some("btree"));
        assert_eq!(a.get_u64("keys", 0).unwrap(), 1000);
        assert_eq!(a.get_u64("ops", 7).unwrap(), 7);
    }

    #[test]
    fn parses_positional() {
        let a = Args::parse(&argv("experiment table2 --seed 5")).unwrap();
        assert_eq!(a.command, "experiment");
        assert_eq!(a.positional.as_deref(), Some("table2"));
        assert_eq!(a.get("seed"), Some("5"));
    }

    #[test]
    fn missing_flag_value_errors() {
        assert!(matches!(
            Args::parse(&argv("run --structure")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Args::parse(&argv("run --structure --keys 5")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn duplicate_flag_errors() {
        assert!(matches!(
            Args::parse(&argv("run --keys 1 --keys 2")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn extra_positional_errors() {
        assert!(matches!(
            Args::parse(&argv("run a b")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn require_and_numeric_validation() {
        let a = Args::parse(&argv("tune --alpha abc")).unwrap();
        assert!(matches!(a.require("device"), Err(CliError::Usage(_))));
        assert!(matches!(a.get_f64("alpha"), Err(CliError::Usage(_))));
    }

    #[test]
    fn empty_invocation_is_help() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.command, "");
    }
}
