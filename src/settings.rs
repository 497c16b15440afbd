//! The binary's settings table: every runtime knob is parsed once, from
//! the command line and one snapshot of the environment, into typed
//! values that `main` passes down — to `OrpheusDb`'s setters in the shell
//! and to `EngineConfig`'s fields in `serve`.
//!
//! | setting              | flag        | environment            | default         |
//! |----------------------|-------------|------------------------|-----------------|
//! | threads              | `--threads` | `ORPHEUS_THREADS`      | available cores |
//! | slow-query threshold | —           | `ORPHEUS_SLOW_MS`      | 100             |
//! | trace sample         | —           | `ORPHEUS_TRACE_SAMPLE` | 1               |
//!
//! A flag beats its variable. Every value given is validated, the one a
//! flag overrides included; an invalid one is an error that names the
//! spelling it came from. The trace sample is validated only: the journal
//! reads the variable itself (see `obs::journal::Journal::from_env`).

use std::collections::HashMap;

/// A snapshot of the process environment, taken once by `main`.
pub type Env = HashMap<String, String>;

/// The process environment as [`Settings::resolve`] takes it. A variable
/// whose name is not UTF-8 is left out; a value that is not is decoded
/// lossily (and so fails its parser).
pub fn environment() -> Env {
    std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .collect()
}

/// Every runtime setting, resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// Morsel workers for checkout and version queries.
    pub threads: usize,
    /// Slow-query threshold in milliseconds; `0` logs every command.
    pub slow_ms: u64,
}

/// One row of the table: a setting's spellings, its parser, what the
/// parser accepts (for the error message), and its default.
struct Knob<T> {
    flag: Option<&'static str>,
    env: &'static str,
    parse: fn(&str) -> Option<T>,
    expected: &'static str,
    default: fn() -> T,
}

const THREADS: Knob<usize> = Knob {
    flag: Some("--threads"),
    env: "ORPHEUS_THREADS",
    parse: |s| s.parse().ok().filter(|&n| n >= 1),
    expected: "an integer ≥ 1",
    default: available_cores,
};

const SLOW_MS: Knob<u64> = Knob {
    flag: None,
    env: "ORPHEUS_SLOW_MS",
    parse: |s| s.trim().parse().ok(),
    expected: "a threshold in milliseconds ≥ 0; 0 logs every command",
    default: || obs::journal::DEFAULT_SLOW_MS,
};

const TRACE_SAMPLE: Knob<u64> = Knob {
    flag: None,
    env: obs::journal::SAMPLE_ENV,
    parse: obs::journal::parse_sample,
    expected: "an integer ≥ 0; 0 disables the journal",
    default: || obs::journal::DEFAULT_SAMPLE,
};

impl<T> Knob<T> {
    /// The flag's value, else the variable's, else the default.
    fn resolve(&self, args: &[String], env: &Env) -> Result<T, String> {
        let parse =
            |spelling, raw| (self.parse)(raw).ok_or_else(|| invalid(spelling, raw, self.expected));
        let from_env = env.get(self.env).map(|raw| parse(self.env, raw));
        let from_flag = match self.flag {
            Some(flag) => flag_value(args, flag)?.map(|raw| parse(flag, raw)),
            None => None,
        };
        let (from_env, from_flag) = (from_env.transpose()?, from_flag.transpose()?);
        Ok(from_flag.or(from_env).unwrap_or_else(self.default))
    }
}

impl Settings {
    /// Resolve every row of the table from `args` (the whole argv) and
    /// `env`. The error is the message for an exit-2 failure.
    pub fn resolve(args: &[String], env: &Env) -> Result<Settings, String> {
        let settings = Settings {
            threads: THREADS.resolve(args, env)?,
            slow_ms: SLOW_MS.resolve(args, env)?,
        };
        TRACE_SAMPLE.resolve(args, env)?;
        Ok(settings)
    }
}

/// The message for a value its parser refuses, naming the spelling
/// (flag or variable) that gave it.
pub fn invalid(spelling: &str, raw: &str, expected: &str) -> String {
    format!("invalid {spelling} value: {raw} (expected {expected})")
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The value of `flag`, if present. A flag with a missing value (end of
/// argv, or another `--flag` where the value should be) is an error —
/// `--threads --data-dir x` must not silently ignore `--threads`.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{flag} needs a value")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(flags: &[&str], vars: &[(&str, &str)]) -> Result<Settings, String> {
        let args: Vec<String> = ["orpheusdb"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect();
        let env = vars.iter().map(|(k, v)| (k.to_string(), v.to_string()));
        Settings::resolve(&args, &env.collect())
    }

    /// `resolve` fails, and its message names `spelling`.
    fn refused(flags: &[&str], vars: &[(&str, &str)], spelling: &str) {
        match resolve(flags, vars) {
            Err(msg) => assert!(
                msg.starts_with(&format!("invalid {spelling} value: ")),
                "{msg}"
            ),
            Ok(s) => panic!("{flags:?} {vars:?} resolved to {s:?}"),
        }
    }

    #[test]
    fn nothing_given_is_the_defaults() {
        let want = Settings {
            threads: available_cores(),
            slow_ms: obs::journal::DEFAULT_SLOW_MS,
        };
        assert_eq!(resolve(&[], &[]), Ok(want));
        // Variables outside the table are not ours to judge.
        assert_eq!(resolve(&[], &[("ORPHEUS_MAT_BUDGET", "nope")]), Ok(want));
    }

    #[test]
    fn threads() {
        let threads = |flags: &[&str], vars: &[(&str, &str)]| resolve(flags, vars).unwrap().threads;
        assert_eq!(threads(&[], &[("ORPHEUS_THREADS", "3")]), 3);
        assert_eq!(threads(&["--threads", "2"], &[]), 2);
        assert_eq!(threads(&["--threads", "2"], &[("ORPHEUS_THREADS", "3")]), 2);
        for bad in ["abc", "0", "-1", "1.5", ""] {
            refused(&[], &[("ORPHEUS_THREADS", bad)], "ORPHEUS_THREADS");
            refused(&["--threads", bad], &[], "--threads");
        }
    }

    #[test]
    fn slow_ms() {
        assert_eq!(
            resolve(&[], &[("ORPHEUS_SLOW_MS", "0")]).unwrap().slow_ms,
            0
        );
        assert_eq!(
            resolve(&[], &[("ORPHEUS_SLOW_MS", " 250 ")])
                .unwrap()
                .slow_ms,
            250
        );
        for bad in ["fast", "-5", "10ms", ""] {
            refused(&[], &[("ORPHEUS_SLOW_MS", bad)], "ORPHEUS_SLOW_MS");
        }
    }

    #[test]
    fn trace_sample() {
        for good in ["0", "1", "16"] {
            assert!(
                resolve(&[], &[("ORPHEUS_TRACE_SAMPLE", good)]).is_ok(),
                "{good}"
            );
        }
        for bad in ["nope", "-1", "1.5", ""] {
            refused(
                &[],
                &[("ORPHEUS_TRACE_SAMPLE", bad)],
                "ORPHEUS_TRACE_SAMPLE",
            );
        }
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        for flags in [&["--threads"][..], &["--threads", "--data-dir", "d"]] {
            let err = resolve(flags, &[]).unwrap_err();
            assert!(err.ends_with("needs a value"), "{err}");
        }
    }
}
