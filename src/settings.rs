//! The binary's settings table: every runtime knob is parsed once, from
//! one snapshot of the environment, into typed values that `main` passes
//! down — to `OrpheusDb`'s setters in the shell and to `EngineConfig`'s
//! fields in `serve` — plus the parser of each mode's flags.
//!
//! | setting              | environment            | default |
//! |----------------------|------------------------|---------|
//! | slow-query threshold | `ORPHEUS_SLOW_MS`      | 100     |
//! | trace sample         | `ORPHEUS_TRACE_SAMPLE` | 1       |
//!
//! Every value given is validated; an invalid one is an error that names
//! the variable it came from. The trace sample is validated only: the
//! journal reads the variable itself (see `obs::journal::Journal::from_env`).

use std::collections::HashMap;

/// A snapshot of the process environment, taken once by `main`.
pub type Env = HashMap<String, String>;

/// The process environment as [`Settings::resolve`] takes it. A variable
/// whose name is not UTF-8 is left out; a value that is not is decoded
/// lossily (and so fails its parser).
#[expect(
    clippy::disallowed_methods,
    reason = "the binary reads the environment here, once, for every setting"
)]
pub fn environment() -> Env {
    std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .collect()
}

/// Every runtime setting, resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// Slow-query threshold in milliseconds; `0` logs every command.
    pub slow_ms: u64,
}

/// One row of the table: a setting's variable, its parser, what the
/// parser accepts (for the error message), and its default.
struct Knob<T> {
    env: &'static str,
    parse: fn(&str) -> Option<T>,
    expected: &'static str,
    default: fn() -> T,
}

const SLOW_MS: Knob<u64> = Knob {
    env: "ORPHEUS_SLOW_MS",
    parse: |s| s.trim().parse().ok(),
    expected: "a threshold in milliseconds ≥ 0; 0 logs every command",
    default: || obs::journal::DEFAULT_SLOW_MS,
};

const TRACE_SAMPLE: Knob<u64> = Knob {
    env: obs::journal::SAMPLE_ENV,
    parse: obs::journal::parse_sample,
    expected: "an integer ≥ 0; 0 disables the journal",
    default: || obs::journal::DEFAULT_SAMPLE,
};

impl<T> Knob<T> {
    /// The variable's value, else the default.
    fn resolve(&self, env: &Env) -> Result<T, String> {
        match env.get(self.env) {
            Some(raw) => (self.parse)(raw).ok_or_else(|| invalid(self.env, raw, self.expected)),
            None => Ok((self.default)()),
        }
    }
}

impl Settings {
    /// Resolve every row of the table from `env`. The error is the
    /// message for an exit-2 failure.
    pub fn resolve(env: &Env) -> Result<Settings, String> {
        let settings = Settings {
            slow_ms: SLOW_MS.resolve(env)?,
        };
        TRACE_SAMPLE.resolve(env)?;
        Ok(settings)
    }
}

/// The message for a value its parser refuses, naming the spelling
/// (flag or variable) that gave it.
pub fn invalid(spelling: &str, raw: &str, expected: &str) -> String {
    format!("invalid {spelling} value: {raw} (expected {expected})")
}

/// One mode's `--flag value` arguments.
#[derive(Debug)]
pub struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Parse `args` (after the mode word), accepting only the flags in
    /// `known`, each followed by its value. An unknown flag, or one whose
    /// value is missing (end of argv, or another `--flag` where the value
    /// should be), is an error: `--data-dri d` must not start an
    /// in-memory shell.
    pub fn parse(args: &'a [String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag}"));
            }
            match args.next() {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((flag.as_str(), value.as_str()))
                }
                _ => return Err(format!("{flag} needs a value")),
            }
        }
        Ok(Flags(pairs))
    }

    /// The value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|&(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(vars: &[(&str, &str)]) -> Result<Settings, String> {
        let env = vars.iter().map(|(k, v)| (k.to_string(), v.to_string()));
        Settings::resolve(&env.collect())
    }

    /// `resolve` fails, and its message names `spelling`.
    fn refused(vars: &[(&str, &str)], spelling: &str) {
        match resolve(vars) {
            Err(msg) => assert!(
                msg.starts_with(&format!("invalid {spelling} value: ")),
                "{msg}"
            ),
            Ok(s) => panic!("{vars:?} resolved to {s:?}"),
        }
    }

    fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Flags<'a>, String> {
        Flags::parse(args, known)
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn nothing_given_is_the_defaults() {
        let want = Settings {
            slow_ms: obs::journal::DEFAULT_SLOW_MS,
        };
        assert_eq!(resolve(&[]), Ok(want));
        // Variables outside the table are not ours to judge.
        assert_eq!(resolve(&[("ORPHEUS_MAT_BUDGET", "nope")]), Ok(want));
        let none = argv(&[]);
        assert_eq!(
            flags(&none, &["--data-dir"]).unwrap().get("--data-dir"),
            None
        );
    }

    #[test]
    fn slow_ms() {
        assert_eq!(resolve(&[("ORPHEUS_SLOW_MS", "0")]).unwrap().slow_ms, 0);
        assert_eq!(
            resolve(&[("ORPHEUS_SLOW_MS", " 250 ")]).unwrap().slow_ms,
            250
        );
        for bad in ["fast", "-5", "10ms", ""] {
            refused(&[("ORPHEUS_SLOW_MS", bad)], "ORPHEUS_SLOW_MS");
        }
    }

    #[test]
    fn trace_sample() {
        for good in ["0", "1", "16"] {
            assert!(resolve(&[("ORPHEUS_TRACE_SAMPLE", good)]).is_ok(), "{good}");
        }
        for bad in ["nope", "-1", "1.5", ""] {
            refused(&[("ORPHEUS_TRACE_SAMPLE", bad)], "ORPHEUS_TRACE_SAMPLE");
        }
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        let known = ["--data-dir", "--port"];
        for args in [&["--data-dir"][..], &["--data-dir", "--port", "1"]] {
            let err = flags(&argv(args), &known).unwrap_err();
            assert_eq!(err, "--data-dir needs a value");
        }
    }

    #[test]
    fn only_the_flags_a_mode_reads_are_accepted() {
        let known = ["--port", "--data-dir"];
        let args = argv(&["--port", "0", "--data-dir", "d"]);
        let given = flags(&args, &known).unwrap();
        assert_eq!(
            (given.get("--port"), given.get("--data-dir")),
            (Some("0"), Some("d"))
        );
        for (args, unknown) in [
            (&["--data-dri", "d"][..], "--data-dri"),
            (&["--port", "0", "--prot", "1"], "--prot"),
            (&["d"], "d"),
        ] {
            let err = flags(&argv(args), &known).unwrap_err();
            assert_eq!(err, format!("unknown flag {unknown}"));
        }
    }
}
