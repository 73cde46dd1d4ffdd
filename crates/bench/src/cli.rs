//! Strict flag parsing shared by the `repro` subcommands
//! (`exec-smoke`, `mem-smoke`, `fault-sweep`, `custom`, ...).
//!
//! One table-driven parser instead of a hand-rolled loop per
//! subcommand, so the strictness contract is uniform and cannot drift:
//! unknown flags are usage errors (exit 2 in the binary), value flags
//! never silently fall back to a default when their value is missing or
//! malformed, and the diagnostic always names the offending token plus
//! the accepted grammar. Each test in `tests/cli.rs` pins a bug that
//! used to do exactly the silent thing.

use harmony::simulate::SchemeKind;

/// How a value-taking flag treats a missing value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// `usize >= 1`; a bare trailing flag is a usage error
    /// (`--gpus` must never quietly mean "the default GPU count").
    PositiveInt,
    /// `u64`; a bare trailing flag falls back to the subcommand's
    /// default (`--seed` alone means "the documented default seed"),
    /// but a present-and-malformed value is still an error.
    OptionalInt,
    /// A scheme name from [`SchemeKind::ALL`]; a bare flag or a name
    /// [`SchemeKind::from_name`] does not know is a usage error listing
    /// the valid schemes — a misspelt `--scheme` must never silently
    /// run the unfiltered (or an empty) grid.
    Scheme,
    /// A finite `f64 > 0` (`--mem-gib`); `inf`, `nan`, zero and negative
    /// values are usage errors, never a server with no usable memory.
    PositiveFloat,
    /// A model name from [`crate::custom::MODELS`].
    Model,
}

/// The `a|b|c` list of valid scheme names quoted in `--scheme`
/// diagnostics.
pub(crate) fn scheme_names() -> String {
    SchemeKind::ALL
        .iter()
        .map(|s| s.name())
        .collect::<Vec<_>>()
        .join("|")
}

/// The `a|b|c` list of valid model names quoted in `--model`
/// diagnostics.
pub(crate) fn model_names() -> String {
    crate::custom::MODELS
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join("|")
}

/// One value-taking flag: its token (e.g. `--gpus`) and its
/// missing-value and parse discipline.
pub type ValueFlag = (&'static str, ValueKind);

/// The flag grammar of one subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Subcommand name, used in the unknown-flag diagnostic.
    pub cmd: &'static str,
    /// Grammar summary quoted in diagnostics, e.g.
    /// `[--smoke] [--seed N]`.
    pub expected: &'static str,
    /// Presence-only flags.
    pub bools: &'static [&'static str],
    /// Value-taking flags.
    pub values: &'static [ValueFlag],
}

/// `repro conformance [seed] [--scheme NAME]` — the positional seed is
/// stripped by the binary before flag parsing (back-compat with
/// `conformance 7`).
pub const CONFORMANCE: Spec = Spec {
    cmd: "conformance",
    expected: "[seed] [--scheme NAME]",
    bools: &[],
    values: &[("--scheme", ValueKind::Scheme)],
};

/// `repro exec-smoke [--grid] [--scheme NAME]`.
pub const EXEC_SMOKE: Spec = Spec {
    cmd: "exec-smoke",
    expected: "[--grid] [--scheme NAME]",
    bools: &["--grid"],
    values: &[("--scheme", ValueKind::Scheme)],
};

/// `repro mem-smoke [--grid]`.
pub const MEM_SMOKE: Spec = Spec {
    cmd: "mem-smoke",
    expected: "[--grid]",
    bools: &["--grid"],
    values: &[],
};

/// `repro fault-sweep [--smoke] [--seed N]`.
pub const FAULT_SWEEP: Spec = Spec {
    cmd: "fault-sweep",
    expected: "[--smoke] [--seed N]",
    bools: &["--smoke"],
    values: &[("--seed", ValueKind::OptionalInt)],
};

/// `repro custom [--model NAME] [--scheme NAME] [--gpus N] ...`.
pub const CUSTOM: Spec = Spec {
    cmd: "custom",
    expected: "[--model NAME] [--scheme NAME] [--gpus N] [--mem-gib G] [--microbatches M] \
               [--ubatch U] [--pack P] [--group G] [--opt-slots S] [--recompute] [--prefetch] \
               [--iterations K] [--gantt]",
    bools: &["--recompute", "--prefetch", "--gantt"],
    values: &[
        ("--model", ValueKind::Model),
        ("--scheme", ValueKind::Scheme),
        ("--gpus", ValueKind::PositiveInt),
        ("--mem-gib", ValueKind::PositiveFloat),
        ("--microbatches", ValueKind::PositiveInt),
        ("--ubatch", ValueKind::PositiveInt),
        ("--pack", ValueKind::PositiveInt),
        ("--group", ValueKind::PositiveInt),
        ("--opt-slots", ValueKind::OptionalInt),
        ("--iterations", ValueKind::PositiveInt),
    ],
};

/// A successfully parsed invocation; query with [`Parsed::has`] and
/// [`Parsed::value`].
#[derive(Debug)]
pub struct Parsed<'a> {
    args: &'a [String],
    values: Vec<(&'static str, Option<u64>)>,
}

impl Parsed<'_> {
    /// Whether the presence-only flag `name` appeared.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The parsed value of flag `name`, `None` when absent (or bare and
    /// [`ValueKind::OptionalInt`]).
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    /// The scheme a [`ValueKind::Scheme`] flag named, `None` when absent.
    /// (Stored as its index into [`SchemeKind::ALL`] by `parse`.)
    pub fn scheme(&self, name: &str) -> Option<SchemeKind> {
        self.value(name).map(|i| SchemeKind::ALL[i as usize])
    }

    /// The value of a [`ValueKind::PositiveFloat`] flag, `None` when
    /// absent. (Stored as its bit pattern by `parse`.)
    pub fn float(&self, name: &str) -> Option<f64> {
        self.value(name).map(f64::from_bits)
    }

    /// The model a [`ValueKind::Model`] flag named, `None` when absent.
    /// (Stored as its index into [`crate::custom::MODELS`] by `parse`.)
    pub fn model(&self, name: &str) -> Option<&'static str> {
        self.value(name)
            .map(|i| crate::custom::MODELS[i as usize].0)
    }
}

/// Parses a present value of the flag `name`, or returns the diagnostic
/// naming it. Scheme and model names are stored as table indices,
/// floats as their bit pattern.
fn parse_value(&(name, kind): &ValueFlag, s: &str) -> Result<u64, String> {
    match kind {
        ValueKind::PositiveInt => match s.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{name} takes a positive integer, got `{s}`")),
        },
        ValueKind::OptionalInt => s
            .parse::<u64>()
            .map_err(|_| format!("{name} takes an integer, got `{s}`")),
        ValueKind::PositiveFloat => match s.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => Ok(x.to_bits()),
            _ => Err(format!("{name} takes a positive finite number, got `{s}`")),
        },
        ValueKind::Scheme => SchemeKind::ALL
            .iter()
            .position(|k| k.name() == s)
            .map(|i| i as u64)
            .ok_or_else(|| format!("unknown scheme `{s}`; valid schemes: {}", scheme_names())),
        ValueKind::Model => crate::custom::MODELS
            .iter()
            .position(|(model, _)| *model == s)
            .map(|i| i as u64)
            .ok_or_else(|| format!("unknown model `{s}`; valid models: {}", model_names())),
    }
}

/// Parses `args` against `spec`; the returned error is the exact
/// diagnostic to print before exiting 2. Value flags are resolved (and
/// their errors reported) before the unknown-flag sweep, so
/// `--gpus garbage --bogus` names the garbage value first — the more
/// actionable of the two problems.
pub fn parse<'a>(spec: &Spec, args: &'a [String]) -> Result<Parsed<'a>, String> {
    let mut values = Vec::with_capacity(spec.values.len());
    for vf @ &(name, kind) in spec.values {
        if args.iter().filter(|a| *a == name).count() > 1 {
            return Err(format!("{name} given more than once"));
        }
        let v = match args.iter().position(|a| a == name) {
            None => None,
            Some(i) => match (args.get(i + 1), kind) {
                (None, ValueKind::OptionalInt) => None,
                (None, ValueKind::Scheme) => {
                    return Err(format!(
                        "{name} requires a scheme name; one of {}",
                        scheme_names()
                    ));
                }
                (None, _) => {
                    return Err(format!(
                        "{name} requires a value; expected {}",
                        spec.expected
                    ));
                }
                (Some(s), _) => Some(parse_value(vf, s)?),
            },
        };
        values.push((name, v));
    }
    if let Some(bad) = args.iter().enumerate().find_map(|(i, a)| {
        let known =
            spec.bools.contains(&a.as_str()) || spec.values.iter().any(|&(name, _)| name == a);
        // A token right after a value flag is that flag's value when it
        // fits the flag's grammar.
        let is_value = i > 0
            && spec
                .values
                .iter()
                .any(|vf| vf.0 == args[i - 1] && parse_value(vf, a).is_ok());
        (!known && !is_value).then_some(a)
    }) {
        return Err(format!(
            "unknown {} flag `{bad}`; expected {}",
            spec.cmd, spec.expected
        ));
    }
    Ok(Parsed { args, values })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bools_and_values_round_trip() {
        let args = argv(&["--smoke", "--seed", "3"]);
        let p = parse(&FAULT_SWEEP, &args).expect("valid invocation");
        assert!(p.has("--smoke"));
        assert_eq!(p.value("--seed"), Some(3));
        let args = argv(&[]);
        let p = parse(&FAULT_SWEEP, &args).expect("empty is valid");
        assert!(!p.has("--smoke"));
        assert_eq!(p.value("--seed"), None);
    }

    #[test]
    fn bare_required_value_flag_is_an_error() {
        let args = argv(&["--gpus"]);
        let e = parse(&CUSTOM, &args).expect_err("bare --gpus");
        assert_eq!(
            e,
            format!("--gpus requires a value; expected {}", CUSTOM.expected)
        );
    }

    #[test]
    fn bare_optional_value_flag_falls_back() {
        let args = argv(&["--smoke", "--seed"]);
        let p = parse(&FAULT_SWEEP, &args).expect("bare --seed defaults");
        assert!(p.has("--smoke"));
        assert_eq!(p.value("--seed"), None);
    }

    #[test]
    fn malformed_values_are_errors_with_the_exact_message() {
        for bad in ["0", "-3", "four"] {
            let args = argv(&["--gpus", bad]);
            let e = parse(&CUSTOM, &args).expect_err("bad gpus value");
            assert_eq!(e, format!("--gpus takes a positive integer, got `{bad}`"));
        }
        let args = argv(&["--seed", "x"]);
        let e = parse(&FAULT_SWEEP, &args).expect_err("bad seed value");
        assert_eq!(e, "--seed takes an integer, got `x`");
    }

    #[test]
    fn unknown_flags_name_the_token_and_the_grammar() {
        let args = argv(&["--gird"]);
        let e = parse(&MEM_SMOKE, &args).expect_err("typo");
        assert_eq!(e, "unknown mem-smoke flag `--gird`; expected [--grid]");
        let args = argv(&["--seed", "2", "extra"]);
        let e = parse(&FAULT_SWEEP, &args).expect_err("stray operand");
        assert_eq!(
            e,
            "unknown fault-sweep flag `extra`; expected [--smoke] [--seed N]"
        );
    }

    #[test]
    fn scheme_flags_round_trip_every_valid_name() {
        for (i, k) in SchemeKind::ALL.iter().enumerate() {
            let args = argv(&["--scheme", k.name()]);
            for spec in [&EXEC_SMOKE, &CONFORMANCE, &CUSTOM] {
                let p = parse(spec, &args)
                    .unwrap_or_else(|e| panic!("{} --scheme {}: {e}", spec.cmd, k.name()));
                assert_eq!(p.scheme("--scheme"), Some(*k), "index {i}");
            }
        }
        let args = argv(&[]);
        let p = parse(&CONFORMANCE, &args).expect("empty is valid");
        assert_eq!(p.scheme("--scheme"), None);
    }

    #[test]
    fn unknown_scheme_names_list_the_valid_schemes() {
        // A misspelt scheme must never silently run the unfiltered (or
        // an empty) grid — the diagnostic lists every valid name.
        for bad in ["pipe-1f2b", "harmony", "PIPE-1F1B", ""] {
            let args = argv(&["--scheme", bad]);
            let e = parse(&CONFORMANCE, &args).expect_err("bad scheme name");
            assert_eq!(
                e,
                format!(
                    "unknown scheme `{bad}`; valid schemes: \
                     baseline-dp|baseline-pp|harmony-dp|harmony-pp|pipe-1f1b"
                )
            );
        }
        let args = argv(&["--scheme"]);
        let e = parse(&EXEC_SMOKE, &args).expect_err("bare --scheme");
        assert_eq!(
            e,
            "--scheme requires a scheme name; one of \
             baseline-dp|baseline-pp|harmony-dp|harmony-pp|pipe-1f1b"
        );
    }

    #[test]
    fn scheme_values_are_not_stray_operands() {
        // The unknown-flag sweep must not flag a scheme name that is the
        // value of the preceding `--scheme`.
        let args = argv(&["--grid", "--scheme", "pipe-1f1b"]);
        let p = parse(&EXEC_SMOKE, &args).expect("grid + scheme filter");
        assert!(p.has("--grid"));
        assert_eq!(p.scheme("--scheme"), Some(SchemeKind::Pipe1F1B));
        // ...but the same name anywhere else is still a stray operand.
        let args = argv(&["pipe-1f1b"]);
        let e = parse(&EXEC_SMOKE, &args).expect_err("stray scheme operand");
        assert!(e.contains("unknown exec-smoke flag `pipe-1f1b`"), "{e}");
    }

    #[test]
    fn repeated_value_flags_are_errors() {
        let args = argv(&["--mem-gib", "8", "--mem-gib"]);
        let e = parse(&CUSTOM, &args).expect_err("repeated flag");
        assert_eq!(e, "--mem-gib given more than once");
    }

    #[test]
    fn custom_values_parse_to_their_kinds() {
        let args = argv(&["--mem-gib", "8.5", "--model", "lenet", "--opt-slots", "0"]);
        let p = parse(&CUSTOM, &args).expect("valid invocation");
        assert_eq!(p.float("--mem-gib"), Some(8.5));
        assert_eq!(p.model("--model"), Some("lenet"));
        assert_eq!(p.value("--opt-slots"), Some(0));
        for bad in ["inf", "nan", "-3", "0", "x"] {
            let args = argv(&["--mem-gib", bad]);
            let e = parse(&CUSTOM, &args).expect_err("bad --mem-gib");
            assert_eq!(
                e,
                format!("--mem-gib takes a positive finite number, got `{bad}`")
            );
        }
        let args = argv(&["--model", "skynet"]);
        let e = parse(&CUSTOM, &args).expect_err("unknown model");
        assert!(
            e.starts_with("unknown model `skynet`; valid models: "),
            "{e}"
        );
    }

    #[test]
    fn value_errors_win_over_unknown_flag_errors() {
        let args = argv(&["--gpus", "--gantt"]);
        let e = parse(&CUSTOM, &args).expect_err("flag where value expected");
        assert_eq!(e, "--gpus takes a positive integer, got `--gantt`");
    }
}
