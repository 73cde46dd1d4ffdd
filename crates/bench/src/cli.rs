//! Strict flag parsing shared by the `repro` gates (`bench`,
//! `exec-smoke`, `mem-smoke`, `fault-sweep`).
//!
//! One table-driven parser instead of four hand-rolled loops, so the
//! strictness contract is uniform and cannot drift per subcommand:
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
    /// (`--workers` must never quietly mean "the default pool").
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

/// One value-taking flag.
#[derive(Debug, Clone, Copy)]
pub struct ValueFlag {
    /// Flag token, e.g. `--workers`.
    pub name: &'static str,
    /// Missing-value and parse discipline.
    pub kind: ValueKind,
}

/// The flag grammar of one subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Subcommand name, used in the unknown-flag diagnostic.
    pub cmd: &'static str,
    /// Grammar summary quoted in diagnostics, e.g.
    /// `[--json] [--workers N]`.
    pub expected: &'static str,
    /// Presence-only flags.
    pub bools: &'static [&'static str],
    /// Value-taking flags.
    pub values: &'static [ValueFlag],
}

/// `repro bench [--json] [--workers N] [--scheme NAME]`.
pub const BENCH: Spec = Spec {
    cmd: "bench",
    expected: "[--json] [--workers N] [--scheme NAME]",
    bools: &["--json"],
    values: &[
        ValueFlag {
            name: "--workers",
            kind: ValueKind::PositiveInt,
        },
        ValueFlag {
            name: "--scheme",
            kind: ValueKind::Scheme,
        },
    ],
};

/// `repro conformance [seed] [--scheme NAME]` — the positional seed is
/// stripped by the binary before flag parsing (back-compat with
/// `conformance 7`).
pub const CONFORMANCE: Spec = Spec {
    cmd: "conformance",
    expected: "[seed] [--scheme NAME]",
    bools: &[],
    values: &[ValueFlag {
        name: "--scheme",
        kind: ValueKind::Scheme,
    }],
};

/// `repro sweep-smoke [--cells N]`.
pub const SWEEP_SMOKE: Spec = Spec {
    cmd: "sweep-smoke",
    expected: "[--cells N]",
    bools: &[],
    values: &[ValueFlag {
        name: "--cells",
        kind: ValueKind::PositiveInt,
    }],
};

/// `repro exec-smoke [--grid] [--scheme NAME]`.
pub const EXEC_SMOKE: Spec = Spec {
    cmd: "exec-smoke",
    expected: "[--grid] [--scheme NAME]",
    bools: &["--grid"],
    values: &[ValueFlag {
        name: "--scheme",
        kind: ValueKind::Scheme,
    }],
};

/// `repro mem-smoke [--grid]`.
pub const MEM_SMOKE: Spec = Spec {
    cmd: "mem-smoke",
    expected: "[--grid]",
    bools: &["--grid"],
    values: &[],
};

/// `repro fault-sweep [--smoke] [--json] [--seed N]`.
pub const FAULT_SWEEP: Spec = Spec {
    cmd: "fault-sweep",
    expected: "[--smoke] [--json] [--seed N]",
    bools: &["--smoke", "--json"],
    values: &[ValueFlag {
        name: "--seed",
        kind: ValueKind::OptionalInt,
    }],
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
}

/// Parses `args` against `spec`; the returned error is the exact
/// diagnostic to print before exiting 2. Value flags are resolved (and
/// their errors reported) before the unknown-flag sweep, so
/// `--workers garbage --bogus` names the garbage value first — the more
/// actionable of the two problems.
pub fn parse<'a>(spec: &Spec, args: &'a [String]) -> Result<Parsed<'a>, String> {
    let mut values = Vec::with_capacity(spec.values.len());
    for vf in spec.values {
        let v = match args.iter().position(|a| a == vf.name) {
            None => None,
            Some(i) => match args.get(i + 1) {
                None => match vf.kind {
                    ValueKind::PositiveInt => {
                        return Err(format!(
                            "{} requires a value; expected {}",
                            vf.name, spec.expected
                        ));
                    }
                    ValueKind::Scheme => {
                        return Err(format!(
                            "{} requires a scheme name; one of {}",
                            vf.name,
                            scheme_names()
                        ));
                    }
                    ValueKind::OptionalInt => None,
                },
                Some(s) => match vf.kind {
                    ValueKind::PositiveInt => match s.parse::<u64>() {
                        Ok(n) if n >= 1 => Some(n),
                        _ => {
                            return Err(format!("{} takes a positive integer, got `{s}`", vf.name));
                        }
                    },
                    ValueKind::OptionalInt => match s.parse::<u64>() {
                        Ok(n) => Some(n),
                        Err(_) => {
                            return Err(format!("{} takes an integer, got `{s}`", vf.name));
                        }
                    },
                    ValueKind::Scheme => match SchemeKind::from_name(s) {
                        Some(k) => {
                            let ix = SchemeKind::ALL.iter().position(|&a| a == k);
                            Some(ix.expect("ALL contains every SchemeKind") as u64)
                        }
                        None => {
                            return Err(format!(
                                "unknown scheme `{s}`; valid schemes: {}",
                                scheme_names()
                            ));
                        }
                    },
                },
            },
        };
        values.push((vf.name, v));
    }
    if let Some(bad) = args.iter().enumerate().find_map(|(i, a)| {
        let known = spec.bools.contains(&a.as_str()) || spec.values.iter().any(|vf| vf.name == a);
        // A token right after a value flag is that flag's value when it
        // fits the flag's grammar — integers, or (for `--scheme`) any
        // valid scheme name: an invalid one already errored above.
        let is_value = i > 0
            && spec.values.iter().any(|vf| {
                vf.name == args[i - 1] && (a.parse::<u64>().is_ok() || vf.kind == ValueKind::Scheme)
            });
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
        let args = argv(&["--json", "--workers", "3"]);
        let p = parse(&BENCH, &args).expect("valid invocation");
        assert!(p.has("--json"));
        assert_eq!(p.value("--workers"), Some(3));
        let args = argv(&[]);
        let p = parse(&BENCH, &args).expect("empty is valid");
        assert!(!p.has("--json"));
        assert_eq!(p.value("--workers"), None);
    }

    #[test]
    fn bare_required_value_flag_is_an_error() {
        let args = argv(&["--workers"]);
        let e = parse(&BENCH, &args).expect_err("bare --workers");
        assert_eq!(
            e,
            "--workers requires a value; expected [--json] [--workers N] [--scheme NAME]"
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
            let args = argv(&["--workers", bad]);
            let e = parse(&BENCH, &args).expect_err("bad workers value");
            assert_eq!(
                e,
                format!("--workers takes a positive integer, got `{bad}`")
            );
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
        let args = argv(&["--workers", "2", "extra"]);
        let e = parse(&BENCH, &args).expect_err("stray operand");
        assert_eq!(
            e,
            "unknown bench flag `extra`; expected [--json] [--workers N] [--scheme NAME]"
        );
    }

    #[test]
    fn sweep_smoke_grammar_is_strict() {
        let args = argv(&["--cells", "32"]);
        let p = parse(&SWEEP_SMOKE, &args).expect("valid invocation");
        assert_eq!(p.value("--cells"), Some(32));
        let args = argv(&["--cells"]);
        let e = parse(&SWEEP_SMOKE, &args).expect_err("bare --cells");
        assert_eq!(e, "--cells requires a value; expected [--cells N]");
        let args = argv(&["--cels", "32"]);
        let e = parse(&SWEEP_SMOKE, &args).expect_err("typo");
        assert_eq!(e, "unknown sweep-smoke flag `--cels`; expected [--cells N]");
    }

    #[test]
    fn scheme_flags_round_trip_every_valid_name() {
        for (i, k) in SchemeKind::ALL.iter().enumerate() {
            let args = argv(&["--scheme", k.name()]);
            for spec in [&BENCH, &EXEC_SMOKE, &CONFORMANCE] {
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
    fn value_errors_win_over_unknown_flag_errors() {
        let args = argv(&["--workers", "--json"]);
        let e = parse(&BENCH, &args).expect_err("flag where value expected");
        assert_eq!(e, "--workers takes a positive integer, got `--json`");
    }
}
