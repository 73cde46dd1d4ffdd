//! The `repro` command table and the strict flag parser every command
//! shares.
//!
//! [`COMMANDS`] lists every command `repro` knows: each figure and table
//! of the paper, `all`, the gates (`conformance`, `net-smoke`,
//! `fault-sweep --smoke`), `custom` and `help`. Each entry carries its
//! flag grammar ([`Spec`]) and a one-line summary, and [`usage`] is
//! generated from the table. The binary looks
//! a command up, parses its arguments with [`parse`], runs it and hands
//! the [`Outcome`] to [`deliver`]; nothing else reads argv.
//!
//! One table-driven parser instead of a hand-rolled loop per command, so
//! the strictness contract is uniform and cannot drift: unknown flags
//! and stray operands are usage errors (exit 2 in the binary), value
//! flags never silently fall back to a default when their value is
//! missing or malformed, and the diagnostic always names the offending
//! token plus the accepted grammar. Each test in `tests/cli.rs` pins a
//! bug that used to do exactly the silent thing.

use std::fmt::{Display, Write as _};
use std::io::{self, Write};

use harmony::simulate::SchemeKind;

use crate::figures::{
    dominance, eviction_ablation, fig1, fig2a, fig2b, fig2c, fig4, fig5a, fig5bc,
    prefetch_ablation, recompute_ablation, steady_state, table_a, tango,
};
use crate::{custom, fault_sweep, sweeps};

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
    /// no scheme in that list has is a usage error listing
    /// the valid schemes — a misspelt `--scheme` must never silently
    /// run the unfiltered (or an empty) grid.
    Scheme,
    /// A finite `f64 > 0` (`--mem-gib`); `inf`, `nan`, zero and negative
    /// values are usage errors, never a server with no usable memory.
    PositiveFloat,
    /// A model name from [`custom::MODELS`].
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
    custom::MODELS
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join("|")
}

/// One value-taking flag: its token (e.g. `--gpus`) and its
/// missing-value and parse discipline.
pub type ValueFlag = (&'static str, ValueKind);

/// The flag grammar of one command.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Command name, used in the unknown-flag diagnostic.
    pub cmd: &'static str,
    /// Grammar summary quoted in diagnostics and the usage text, e.g.
    /// `[--smoke] [--seed N]`; empty for a command that takes no
    /// arguments.
    pub expected: &'static str,
    /// The name of an optional leading integer operand (`conformance
    /// 7`), read back with [`Parsed::value`]; `None` when the command
    /// takes no operand.
    pub operand: Option<&'static str>,
    /// Presence-only flags.
    pub bools: &'static [&'static str],
    /// Value-taking flags.
    pub values: &'static [ValueFlag],
}

impl Spec {
    /// The grammar of a command that takes no arguments at all.
    const fn bare(cmd: &'static str) -> Spec {
        Spec {
            cmd,
            expected: "",
            operand: None,
            bools: &[],
            values: &[],
        }
    }
}

/// `repro conformance [seed] [--scheme NAME]`.
pub const CONFORMANCE: Spec = Spec {
    cmd: "conformance",
    expected: "[seed] [--scheme NAME]",
    operand: Some("seed"),
    bools: &[],
    values: &[("--scheme", ValueKind::Scheme)],
};

/// `repro net-smoke [--transfers N] [--waves N]`.
pub const NET_SMOKE: Spec = Spec {
    cmd: "net-smoke",
    expected: "[--transfers N] [--waves N]",
    operand: None,
    bools: &[],
    values: &[
        ("--transfers", ValueKind::PositiveInt),
        ("--waves", ValueKind::PositiveInt),
    ],
};

/// `repro fault-sweep [--smoke] [--seed N]`.
pub const FAULT_SWEEP: Spec = Spec {
    cmd: "fault-sweep",
    expected: "[--smoke] [--seed N]",
    operand: None,
    bools: &["--smoke"],
    values: &[("--seed", ValueKind::OptionalInt)],
};

/// `repro custom [--model NAME] [--scheme NAME] [--gpus N] ...`;
/// `--help` (or `-h`) prints [`custom::usage`] instead of running.
pub const CUSTOM: Spec = Spec {
    cmd: "custom",
    expected: "[--model NAME] [--scheme NAME] [--gpus N] [--mem-gib G] [--microbatches M] \
               [--ubatch U] [--pack P] [--group G] [--opt-slots S] [--recompute] [--prefetch] \
               [--iterations K] [--gantt]",
    operand: None,
    bools: &["--recompute", "--prefetch", "--gantt", "--help", "-h"],
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
    /// (Stored as its index into [`custom::MODELS`] by `parse`.)
    pub fn model(&self, name: &str) -> Option<&'static str> {
        self.value(name).map(|i| custom::MODELS[i as usize].0)
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
        ValueKind::Model => custom::MODELS
            .iter()
            .position(|(model, _)| *model == s)
            .map(|i| i as u64)
            .ok_or_else(|| format!("unknown model `{s}`; valid models: {}", model_names())),
    }
}

/// Parses `args` against `spec`; the returned error is the exact
/// diagnostic to print before exiting 2. A leading token that is not a
/// `--` flag is the spec's operand, when it has one. Value flags are
/// resolved (and their errors reported) before the unknown-flag sweep,
/// so `--gpus garbage --bogus` names the garbage value first — the more
/// actionable of the two problems.
pub fn parse<'a>(spec: &Spec, args: &'a [String]) -> Result<Parsed<'a>, String> {
    let mut values = Vec::with_capacity(spec.values.len() + 1);
    let args = match (spec.operand, args.split_first()) {
        (Some(name), Some((first, rest))) if !first.starts_with("--") => {
            let v = first
                .parse::<u64>()
                .map_err(|_| format!("{} {name} must be an integer, got `{first}`", spec.cmd))?;
            values.push((name, Some(v)));
            rest
        }
        _ => args,
    };
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
        let expected = if spec.expected.is_empty() {
            "no arguments"
        } else {
            spec.expected
        };
        return Err(format!(
            "unknown {} flag `{bad}`; expected {expected}",
            spec.cmd
        ));
    }
    Ok(Parsed { args, values })
}

/// What one command prints and how it exits. A command builds its whole
/// outcome, verdict included, before anything is printed, so a reader
/// that goes away early cannot change the exit status.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Everything the command writes to stdout.
    pub stdout: String,
    /// Diagnostics for stderr, written after stdout.
    pub stderr: String,
    /// The exit status: 0 on success, 1 on a failing gate, 2 on a usage
    /// error.
    pub status: i32,
}

impl Outcome {
    /// A successful outcome that prints `text` and a newline.
    pub fn print(text: impl Display) -> Outcome {
        let mut out = Outcome::default();
        out.line(text);
        out
    }

    /// A usage error: prints `diagnostic` to stderr and exits 2.
    pub fn usage_error(diagnostic: impl Display) -> Outcome {
        Outcome {
            stderr: format!("{diagnostic}\n"),
            status: 2,
            ..Outcome::default()
        }
    }

    /// Appends `text` and a newline to stdout.
    pub fn line(&mut self, text: impl Display) {
        writeln!(self.stdout, "{text}").expect("writing to a String cannot fail");
    }

    /// Records a failing gate: `diagnostic` goes to stderr and the exit
    /// status becomes 1.
    pub fn fail(&mut self, diagnostic: impl Display) {
        writeln!(self.stderr, "{diagnostic}").expect("writing to a String cannot fail");
        self.status = 1;
    }
}

/// Writes `outcome` — stdout first, then its diagnostics to stderr — and
/// returns the exit status. A stdout reader that has gone away (`repro
/// all | head -1`) is not an error: the rest of stdout is dropped and
/// the status stays the command's verdict, so a failing gate still exits
/// 1. Any other stdout failure is reported and exits at least 1.
pub fn deliver(outcome: &Outcome, stdout: &mut impl Write, stderr: &mut impl Write) -> i32 {
    let mut status = outcome.status;
    let written = stdout
        .write_all(outcome.stdout.as_bytes())
        .and_then(|()| stdout.flush());
    if let Err(e) = written {
        if e.kind() != io::ErrorKind::BrokenPipe {
            let _ = writeln!(stderr, "repro: cannot write to stdout: {e}");
            status = status.max(1);
        }
    }
    let _ = stderr.write_all(outcome.stderr.as_bytes());
    status
}

/// How a command produces its outcome.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// A figure or table of the paper: takes no arguments; its text is
    /// the whole output. `all` prints every one, in table order.
    Artefact(fn() -> String),
    /// A gate, sweep or tool: reads its parsed flags and decides its own
    /// outcome.
    Tool(fn(&Parsed) -> Outcome),
}

/// One `repro` command: its grammar, a one-line summary for the usage
/// text, and what it does.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// Name (`spec.cmd`) and flag grammar.
    pub spec: Spec,
    /// One line for [`usage`].
    pub summary: &'static str,
    /// What the command runs.
    pub action: Action,
}

impl Command {
    /// Runs the command on arguments already parsed against its
    /// [`Spec`].
    pub fn run(&self, flags: &Parsed) -> Outcome {
        match self.action {
            Action::Artefact(text) => Outcome::print(text()),
            Action::Tool(run) => run(flags),
        }
    }
}

/// A figure or table command.
const fn artefact(cmd: &'static str, summary: &'static str, text: fn() -> String) -> Command {
    Command {
        spec: Spec::bare(cmd),
        summary,
        action: Action::Artefact(text),
    }
}

/// A gate, sweep or tool command.
const fn tool(spec: Spec, summary: &'static str, run: fn(&Parsed) -> Outcome) -> Command {
    Command {
        spec,
        summary,
        action: Action::Tool(run),
    }
}

/// Every command `repro` knows, in usage order. `all` runs every
/// [`Action::Artefact`] in this order.
pub const COMMANDS: &[Command] = &[
    artefact("fig1", "Fig 1: model growth, LeNet to GPT-3", fig1),
    artefact("fig2a", "Fig 2(a): DP throughput vs swap", || fig2a().0),
    artefact("fig2b", "Fig 2(b): the oversubscribed PCIe topology", fig2b),
    artefact("fig2c", "Fig 2(c): PP per-stage imbalance", || fig2c().0),
    artefact("fig4", "Fig 4: the Harmony-PP grouped schedule", fig4),
    artefact("fig5a", "Fig 5(a): per-phase swap sets", fig5a),
    artefact("fig5bc", "Fig 5(b,c): weight swap timelines", fig5bc),
    artefact("table_a", "§3 swap volumes vs simulator", || table_a().0),
    artefact("dominance", "§3 Harmony-PP dominates", || dominance().0),
    artefact("tango", "§4 memory-performance tango", || tango().0),
    artefact("prefetch", "§4 double buffering", || prefetch_ablation().0),
    artefact("recompute", "§4 checkpointing", || recompute_ablation().0),
    artefact("eviction", "§1 eviction policy", eviction_ablation),
    artefact("steady", "steady-state swap volumes", || steady_state().0),
    tool(Spec::bare("all"), "every artefact above (default)", |_| {
        let mut out = Outcome::default();
        for c in COMMANDS {
            if let Action::Artefact(text) = c.action {
                out.line(text());
            }
        }
        out
    }),
    tool(CONFORMANCE, "oracle pass/fail matrix (gate)", |flags| {
        let seed = flags.value("seed").unwrap_or(0);
        let report = harmony_harness::run_conformance_filtered(seed, flags.scheme("--scheme"));
        let mut out = Outcome::print(report.render());
        if !report.all_passed() {
            out.status = 1;
        }
        out
    }),
    tool(NET_SMOKE, "network hot path structural gate", |flags| {
        let count = |name, default| flags.value(name).map_or(default, |v| v as usize);
        sweeps::net_smoke(count("--transfers", 256), count("--waves", 8))
    }),
    tool(FAULT_SWEEP, "throughput under seeded faults", |flags| {
        // Seed 3's plan exercises the whole layer on the reference
        // cell: link slowdowns, a biting squeeze (spill → retries →
        // overcommit) and a smooth degradation curve.
        let report = fault_sweep::run(flags.value("--seed").unwrap_or(3));
        let mut out = Outcome::print(report.render());
        if let Some(msg) = report.smoke_failure().filter(|_| flags.has("--smoke")) {
            out.fail(msg);
        }
        out
    }),
    tool(CUSTOM, "any model x scheme x server (--help)", |flags| {
        if flags.has("--help") || flags.has("-h") {
            return Outcome::print(custom::usage());
        }
        match custom::CustomArgs::from_flags(flags).and_then(|a| custom::run(&a)) {
            Ok(report) => Outcome::print(report),
            Err(e) => Outcome::usage_error(e),
        }
    }),
    tool(Spec::bare("help"), "this text (also --help, -h)", |_| {
        Outcome::print(usage())
    }),
];

/// The command named `name`; `--help` and `-h` name `help`.
pub fn lookup(name: &str) -> Option<&'static Command> {
    let name = if name == "--help" || name == "-h" {
        "help"
    } else {
        name
    };
    COMMANDS.iter().find(|c| c.spec.cmd == name)
}

/// The usage text, one entry per [`COMMANDS`] entry: printed by `repro
/// help` and after an unknown command.
pub fn usage() -> String {
    let mut text = String::from(
        "repro — regenerate the paper's figures, tables and gates\n\n\
         usage: repro [command] [arguments]\n",
    );
    for c in COMMANDS {
        let head = format!("{} {}", c.spec.cmd, c.spec.expected);
        let head = head.trim_end();
        if head.len() < 32 {
            write!(text, "\n  {head:<32} {}", c.summary)
        } else {
            write!(text, "\n  {head}\n  {:<32} {}", "", c.summary)
        }
        .expect("writing to a String cannot fail");
    }
    text
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
        let args = argv(&["--smoek"]);
        let e = parse(&FAULT_SWEEP, &args).expect_err("typo");
        assert_eq!(
            e,
            "unknown fault-sweep flag `--smoek`; expected [--smoke] [--seed N]"
        );
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
            for spec in [&CONFORMANCE, &CUSTOM] {
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
        for spec in [&CONFORMANCE, &CUSTOM] {
            let e = parse(spec, &args).expect_err("bare --scheme");
            assert_eq!(
                e,
                "--scheme requires a scheme name; one of \
                 baseline-dp|baseline-pp|harmony-dp|harmony-pp|pipe-1f1b"
            );
        }
    }

    #[test]
    fn scheme_values_are_not_stray_operands() {
        // The unknown-flag sweep must not flag a scheme name that is the
        // value of the preceding `--scheme`.
        let args = argv(&["--gantt", "--scheme", "pipe-1f1b"]);
        let p = parse(&CUSTOM, &args).expect("gantt + scheme");
        assert!(p.has("--gantt"));
        assert_eq!(p.scheme("--scheme"), Some(SchemeKind::Pipe1F1B));
        // ...but the same name anywhere else is still a stray operand.
        let args = argv(&["pipe-1f1b"]);
        let e = parse(&CUSTOM, &args).expect_err("stray scheme operand");
        assert!(e.contains("unknown custom flag `pipe-1f1b`"), "{e}");
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

    /// A stdout whose reader has gone away.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn a_closed_stdout_keeps_the_verdict() {
        // A gate that fails must exit 1 even when nobody reads its report,
        // and its diagnostic still reaches stderr.
        let mut failing = Outcome::print("report");
        failing.fail("gate FAILED");
        for (outcome, want) in [(Outcome::print("report"), 0), (failing, 1)] {
            let mut stderr = Vec::new();
            assert_eq!(deliver(&outcome, &mut ClosedPipe, &mut stderr), want);
            assert_eq!(stderr, outcome.stderr.as_bytes());
        }
        let mut stdout = Vec::new();
        let outcome = Outcome::print("report");
        assert_eq!(deliver(&outcome, &mut stdout, &mut Vec::new()), 0);
        assert_eq!(stdout, b"report\n");
    }

    #[test]
    fn the_conformance_seed_parses_through_the_grammar() {
        let args = argv(&["7", "--scheme", "pipe-1f1b"]);
        let p = parse(&CONFORMANCE, &args).expect("seed and scheme");
        assert_eq!(p.value("seed"), Some(7));
        assert_eq!(p.scheme("--scheme"), Some(SchemeKind::Pipe1F1B));
        let args = argv(&["--scheme", "pipe-1f1b", "7"]);
        let e = parse(&CONFORMANCE, &args).expect_err("the seed leads");
        assert_eq!(
            e,
            "unknown conformance flag `7`; expected [seed] [--scheme NAME]"
        );
        let args = argv(&["7"]);
        let e = parse(&FAULT_SWEEP, &args).expect_err("no operand");
        assert_eq!(
            e,
            "unknown fault-sweep flag `7`; expected [--smoke] [--seed N]"
        );
    }

    #[test]
    fn value_errors_win_over_unknown_flag_errors() {
        let args = argv(&["--gpus", "--gantt"]);
        let e = parse(&CUSTOM, &args).expect_err("flag where value expected");
        assert_eq!(e, "--gpus takes a positive integer, got `--gantt`");
    }
}
