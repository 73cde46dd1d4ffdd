//! CLI strictness of the `repro` binary: malformed invocations must
//! fail loudly (exit 2 with a diagnostic), never silently fall back to
//! a default. Each test here pins a bug that used to do exactly that —
//! `exec-smoke` ignored everything but `nth(2) == "--grid"`, and
//! `bench --workers` with a missing value quietly ran at the default
//! pool size.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary must spawn")
}

fn assert_usage_error(out: &Output, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: expected exit 2, got {:?} (stderr: {stderr})",
        out.status.code()
    );
    assert!(
        stderr.contains(needle),
        "{what}: stderr must name the problem (`{needle}`), got: {stderr}"
    );
}

#[test]
fn exec_smoke_rejects_unknown_flags() {
    // A typo like `--gird` must not silently time the single-cell
    // variant as if no flag had been passed.
    let out = repro(&["exec-smoke", "--gird"]);
    assert_usage_error(&out, "--gird", "exec-smoke --gird");
    let out = repro(&["exec-smoke", "extra"]);
    assert_usage_error(&out, "extra", "exec-smoke extra");
}

#[test]
fn mem_smoke_rejects_unknown_flags() {
    // Same contract as exec-smoke: a typo must not silently time the
    // single-cell variant.
    let out = repro(&["mem-smoke", "--gird"]);
    assert_usage_error(&out, "--gird", "mem-smoke --gird");
    let out = repro(&["mem-smoke", "extra"]);
    assert_usage_error(&out, "extra", "mem-smoke extra");
}

#[test]
fn sweep_smoke_rejects_unknown_flags_and_bare_cells() {
    // Same contract as the other smokes: a typo must not silently run
    // the default cell count, and a bare `--cells` must not either.
    let out = repro(&["sweep-smoke", "--cels", "32"]);
    assert_usage_error(&out, "--cels", "sweep-smoke --cels");
    let out = repro(&["sweep-smoke", "--cells"]);
    assert_usage_error(&out, "--cells requires a value", "sweep-smoke --cells");
    let out = repro(&["sweep-smoke", "--cells", "0"]);
    assert_usage_error(&out, "positive integer", "sweep-smoke --cells 0");
}

#[test]
fn fault_sweep_rejects_garbage_seed_and_unknown_flags() {
    let out = repro(&["fault-sweep", "--seed", "x"]);
    assert_usage_error(&out, "--seed takes an integer", "fault-sweep --seed x");
    let out = repro(&["fault-sweep", "--smoek"]);
    assert_usage_error(&out, "--smoek", "fault-sweep --smoek");
}

#[test]
fn bench_workers_requires_a_value() {
    // A bare trailing `--workers` used to fall back to the default pool
    // size; it must be a usage error instead.
    let out = repro(&["bench", "--workers"]);
    assert_usage_error(&out, "--workers requires a value", "bench --workers");
}

#[test]
fn bench_workers_rejects_non_positive_and_garbage_values() {
    for bad in ["0", "-3", "four"] {
        let out = repro(&["bench", "--workers", bad]);
        assert_usage_error(&out, "positive integer", &format!("bench --workers {bad}"));
    }
}

#[test]
fn bench_rejects_unknown_flags() {
    let out = repro(&["bench", "--jsno"]);
    assert_usage_error(&out, "--jsno", "bench --jsno");
}

#[test]
fn scheme_filters_reject_unknown_and_bare_names() {
    // A misspelt or unknown scheme name must exit 2 listing the valid
    // schemes — never panic, and never silently run the unfiltered (or
    // an empty) grid.
    for cmd in ["conformance", "bench", "exec-smoke"] {
        let out = repro(&[cmd, "--scheme", "pipe-1f2b"]);
        assert_usage_error(
            &out,
            "unknown scheme `pipe-1f2b`",
            &format!("{cmd} --scheme pipe-1f2b"),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("baseline-dp|baseline-pp|harmony-dp|harmony-pp|pipe-1f1b"),
            "{cmd}: diagnostic must list the valid schemes, got: {stderr}"
        );
        let out = repro(&[cmd, "--scheme"]);
        assert_usage_error(
            &out,
            "--scheme requires a scheme name",
            &format!("bare {cmd} --scheme"),
        );
    }
}

#[test]
fn conformance_keeps_positional_seed_and_rejects_garbage() {
    // `conformance 7 --scheme ...` still accepts the positional seed;
    // a non-integer seed stays a usage error.
    let out = repro(&["conformance", "x7"]);
    assert_usage_error(
        &out,
        "conformance seed must be an integer",
        "conformance x7",
    );
    let out = repro(&["conformance", "7", "--schem", "pipe-1f1b"]);
    assert_usage_error(&out, "--schem", "conformance --schem typo");
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = repro(&["frobnicate"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("frobnicate") && stderr.contains("usage:"));
}

#[test]
fn custom_accepts_every_shared_scheme_name() {
    // `custom` parses `--scheme` through the same name table as the grid
    // filters, so the newest scheme is reachable from the command line.
    let out = repro(&[
        "custom",
        "--model",
        "lenet",
        "--scheme",
        "pipe-1f1b",
        "--gpus",
        "2",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("pipe-1f1b"));
}

#[test]
fn custom_rejects_group_zero() {
    // A zero group size is a usage error, never a silent clamp to 1.
    let out = repro(&["custom", "--group", "0"]);
    assert_usage_error(&out, "--group", "custom --group 0");
}

#[test]
fn custom_help_prints_usage_and_exits_0() {
    let out = repro(&["custom", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro custom"), "{stdout}");
    assert!(stdout.contains("pipe-1f1b"), "{stdout}");
}
