//! CLI strictness of the `repro` binary: malformed invocations must
//! fail loudly (exit 2 with a diagnostic), never silently fall back to
//! a default. Each test here pins a bug that used to do exactly that —
//! a smoke once ignored everything but `nth(2) == "--grid"`, and a bare
//! `--cells` quietly ran at the default cell count.

use std::process::{Command, Output, Stdio};

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
fn fault_sweep_rejects_garbage_seed_and_unknown_flags() {
    // A typo like `--smoek` must not silently run the sweep as if no
    // flag had been passed.
    let out = repro(&["fault-sweep", "--seed", "x"]);
    assert_usage_error(&out, "--seed takes an integer", "fault-sweep --seed x");
    let out = repro(&["fault-sweep", "--smoek"]);
    assert_usage_error(&out, "--smoek", "fault-sweep --smoek");
    let out = repro(&["fault-sweep", "extra"]);
    assert_usage_error(&out, "extra", "fault-sweep extra");
}

#[test]
fn removed_bench_and_fault_sweep_json_exit_2() {
    // The `bench` subcommand and `fault-sweep --json` wrote perf records
    // nothing read; e2ebench is the perf record. `sweep-smoke` timed a
    // cross-run executor pool that no longer exists. `exec-smoke` and
    // `mem-smoke` compared wall clocks against the dense references;
    // exact work ceilings (harness tests/work_ceilings.rs) replace them.
    // `net-smoke` and `fault-sweep --smoke` became exact tests (the
    // simulator's tests/net_work_ceilings.rs and the fault-sweep unit
    // tests). All are usage errors now, never a silent run of something
    // else.
    for cmd in [
        "bench",
        "sweep-smoke",
        "exec-smoke",
        "mem-smoke",
        "net-smoke",
    ] {
        let out = repro(&[cmd]);
        assert_usage_error(&out, &format!("unknown artefact `{cmd}`"), cmd);
        let out = repro(&[cmd, "--grid"]);
        assert_usage_error(&out, &format!("unknown artefact `{cmd}`"), cmd);
    }
    let args = ["net-smoke", "--transfers", "4096", "--waves", "1"];
    let out = repro(&args);
    assert_usage_error(&out, "unknown artefact `net-smoke`", &args.join(" "));
    for flag in ["--json", "--smoke"] {
        let out = repro(&["fault-sweep", flag]);
        assert_usage_error(
            &out,
            &format!("unknown fault-sweep flag `{flag}`"),
            &format!("fault-sweep {flag}"),
        );
    }
}

#[test]
fn scheme_filters_reject_unknown_and_bare_names() {
    // A misspelt or unknown scheme name must exit 2 listing the valid
    // schemes — never panic, and never silently run the unfiltered (or
    // an empty) grid.
    for cmd in ["conformance", "custom"] {
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
fn every_command_rejects_stray_flags_and_operands() {
    // Every command of the table, figures and `all` included, must exit
    // 2 naming a stray token rather than run as if it were absent; the
    // generated usage text lists every command.
    let usage = String::from_utf8_lossy(&repro(&["help"]).stdout).into_owned();
    for cmd in harmony_bench::cli::COMMANDS {
        let name = cmd.spec.cmd;
        for stray in ["--bogus", "stray"] {
            let out = repro(&[name, stray]);
            assert_usage_error(&out, &format!("`{stray}`"), &format!("{name} {stray}"));
        }
        assert!(
            usage.contains(&format!("\n  {name} ")),
            "usage must list {name}: {usage}"
        );
    }
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
fn custom_rejects_a_group_the_scheme_ignores_or_clamps() {
    // Each of these used to run: three schemes ignore `--group`, and the
    // Harmony planners clamp it to the microbatches they group (m for
    // harmony-dp, m·N for harmony-pp). Each must be a usage error that
    // names `--group`.
    for args in [
        "--scheme baseline-dp --group 7",
        "--scheme baseline-pp --group 2",
        "--scheme pipe-1f1b --group 2",
        "--scheme harmony-dp --microbatches 4 --group 5",
        "--group 1000",
        "--gpus 4 --microbatches 4 --group 17",
    ] {
        let mut argv = vec!["custom", "--model", "lenet"];
        argv.extend(args.split_whitespace());
        let out = repro(&argv);
        assert_usage_error(&out, "--group", &format!("custom {args}"));
    }
    // The largest group harmony-pp fills: m·N = 4 × 4.
    let args = "custom --model lenet --gpus 4 --microbatches 4 --group 16";
    let out = repro(&args.split_whitespace().collect::<Vec<_>>());
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn custom_rejects_non_finite_and_non_positive_values() {
    // Each of these used to run (`--mem-gib inf`), fail later with an
    // unrelated capacity error (`nan`, `-3`), or surface as a topology
    // or plan error (the zero counts). Each must be a usage error that
    // names its flag.
    for (flag, value) in [
        ("--mem-gib", "inf"),
        ("--mem-gib", "nan"),
        ("--mem-gib", "-3"),
        ("--gpus", "0"),
        ("--microbatches", "0"),
        ("--ubatch", "0"),
        ("--pack", "0"),
        ("--iterations", "0"),
    ] {
        let out = repro(&["custom", flag, value]);
        assert_usage_error(&out, flag, &format!("custom {flag} {value}"));
    }
}

#[test]
fn custom_rejects_mem_gib_without_a_u64_byte_count() {
    // `1e30` GiB used to saturate to a `u64::MAX`-byte GPU and exit 0;
    // `1e-12` GiB truncated to a 0-byte GPU and failed later with
    // "capacity is 0 B". Both are usage errors naming the flag.
    for (value, needle) in [("1e30", "exceeds"), ("1e-12", "rounds to 0 B")] {
        let out = repro(&["custom", "--model", "lenet", "--mem-gib", value]);
        let what = format!("custom --mem-gib {value}");
        assert_usage_error(&out, "--mem-gib", &what);
        assert_usage_error(&out, needle, &what);
    }
}

#[test]
fn custom_rejects_a_pack_above_the_layer_count() {
    // lenet has 7 layers: `--pack 1000` used to exit 0 echoing
    // `pack=1000` while the planner built one 7-layer pack.
    let out = repro(&["custom", "--model", "lenet", "--pack", "1000"]);
    assert_usage_error(&out, "lenet's 7 layers", "custom --model lenet --pack 1000");
    let out = repro(&["custom", "--model", "lenet", "--pack", "7"]);
    assert_eq!(out.status.code(), Some(0), "custom --model lenet --pack 7");
}

#[test]
fn custom_prefetch_names_the_run_plus_prefetch() {
    // The summary line and the Gantt header both carry the plan name,
    // which a prefetch run must mark.
    let out = repro(&[
        "custom",
        "--model",
        "lenet",
        "--scheme",
        "harmony-pp",
        "--gpus",
        "2",
        "--prefetch",
        "--gantt",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let named = stdout
        .lines()
        .filter(|l| l.starts_with("harmony-pp(") && l.contains("+prefetch"))
        .count();
    assert_eq!(
        named, 2,
        "summary and Gantt lines must name +prefetch: {stdout}"
    );
}

#[test]
fn custom_help_prints_usage_and_exits_0() {
    let out = repro(&["custom", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro custom"), "{stdout}");
    assert!(stdout.contains("pipe-1f1b"), "{stdout}");
}

#[test]
fn custom_capacity_error_names_the_pinned_bytes() {
    // A pack of all 98 of bert_xxl's layers puts every layer's working
    // set in one step: the run cannot fit, and the error must say that
    // the device is held by the step's own pins, not merely that it is
    // too small.
    let out = repro(&["custom", "--pack", "98"]);
    assert_usage_error(&out, "even after eviction", "custom --pack 98");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let pinned = stderr
        .split(", ")
        .find_map(|part| part.strip_suffix(" B of it pinned by the step in progress\n"))
        .and_then(|n| n.parse::<u64>().ok());
    assert!(
        pinned.is_some_and(|b| b > 0),
        "the error must give the pinned bytes, got: {stderr}"
    );
}

#[test]
fn custom_rejects_a_task_graph_beyond_its_arena_offsets() {
    // 4 × 10^8 pipeline microbatches of lenet's 7 layers need more task
    // list entries than the graph's `u32` arena offsets address. That is
    // a typed error on any host, not an abort on a ~800 GB reservation.
    let out = repro(&["custom", "--microbatches", "100000000", "--model", "lenet"]);
    assert_usage_error(
        &out,
        "task graph too large",
        "custom --microbatches 100000000",
    );
}

#[test]
fn custom_refuses_an_executor_beyond_the_address_space_limit() {
    // gpt_10b on 8,192 GPUs plans within a 2 GB address space, but its
    // executor does not fit: every plan-sized plane, the fetch-target
    // arena included, is reserved fallibly, so the run is refused with a
    // typed error instead of aborting mid-build (it used to abort while
    // growing the fetch-target arena). Without `--gantt` the run records
    // no trace, so its executor at 4,096 GPUs, which reserves no span
    // plane, fits and runs.
    for scheme in ["harmony-pp", "baseline-pp", "pipe-1f1b"] {
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -v 2000000; exec \"$0\" custom --model gpt_10b --gpus 8192 --scheme {scheme}"
            ))
            .arg(env!("CARGO_BIN_EXE_repro"))
            .output()
            .expect("sh must spawn");
        assert_usage_error(
            &out,
            "too large",
            &format!("custom --model gpt_10b --gpus 8192 --scheme {scheme} under ulimit -v"),
        );
    }
}

#[test]
fn custom_rejects_sizes_that_overflow_64_bits() {
    // Both microbatch sizes wrap lenet's `u64` byte sizes. The first
    // used to exit 0 with 0.00 samples/s and nothing swapped; the second
    // reported a capacity shortfall of the wrapped byte count. Both are
    // typed errors before any planner runs.
    for ubatch in ["9223372036854775808", "10000000000000000"] {
        let out = repro(&["custom", "--model", "lenet", "--ubatch", ubatch]);
        assert_usage_error(
            &out,
            "overflow 64 bits",
            &format!("custom --model lenet --ubatch {ubatch}"),
        );
    }
}

#[test]
fn closed_stdout_is_not_a_panic() {
    // `repro custom ... | head -1` closes the pipe before repro writes:
    // the write fails with a broken pipe, which must end the run quietly
    // with the command's own verdict instead of panicking with exit 101.
    for args in [&["custom", "--model", "lenet"][..], &["fig2b"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("repro binary must spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}
