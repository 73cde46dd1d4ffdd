//! `repro` — regenerate every figure and table of the paper, and run the
//! conformance gate `./verify` checks.
//!
//! Usage: `cargo run --release -p harmony-bench --bin repro -- [command]
//! [arguments]`; `repro help` lists every command of the table in
//! [`harmony_bench::cli`], and no command means `all`. An unknown
//! command or a bad argument exits 2 naming it, a failing gate exits 1,
//! and a reader that closes the pipe early (`repro all | head -1`) does
//! not change the exit status.

use harmony_bench::cli::{self, Outcome};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match args.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("all", &[][..]),
    };
    let outcome = match cli::lookup(name) {
        Some(cmd) => match cli::parse(&cmd.spec, rest) {
            Ok(flags) => cmd.run(&flags),
            Err(e) => Outcome::usage_error(e),
        },
        None => Outcome::usage_error(format!("unknown artefact `{name}`\n\n{}", cli::usage())),
    };
    std::process::exit(cli::deliver(
        &outcome,
        &mut std::io::stdout().lock(),
        &mut std::io::stderr().lock(),
    ));
}
