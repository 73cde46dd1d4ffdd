//! Network hot-path stress: many concurrent transfers over shared
//! channels, timed in wall clock. Used to measure the cost of the
//! fair-share rate recomputation; `./verify` runs it at 4096 transfers
//! as the network scaling smoke.
//!
//! It is also a structural gate: the script submits only transfers, so
//! it exits 1 unless no event-heap entry was pushed (every completion
//! came from the network candidate) and the candidate was refreshed at
//! most once per `next()` call. A closed stdout only stops the report:
//! the gate still sets the exit status.
//!
//! Usage: `cargo run --release -p harmony-simulator --example net_stress
//! [transfers] [waves]` — both positive integers (default 256 and 8); any
//! other value exits 2 naming the argument.

use std::io::Write;

use harmony_simulator::Simulator;
use harmony_topology::presets::{commodity_server, CommodityParams, GBPS};
use harmony_topology::Endpoint;

/// Positional argument `index`, named `name`, as a positive integer
/// (`default` when absent); any other value exits 2 naming it.
fn positive_arg(index: usize, name: &str, default: usize) -> usize {
    let Some(s) = std::env::args().nth(index) else {
        return default;
    };
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("net_stress: {name} takes a positive integer, got `{s}`");
            std::process::exit(2);
        }
    }
}

fn main() {
    let transfers = positive_arg(1, "transfers", 256);
    let waves = positive_arg(2, "waves", 8);
    let gpus = 8;
    let topo = commodity_server(CommodityParams {
        num_gpus: gpus,
        gpus_per_switch: 4,
        pcie_bw: 12.0 * GBPS,
        host_uplink_bw: 12.0 * GBPS,
        gpu_mem: 11 << 30,
        gpu_flops: 11e12,
    })
    .expect("topology");
    let routes: Vec<Vec<usize>> = (0..gpus)
        .map(|g| {
            topo.route(Endpoint::Gpu(g), Endpoint::Host)
                .expect("route")
                .to_vec()
        })
        .collect();

    let start = std::time::Instant::now();
    let mut s = Simulator::new(&topo);
    let (mut events, mut next_calls) = (0u64, 0u64);
    for wave in 0..waves {
        for i in 0..transfers {
            let g = i % gpus;
            // Varied sizes so completions interleave and every arrival /
            // departure re-shares the bottleneck uplink.
            let bytes = (1 + (i as u64 % 17)) * 100_000_000;
            s.start_transfer(&routes[g], bytes, (wave * transfers + i) as u64, g as u32)
                .expect("transfer");
        }
        loop {
            next_calls += 1;
            if s.next().is_none() {
                break;
            }
            events += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let c = s.net_counters();
    // A reader that closed the pipe early gets no report; write errors
    // are dropped so the gate below still decides the exit status.
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "net_stress: {} transfers x {} waves, {} completions, {:.3} s wall, {:.0} events/s",
        transfers,
        waves,
        events,
        secs,
        events as f64 / secs
    )
    .and_then(|()| writeln!(out, "counters: {c:?}, next() calls: {next_calls}"));
    if c.heap_pushes != 0 || c.candidate_refreshes > next_calls {
        eprintln!(
            "net_stress: {} event-heap pushes (want 0) and {} candidate refreshes \
             for {next_calls} next() calls (want at most one each)",
            c.heap_pushes, c.candidate_refreshes
        );
        std::process::exit(1);
    }
}
