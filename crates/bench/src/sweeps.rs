//! The network hot-path smoke behind `repro net-smoke`.
//!
//! It gates structural counters only; its wall clock is printed as a
//! record. The executor and memory manager's per-event work is gated by
//! exact counters in `crates/harness/tests/work_ceilings.rs`, and the
//! end-to-end perf record of the repo is the `e2ebench/` benchmark.

use harmony::prelude::*;
use harmony_simulator::Simulator;
use harmony_topology::Endpoint;

use crate::cli::Outcome;

/// The most transfers one `repro net-smoke` wave starts: at about 30 B
/// of simulator state each, a full wave stays near 35 MB.
const MAX_SMOKE_TRANSFERS: usize = 1 << 20;

/// The most transfers one `repro net-smoke` run starts over all its
/// waves: eight full waves, which ran in 5.5 s on a 2-vCPU host.
const MAX_SMOKE_TOTAL: usize = 1 << 23;

/// `repro net-smoke`: the network hot path under many concurrent
/// transfers over shared channels, timed in wall clock as a record.
/// Each of `waves` waves starts `transfers` GPU→host transfers spread
/// over an 8-GPU commodity server, then drains them with `next()`.
///
/// It is also a structural gate: the script submits only transfers, so
/// it fails unless no event-heap entry was pushed (every completion
/// came from the network candidate) and the candidate was refreshed at
/// most once per `next()` call.
pub(crate) fn net_smoke(transfers: usize, waves: usize) -> Outcome {
    if transfers > MAX_SMOKE_TRANSFERS {
        return Outcome::usage_error(format!(
            "--transfers {transfers} is above {MAX_SMOKE_TRANSFERS}"
        ));
    }
    if transfers.saturating_mul(waves) > MAX_SMOKE_TOTAL {
        return Outcome::usage_error(format!(
            "--waves {waves} times --transfers {transfers} is above {MAX_SMOKE_TOTAL} transfers"
        ));
    }
    let gpus = 8;
    let topo = presets::commodity_server(presets::CommodityParams {
        num_gpus: gpus,
        gpus_per_switch: 4,
        pcie_bw: 12.0 * presets::GBPS,
        host_uplink_bw: 12.0 * presets::GBPS,
        gpu_mem: 11 << 30,
        gpu_flops: 11e12,
    })
    .expect("valid params");
    let routes: Vec<_> = (0..gpus)
        .map(|g| {
            topo.route(Endpoint::Gpu(g), Endpoint::Host)
                .expect("every GPU routes to the host")
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
    let mut out = Outcome::default();
    out.line(format_args!(
        "net-smoke: {transfers} transfers x {waves} waves, {events} completions, \
         {secs:.3} s wall, {:.0} events/s",
        events as f64 / secs
    ));
    out.line(format_args!("counters: {c:?}, next() calls: {next_calls}"));
    if c.heap_pushes != 0 || c.candidate_refreshes > next_calls {
        out.fail(format_args!(
            "net-smoke: {} event-heap pushes (want 0) and {} candidate refreshes \
             for {next_calls} next() calls (want at most one each)",
            c.heap_pushes, c.candidate_refreshes
        ));
    }
    out
}
