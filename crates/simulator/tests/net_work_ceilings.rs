//! Exact work counts of the network core under a transfer-only script:
//! many concurrent GPU→host transfers re-sharing the one host uplink of
//! an 8-GPU commodity server (the paper's Fig 2(b) bottleneck).
//!
//! The script submits nothing but transfers, so every completion must
//! come from the network candidate (no event-heap entry is pushed or
//! popped), the candidate is refreshed at most once per `next()` call,
//! and the rate derivations, departure-queue pushes and candidate
//! refreshes stay at or below the counts measured when this script was
//! a `repro` command. Lower work passes without an edit.

use harmony_simulator::{NetCounters, Simulator};
use harmony_topology::presets::{commodity_server, CommodityParams, GBPS};
use harmony_topology::Endpoint;

const GPUS: usize = 8;

/// Runs `waves` waves of `transfers` transfers, each wave drained with
/// `next()`. Transfer `i` moves `(1 + i mod 17) × 100 MB` from GPU
/// `i mod 8` to the host on lane `i mod 8`; the varied sizes make
/// completions interleave, so every arrival and departure re-shares the
/// uplink. Returns the completions, the `next()` calls and the counters.
fn replay(transfers: usize, waves: usize) -> (u64, u64, NetCounters) {
    let topo = commodity_server(CommodityParams {
        num_gpus: GPUS,
        gpus_per_switch: 4,
        pcie_bw: 12.0 * GBPS,
        host_uplink_bw: 12.0 * GBPS,
        gpu_mem: 11 << 30,
        gpu_flops: 11e12,
    })
    .expect("valid params");
    let routes: Vec<_> = (0..GPUS)
        .map(|g| {
            topo.route(Endpoint::Gpu(g), Endpoint::Host)
                .expect("every GPU routes to the host")
        })
        .collect();
    let mut sim = Simulator::new(&topo);
    let (mut completions, mut next_calls) = (0, 0);
    for wave in 0..waves {
        for i in 0..transfers {
            let g = i % GPUS;
            let bytes = (1 + (i as u64 % 17)) * 100_000_000;
            let tag = (wave * transfers + i) as u64;
            sim.start_transfer(&routes[g], bytes, tag, g as u32)
                .expect("transfer starts");
        }
        loop {
            next_calls += 1;
            if sim.next().is_none() {
                break;
            }
            completions += 1;
        }
    }
    (completions, next_calls, *sim.net_counters())
}

/// `transfers × waves`, then the ceilings on rate derivations,
/// departure-queue pushes and candidate refreshes, and the `next()`
/// calls the script makes.
const CASES: [(usize, usize, u64, u64, u64, u64); 2] = [
    (4096, 1, 32_388, 4_096, 4_097, 4_097),
    (256, 8, 16_056, 2_048, 2_056, 2_056),
];

#[test]
fn transfer_only_script_stays_within_its_work_ceilings() {
    for (transfers, waves, rates, pushes, refreshes, calls) in CASES {
        let at = format!("{transfers} transfers x {waves} waves");
        let (completions, next_calls, c) = replay(transfers, waves);
        assert_eq!(completions, (transfers * waves) as u64, "{at}");
        assert_eq!(next_calls, calls, "{at}");
        assert_eq!((c.heap_pushes, c.heap_pops), (0, 0), "{at}: {c:?}");
        assert!(c.candidate_refreshes <= next_calls, "{at}: {c:?}");
        assert!(c.rate_recomputes <= rates, "{at}: {c:?}");
        assert!(c.queue_pushes <= pushes, "{at}: {c:?}");
        assert!(c.candidate_refreshes <= refreshes, "{at}: {c:?}");
    }
}
