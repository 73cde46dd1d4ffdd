//! Differential checking of the simulator's network core: the indexed
//! fast path (`Simulator::new`) against the dense reference engine
//! (`Simulator::new_dense_reference`), which re-derives every occupied
//! route class's fair-share rate on every network event.
//!
//! The two engines must be **bitwise** trace-identical: same completion
//! order, same `f64` time bit patterns, same tags, same channel
//! statistics. A script of interleaved submissions, drains, and
//! mid-flight bandwidth changes is replayed through both and the traces
//! compared entry by entry; the proptest in
//! `tests/simdiff_proptest.rs` feeds this with random scripts.

use harmony_simulator::{Completion, SimTime, Simulator};
use harmony_topology::presets::{commodity_server, CommodityParams, GBPS};
use harmony_topology::{Endpoint, Topology};

/// One step of a differential script. Indices are taken modulo the
/// topology's GPU/channel counts, so any values form a valid script.
#[derive(Debug, Clone)]
pub enum SimOp {
    /// Submit a compute kernel of `millis` ms on a GPU.
    Compute {
        /// GPU selector (mod num_gpus).
        gpu: usize,
        /// Kernel duration in milliseconds (clamped to ≥ 1).
        millis: u16,
    },
    /// Start a device→host transfer.
    ToHost {
        /// GPU selector (mod num_gpus).
        gpu: usize,
        /// Megabytes to move.
        mb: u16,
    },
    /// Start a host→device transfer.
    FromHost {
        /// GPU selector (mod num_gpus).
        gpu: usize,
        /// Megabytes to move.
        mb: u16,
    },
    /// Start a device→device transfer (skipped when src == dst).
    P2p {
        /// Source GPU selector (mod num_gpus).
        src: usize,
        /// Destination GPU selector (mod num_gpus).
        dst: usize,
        /// Megabytes to move.
        mb: u16,
    },
    /// Drain up to `n` completions before continuing, so later
    /// submissions and bandwidth changes land mid-flight.
    Drain {
        /// Maximum completions to deliver.
        n: usize,
    },
    /// Rescale one channel's bandwidth mid-flight.
    SetBandwidth {
        /// Channel selector (mod num_channels).
        channel: usize,
        /// New bandwidth in tenths of a GB/s (clamped to ≥ 1).
        tenths_gbps: u16,
    },
}

/// A trace entry: `(time_bits, kind, a, b)` where `kind` 0 is compute
/// (`a` = gpu), 1 is transfer (`a` = id), 2 is timer, and `b` is the
/// driver tag. Times are compared as bit patterns, not within an
/// epsilon — the engines must agree exactly.
pub type TraceEntry = (u64, u8, u64, u64);

fn entry(t: SimTime, c: Completion) -> TraceEntry {
    match c {
        Completion::Compute { gpu, tag } => (t.to_bits(), 0, gpu as u64, tag),
        Completion::Transfer { id, tag } => (t.to_bits(), 1, id, tag),
        Completion::Timer { tag } => (t.to_bits(), 2, 0, tag),
    }
}

/// The small contended topology differential scripts run on: three GPUs
/// behind one switch, PCIe at 2 GB/s, a 1 GB/s host uplink every
/// host-bound transfer fights over.
pub fn diff_topology() -> Topology {
    commodity_server(CommodityParams {
        num_gpus: 3,
        gpus_per_switch: 3,
        pcie_bw: 2.0 * GBPS,
        host_uplink_bw: GBPS,
        gpu_mem: 1 << 30,
        gpu_flops: 1e12,
    })
    .expect("differential topology is valid")
}

/// Replays `ops` on `sim`, draining everything still in flight at the
/// end, and returns the full completion trace. Tags are the op index,
/// so a divergence names the submission that produced it.
pub fn run_script(sim: &mut Simulator, topo: &Topology, ops: &[SimOp]) -> Vec<TraceEntry> {
    let gpus = topo.num_gpus();
    let channels = sim.num_channels();
    let mut trace = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let tag = i as u64;
        match *op {
            SimOp::Compute { gpu, millis } => {
                let secs = millis.max(1) as f64 / 1000.0;
                sim.submit_compute(gpu % gpus, secs, tag).expect("compute");
            }
            SimOp::ToHost { gpu, mb } => {
                let route = topo
                    .route(Endpoint::Gpu(gpu % gpus), Endpoint::Host)
                    .expect("route");
                sim.start_transfer(&route, mb as u64 * 1_000_000, tag, (gpu % gpus) as u32)
                    .expect("to-host");
            }
            SimOp::FromHost { gpu, mb } => {
                let route = topo
                    .route(Endpoint::Host, Endpoint::Gpu(gpu % gpus))
                    .expect("route");
                sim.start_transfer(&route, mb as u64 * 1_000_000, tag, (gpu % gpus) as u32)
                    .expect("from-host");
            }
            SimOp::P2p { src, dst, mb } => {
                let (src, dst) = (src % gpus, dst % gpus);
                if src != dst {
                    let route = topo
                        .route(Endpoint::Gpu(src), Endpoint::Gpu(dst))
                        .expect("route");
                    sim.start_transfer(&route, mb as u64 * 1_000_000, tag, src as u32)
                        .expect("p2p");
                }
            }
            SimOp::Drain { n } => {
                for _ in 0..n {
                    match sim.next() {
                        Some((t, c)) => trace.push(entry(t, c)),
                        None => break,
                    }
                }
            }
            SimOp::SetBandwidth {
                channel,
                tenths_gbps,
            } => {
                let bw = tenths_gbps.max(1) as f64 * (GBPS / 10.0);
                sim.set_channel_bandwidth(channel % channels, bw)
                    .expect("set bandwidth");
            }
        }
    }
    while let Some((t, c)) = sim.next() {
        trace.push(entry(t, c));
    }
    trace
}

/// Runs `ops` through the fast engine and the dense reference and
/// returns the trace length, or an error naming the first divergent
/// trace entry. Channel statistics (byte tallies and busy-second bit
/// patterns) are compared too.
pub fn check_fast_vs_dense(ops: &[SimOp]) -> Result<usize, String> {
    let topo = diff_topology();
    let mut fast_sim = Simulator::new(&topo);
    let mut dense_sim = Simulator::new_dense_reference(&topo);
    let fast = run_script(&mut fast_sim, &topo, ops);
    let dense = run_script(&mut dense_sim, &topo, ops);
    if fast.len() != dense.len() {
        return Err(format!(
            "trace lengths diverge: fast {} vs dense {}",
            fast.len(),
            dense.len()
        ));
    }
    for (i, (f, d)) in fast.iter().zip(dense.iter()).enumerate() {
        if f != d {
            return Err(format!(
                "trace entry {i} diverges: fast {f:?} vs dense {d:?}"
            ));
        }
    }
    if fast_sim.stats().channel_bytes != dense_sim.stats().channel_bytes {
        return Err("channel byte tallies diverge".to_string());
    }
    let busy = |s: &Simulator| -> Vec<u64> {
        s.stats()
            .channel_busy_secs
            .iter()
            .map(|b| b.to_bits())
            .collect()
    };
    if busy(&fast_sim) != busy(&dense_sim) {
        return Err("channel busy-seconds bit patterns diverge".to_string());
    }
    Ok(fast.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_script_agrees() {
        assert_eq!(check_fast_vs_dense(&[]), Ok(0));
    }

    fn contended_ops() -> Vec<SimOp> {
        vec![
            SimOp::ToHost { gpu: 0, mb: 48 },
            SimOp::ToHost { gpu: 1, mb: 32 },
            SimOp::FromHost { gpu: 2, mb: 16 },
            SimOp::Drain { n: 1 },
            SimOp::P2p {
                src: 0,
                dst: 1,
                mb: 24,
            },
            SimOp::SetBandwidth {
                channel: 0,
                tenths_gbps: 5,
            },
            SimOp::Compute { gpu: 2, millis: 3 },
            SimOp::Drain { n: 2 },
            SimOp::ToHost { gpu: 2, mb: 8 },
        ]
    }

    #[test]
    fn contended_script_agrees_bitwise() {
        let n = check_fast_vs_dense(&contended_ops()).expect("traces must agree");
        assert_eq!(n, 6, "every submission completes exactly once");
    }

    #[test]
    fn contended_script_rederives_the_pinned_affected_sets() {
        // The fast engine re-derives the occupied flights that share a
        // channel with each event, the dense one every occupied flight.
        // Both counts are pinned, so gathering either affected set
        // differently (not just in another order) shows up here.
        let topo = diff_topology();
        let mut fast = Simulator::new(&topo);
        let mut dense = Simulator::new_dense_reference(&topo);
        run_script(&mut fast, &topo, &contended_ops());
        run_script(&mut dense, &topo, &contended_ops());
        assert_eq!(fast.net_counters().rate_recomputes, 13);
        assert_eq!(dense.net_counters().rate_recomputes, 22);
    }
}
