//! Canonical server topologies.
//!
//! Bandwidth and capacity figures follow published specs for the hardware
//! the paper names: PCIe 3.0 x16 ≈ 12 GB/s effective per direction,
//! GTX 1080Ti = 11 GB / ~11 TFLOP/s fp32, DGX-1-style NVLink ≈ 20 GB/s per
//! direction per pair. The *ratios* (oversubscription, p2p vs host path)
//! are what drive the reproduced results.

use crate::{GpuSpec, Topology, TopologyBuilder, TopologyError};

/// 1 GiB.
pub const GIB: u64 = 1 << 30;
/// 1 GB/s in bytes/second.
pub const GBPS: f64 = 1e9;

/// Parameters for a switched PCIe commodity server.
#[derive(Debug, Clone, Copy)]
pub struct CommodityParams {
    /// Number of GPUs.
    pub num_gpus: usize,
    /// GPUs behind each PCIe switch.
    pub gpus_per_switch: usize,
    /// Per-GPU PCIe bandwidth, bytes/s per direction.
    pub pcie_bw: f64,
    /// Switch→host uplink bandwidth, bytes/s per direction.
    pub host_uplink_bw: f64,
    /// Per-GPU memory bytes.
    pub gpu_mem: u64,
    /// Per-GPU compute, FLOP/s.
    pub gpu_flops: f64,
}

impl CommodityParams {
    /// `num_gpus` 11 GB 1080Ti GPUs on 12 GB/s PCIe lanes,
    /// `gpus_per_switch` to a switch with a 12 GB/s host uplink.
    pub fn gtx_1080ti(num_gpus: usize, gpus_per_switch: usize) -> Self {
        CommodityParams {
            num_gpus,
            gpus_per_switch,
            pcie_bw: 12.0 * GBPS,
            host_uplink_bw: 12.0 * GBPS,
            gpu_mem: 11 * GIB,
            gpu_flops: 11.3e12,
        }
    }
}

/// The one tree constructor behind every preset: GPU `g` hangs off
/// switch `g / gpus_per_switch` by its own PCIe lane, and each switch has
/// a host uplink. Cross-switch p2p rides the uplinks, unless `nic_bw`
/// gives every switch a NIC pair of its own: then each switch is a
/// server with its own host. Channel ids follow that order: every GPU
/// lane, then each switch's uplink and NIC pairs.
fn tree(name: String, p: &CommodityParams, nic_bw: Option<f64>) -> TopologyBuilder {
    let mut b = TopologyBuilder::new(name);
    let spec = GpuSpec {
        mem_bytes: p.gpu_mem,
        flops: p.gpu_flops,
    };
    for g in 0..p.num_gpus {
        let s = g / p.gpus_per_switch;
        let (up, down) = (format!("gpu{g}->sw{s}"), format!("sw{s}->gpu{g}"));
        let lane = b.link(up, down, p.pcie_bw);
        b.gpu(spec, Some((s, lane)));
    }
    for s in 0..p.num_gpus.div_ceil(p.gpus_per_switch) {
        let host = nic_bw.map_or("host".to_string(), |_| format!("host{s}"));
        let (up, down) = (format!("sw{s}->{host}"), format!("{host}->sw{s}"));
        let uplink = b.link(up, down, p.host_uplink_bw);
        let fabric = nic_bw.map_or(uplink, |bw| {
            b.link(format!("nic{s}->wire"), format!("wire->nic{s}"), bw)
        });
        b.switch(uplink, fabric);
    }
    b
}

/// Builds a switched PCIe server: GPUs grouped under switches, each switch
/// sharing one host uplink; p2p within a switch goes GPU→switch→GPU without
/// touching the uplink; p2p across switches crosses both uplinks.
pub fn commodity_server(p: CommodityParams) -> Result<Topology, TopologyError> {
    if p.num_gpus == 0 || p.gpus_per_switch == 0 {
        return Err(TopologyError::Invalid(
            "need at least one GPU and one GPU per switch".to_string(),
        ));
    }
    let num_switches = p.num_gpus.div_ceil(p.gpus_per_switch);
    let over = (p.gpus_per_switch as f64 * p.pcie_bw) / p.host_uplink_bw;
    let name = format!(
        "commodity {}xGPU ({} switch(es), {:.0}:1 host oversubscription)",
        p.num_gpus, num_switches, over
    );
    tree(name, &p, None).build()
}

/// The paper's testbed: four 11 GB 1080Ti GPUs behind one PCIe switch with
/// a 4:1-oversubscribed host uplink (Fig 2b).
pub fn commodity_4x1080ti() -> Topology {
    commodity_server(CommodityParams::gtx_1080ti(4, 4)).expect("static preset is valid")
}

/// Like [`commodity_4x1080ti`] but with `n` GPUs behind one switch (used by
/// the Fig 2(a) sweep over GPU count: oversubscription grows with `n`).
pub fn commodity_n_1080ti(n: usize) -> Result<Topology, TopologyError> {
    commodity_server(CommodityParams::gtx_1080ti(n, n.max(1)))
}

/// An 8-GPU single-root server (8:1 host oversubscription), as in the
/// ASUS/PNY dense servers the paper cites.
pub fn commodity_8gpu() -> Topology {
    commodity_server(CommodityParams::gtx_1080ti(8, 8)).expect("static preset is valid")
}

/// A DGX-1-like box: 8 × 32 GB GPUs, PCIe to host, but direct NVLink p2p
/// channels between all GPU pairs (simplified all-to-all at 20 GB/s). Used
/// by ablations contrasting p2p-rich and p2p-poor interconnects.
pub fn dgx1_like() -> Topology {
    let p = CommodityParams {
        gpu_mem: 32 * GIB,
        gpu_flops: 15.7e12,
        ..CommodityParams::gtx_1080ti(8, 4)
    };
    // Same PCIe tree as a commodity box, but every GPU->GPU route gets its
    // own dedicated NVLink channel.
    let mut b = tree("dgx1-like (NVLink p2p)".to_string(), &p, None);
    for g in 0..p.num_gpus {
        for h in (0..p.num_gpus).filter(|&h| h != g) {
            let nv = b.channel(format!("nvlink{g}->{h}"), 20.0 * GBPS);
            b.direct(g, h, nv);
        }
    }
    b.build().expect("static preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endpoint;

    #[test]
    fn paper_testbed_is_4_to_1_oversubscribed() {
        let t = commodity_4x1080ti();
        assert_eq!(t.num_gpus(), 4);
        assert!((t.host_oversubscription() - 4.0).abs() < 1e-9);
        assert_eq!(t.gpu(0).unwrap().mem_bytes, 11 * GIB);
    }

    #[test]
    fn eight_gpu_box_is_8_to_1() {
        let t = commodity_8gpu();
        assert!((t.host_oversubscription() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn p2p_same_switch_avoids_uplink() {
        let t = commodity_4x1080ti();
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert!(t.p2p_avoids_host_uplink(a, b).unwrap(), "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn cross_switch_p2p_crosses_uplinks() {
        let t = commodity_server(CommodityParams {
            num_gpus: 4,
            gpus_per_switch: 2,
            pcie_bw: 12.0 * GBPS,
            host_uplink_bw: 12.0 * GBPS,
            gpu_mem: GIB,
            gpu_flops: 1e12,
        })
        .unwrap();
        assert!(t.p2p_avoids_host_uplink(0, 1).unwrap()); // same switch
        assert!(!t.p2p_avoids_host_uplink(0, 2).unwrap()); // cross switch
    }

    #[test]
    fn dgx_p2p_is_direct_nvlink() {
        let t = dgx1_like();
        let route = t.route(Endpoint::Gpu(0), Endpoint::Gpu(7)).unwrap();
        assert_eq!(route.len(), 1);
        assert!(t.channels()[route[0]].name.starts_with("nvlink"));
    }

    #[test]
    fn sweep_preset_scales_oversubscription() {
        for n in 1..=4 {
            let t = commodity_n_1080ti(n).unwrap();
            assert_eq!(t.num_gpus(), n);
            assert!((t.host_oversubscription() - n as f64).abs() < 1e-9);
        }
        assert!(commodity_n_1080ti(0).is_err());
    }

    #[test]
    fn ideal_transfer_times_scale_with_route() {
        let t = commodity_4x1080ti();
        let one_gb = 1_000_000_000u64;
        // Host swap at 12 GB/s → ~83 ms/GB.
        let host = t
            .ideal_transfer_secs(Endpoint::Gpu(0), Endpoint::Host, one_gb)
            .unwrap();
        assert!((host - 1.0 / 12.0).abs() < 1e-3);
        // p2p same speed per hop here (PCIe both ways).
        let p2p = t
            .ideal_transfer_secs(Endpoint::Gpu(0), Endpoint::Gpu(1), one_gb)
            .unwrap();
        assert!((p2p - 1.0 / 12.0).abs() < 1e-3);
    }
}

/// Parameters for a two-server deployment (the paper's §4 "multi-machine
/// training" discussion): each server is a switched PCIe box; the servers
/// are joined by a NIC-to-NIC link (Ethernet/InfiniBand class) that is
/// much slower than intra-server PCIe.
#[derive(Debug, Clone, Copy)]
pub struct TwoServerParams {
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// Per-GPU PCIe bandwidth, bytes/s per direction.
    pub pcie_bw: f64,
    /// Switch→host uplink bandwidth, bytes/s per direction.
    pub host_uplink_bw: f64,
    /// Inter-server link bandwidth, bytes/s per direction.
    pub nic_bw: f64,
    /// Per-GPU memory bytes.
    pub gpu_mem: u64,
    /// Per-GPU compute, FLOP/s.
    pub gpu_flops: f64,
}

/// Builds a two-server cluster. GPU ids `0..g` live on server 0 and
/// `g..2g` on server 1. Host swaps stay within each server (every server
/// has its own host RAM and uplink); GPU↔GPU routes between servers cross
/// the shared NIC channels — the "heterogeneous and hierarchical
/// interconnects" the paper says multi-machine Harmony must account for.
pub fn two_server(p: TwoServerParams) -> Result<Topology, TopologyError> {
    if p.gpus_per_server == 0 {
        return Err(TopologyError::Invalid("need GPUs per server".to_string()));
    }
    let g = p.gpus_per_server;
    let name = format!(
        "2 servers × {g} GPUs (NIC {:.0} Gb/s)",
        p.nic_bw * 8.0 / 1e9
    );
    let servers = CommodityParams {
        num_gpus: 2 * g,
        gpus_per_switch: g,
        pcie_bw: p.pcie_bw,
        host_uplink_bw: p.host_uplink_bw,
        gpu_mem: p.gpu_mem,
        gpu_flops: p.gpu_flops,
    };
    tree(name, &servers, Some(p.nic_bw)).build()
}

/// A ready-made two-server box: 2 × 4 × 11 GB GPUs, 12 GB/s PCIe,
/// 3 GB/s (≈25 GbE bonded) inter-server link.
pub fn two_server_4x1080ti() -> Topology {
    two_server(TwoServerParams {
        gpus_per_server: 4,
        pcie_bw: 12.0 * GBPS,
        host_uplink_bw: 12.0 * GBPS,
        nic_bw: 3.0 * GBPS,
        gpu_mem: 11 * GIB,
        gpu_flops: 11.3e12,
    })
    .expect("static preset is valid")
}

#[cfg(test)]
mod two_server_tests {
    use super::*;
    use crate::Endpoint;

    #[test]
    fn cross_server_routes_use_the_nic() {
        let t = two_server_4x1080ti();
        assert_eq!(t.num_gpus(), 8);
        // Same server: two hops through the switch.
        assert_eq!(
            t.route(Endpoint::Gpu(0), Endpoint::Gpu(3)).unwrap().len(),
            2
        );
        // Cross server: four hops including the wire.
        let route = t.route(Endpoint::Gpu(0), Endpoint::Gpu(5)).unwrap();
        assert_eq!(route.len(), 4);
        let names: Vec<&str> = route
            .iter()
            .map(|&c| t.channels()[c].name.as_str())
            .collect();
        assert!(names.iter().any(|n| n.contains("nic")), "{names:?}");
    }

    #[test]
    fn cross_server_transfers_are_nic_bound() {
        let t = two_server_4x1080ti();
        let local = t
            .ideal_transfer_secs(Endpoint::Gpu(0), Endpoint::Gpu(1), 1_000_000_000)
            .unwrap();
        let remote = t
            .ideal_transfer_secs(Endpoint::Gpu(0), Endpoint::Gpu(4), 1_000_000_000)
            .unwrap();
        assert!(remote > 3.0 * local, "remote {remote} vs local {local}");
    }

    #[test]
    fn host_swaps_stay_on_server_and_do_not_share_across_servers() {
        let t = two_server_4x1080ti();
        let r0 = t.route(Endpoint::Gpu(0), Endpoint::Host).unwrap();
        let r4 = t.route(Endpoint::Gpu(4), Endpoint::Host).unwrap();
        // Different uplinks: swaps on server 0 never contend with server 1.
        assert_ne!(r0.last(), r4.last());
    }

    #[test]
    fn oversubscription_is_per_server() {
        let t = two_server_4x1080ti();
        assert!((t.host_oversubscription() - 4.0).abs() < 1e-9);
    }
}
