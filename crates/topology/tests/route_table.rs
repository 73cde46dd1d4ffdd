//! Pins every preset's channels and its full route table against a
//! committed golden file: each channel's id, name and bandwidth, and for
//! every ordered endpoint pair (self pairs and `host -> host` included)
//! the route's channel names or `NoRoute`. Traces, flight classes and
//! every digest downstream read these, so a change to how routes are
//! stored or derived must leave this table byte-identical.

use std::fmt::Write;

use harmony_topology::presets::{self, CommodityParams, GBPS, GIB};
use harmony_topology::{Endpoint, Topology, TopologyError};

const GOLDEN: &str = include_str!("route_table.golden");

fn two_per_switch(num_gpus: usize) -> Topology {
    presets::commodity_server(CommodityParams {
        num_gpus,
        gpus_per_switch: 2,
        pcie_bw: 12.0 * GBPS,
        host_uplink_bw: 12.0 * GBPS,
        gpu_mem: 11 * GIB,
        gpu_flops: 11.3e12,
    })
    .expect("valid preset")
}

fn presets_under_test() -> Vec<(&'static str, Topology)> {
    vec![
        ("commodity_4x1080ti", presets::commodity_4x1080ti()),
        ("commodity_8gpu", presets::commodity_8gpu()),
        (
            "commodity_n_1080ti(1)",
            presets::commodity_n_1080ti(1).expect("valid preset"),
        ),
        ("commodity_server(4 GPUs, 2 per switch)", two_per_switch(4)),
        ("commodity_server(5 GPUs, 2 per switch)", two_per_switch(5)),
        ("dgx1_like", presets::dgx1_like()),
        ("two_server_4x1080ti", presets::two_server_4x1080ti()),
    ]
}

/// One preset's channels and every ordered pair's route, one per line.
fn render(label: &str, topo: &Topology) -> String {
    let mut out = String::new();
    writeln!(out, "== {label}: {}", topo.name).unwrap();
    for c in topo.channels() {
        writeln!(out, "channel {} {} {}", c.id, c.name, c.bandwidth).unwrap();
    }
    let endpoints: Vec<Endpoint> = std::iter::once(Endpoint::Host)
        .chain((0..topo.num_gpus()).map(Endpoint::Gpu))
        .collect();
    for &src in &endpoints {
        for &dst in &endpoints {
            write!(out, "route {src} -> {dst}:").unwrap();
            match topo.route(src, dst) {
                Ok(route) => {
                    for &c in route.iter() {
                        write!(out, " {}", topo.channels()[c].name).unwrap();
                    }
                }
                Err(TopologyError::NoRoute { .. }) => out.push_str(" NoRoute"),
                Err(e) => panic!("{label}: {src} -> {dst}: unexpected error {e}"),
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn every_preset_route_matches_the_golden_table() {
    let actual: String = presets_under_test()
        .iter()
        .map(|(label, topo)| render(label, topo))
        .collect();
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "route table differs at golden line {}", i + 1);
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "route table line count differs from the golden file"
    );
}
