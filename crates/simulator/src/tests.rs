use super::*;
use harmony_topology::presets::{commodity_4x1080ti, GBPS};
use harmony_topology::Endpoint;

fn sim() -> (Simulator, harmony_topology::Topology) {
    let t = commodity_4x1080ti();
    (Simulator::new(&t), t)
}

#[test]
fn compute_is_fifo_per_gpu() {
    let (mut s, _) = sim();
    s.submit_compute(0, 2.0, 1).unwrap();
    s.submit_compute(0, 3.0, 2).unwrap();
    s.submit_compute(1, 1.0, 3).unwrap();
    let (t1, c1) = s.next().unwrap();
    assert_eq!(c1, Completion::Compute { gpu: 1, tag: 3 });
    assert!((t1 - 1.0).abs() < 1e-9);
    let (t2, c2) = s.next().unwrap();
    assert_eq!(c2, Completion::Compute { gpu: 0, tag: 1 });
    assert!((t2 - 2.0).abs() < 1e-9);
    let (t3, c3) = s.next().unwrap();
    assert_eq!(c3, Completion::Compute { gpu: 0, tag: 2 });
    assert!((t3 - 5.0).abs() < 1e-9, "queued kernel starts after first");
    assert!(s.next().is_none());
}

#[test]
fn single_transfer_runs_at_bottleneck_rate() {
    let (mut s, topo) = sim();
    let route = topo.route(Endpoint::Gpu(0), Endpoint::Host).unwrap();
    // 12 GB over a 12 GB/s path → 1 s.
    s.start_transfer(&route, (12.0 * GBPS) as u64, 7, 0)
        .unwrap();
    let (t, c) = s.next().unwrap();
    assert!(matches!(c, Completion::Transfer { tag: 7, .. }));
    assert!((t - 1.0).abs() < 1e-6, "t = {t}");
}

#[test]
fn shared_uplink_halves_rates() {
    let (mut s, topo) = sim();
    let r0 = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    let r1 = topo
        .route(Endpoint::Gpu(1), Endpoint::Host)
        .unwrap()
        .to_vec();
    // Two 12 GB swap-outs share the single 12 GB/s uplink → 2 s each.
    s.start_transfer(&r0, (12.0 * GBPS) as u64, 1, 0).unwrap();
    s.start_transfer(&r1, (12.0 * GBPS) as u64, 2, 0).unwrap();
    let (t1, _) = s.next().unwrap();
    let (t2, _) = s.next().unwrap();
    assert!((t1 - 2.0).abs() < 1e-6, "t1 = {t1}");
    assert!((t2 - 2.0).abs() < 1e-6, "t2 = {t2}");
}

#[test]
fn p2p_does_not_contend_with_host_swap() {
    let (mut s, topo) = sim();
    let host = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    let p2p = topo
        .route(Endpoint::Gpu(2), Endpoint::Gpu(3))
        .unwrap()
        .to_vec();
    s.start_transfer(&host, (12.0 * GBPS) as u64, 1, 0).unwrap();
    s.start_transfer(&p2p, (12.0 * GBPS) as u64, 2, 0).unwrap();
    // Disjoint channels → both finish at 1 s.
    let (t1, _) = s.next().unwrap();
    let (t2, _) = s.next().unwrap();
    assert!((t1 - 1.0).abs() < 1e-6);
    assert!((t2 - 1.0).abs() < 1e-6);
}

#[test]
fn rates_rise_when_a_competitor_finishes() {
    let (mut s, topo) = sim();
    let r0 = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    let r1 = topo
        .route(Endpoint::Gpu(1), Endpoint::Host)
        .unwrap()
        .to_vec();
    // 6 GB and 12 GB share the uplink: first finishes at 1 s (6 GB/s
    // each); the second then speeds up: remaining 6 GB at 12 GB/s →
    // total 1.5 s.
    s.start_transfer(&r0, (6.0 * GBPS) as u64, 1, 0).unwrap();
    s.start_transfer(&r1, (12.0 * GBPS) as u64, 2, 0).unwrap();
    let (t1, c1) = s.next().unwrap();
    assert!(matches!(c1, Completion::Transfer { tag: 1, .. }));
    assert!((t1 - 1.0).abs() < 1e-6, "t1 = {t1}");
    let (t2, c2) = s.next().unwrap();
    assert!(matches!(c2, Completion::Transfer { tag: 2, .. }));
    assert!((t2 - 1.5).abs() < 1e-6, "t2 = {t2}");
}

#[test]
fn zero_byte_transfer_completes_now() {
    let (mut s, topo) = sim();
    let route = topo.route(Endpoint::Gpu(0), Endpoint::Host).unwrap();
    s.start_transfer(&route, 0, 9, 0).unwrap();
    let (t, c) = s.next().unwrap();
    assert_eq!(t, 0.0);
    assert!(matches!(c, Completion::Transfer { tag: 9, .. }));
}

#[test]
fn timers_fire_in_order() {
    let (mut s, _) = sim();
    s.set_timer(5.0, 1, 0).unwrap();
    s.set_timer(2.0, 2, 0).unwrap();
    assert_eq!(s.next().unwrap().1, Completion::Timer { tag: 2 });
    assert_eq!(s.next().unwrap().1, Completion::Timer { tag: 1 });
    assert!(s.idle());
}

#[test]
fn invalid_params_are_rejected() {
    let (mut s, _) = sim();
    assert!(s.submit_compute(99, 1.0, 0).is_err());
    assert!(s.submit_compute(0, f64::NAN, 0).is_err());
    assert!(s.start_transfer(&[9999], 10, 0, 0).is_err());
    assert!(s.set_timer(f64::INFINITY, 0, 0).is_err());
}

/// NaN/∞ times are rejected at every submission site, so the event
/// heap's `total_cmp` ordering never sees one and cannot be corrupted by
/// `partial_cmp`-style incomparability (the tuner argmax fix of PR 2,
/// applied to the event queue).
#[test]
fn nan_times_rejected_at_submission() {
    let (mut s, topo) = sim();
    assert!(s.submit_compute(0, f64::NAN, 1).is_err());
    assert!(s.submit_compute(0, f64::INFINITY, 1).is_err());
    assert!(s.submit_compute(0, -1.0, 1).is_err());
    assert!(s.set_timer(f64::NAN, 1, 0).is_err());
    assert!(s.set_timer(f64::NEG_INFINITY, 1, 0).is_err());
    assert!(s.set_channel_bandwidth(0, f64::NAN).is_err());
    assert!(s.set_channel_bandwidth(0, 0.0).is_err());
    assert!(s.set_channel_bandwidth(0, -3.0).is_err());
    // The engine stays consistent after the rejections: a normal script
    // still runs to completion in order.
    let route = topo.route(Endpoint::Gpu(0), Endpoint::Host).unwrap();
    s.set_timer(0.5, 2, 0).unwrap();
    s.start_transfer(&route, (12.0 * GBPS) as u64, 3, 0)
        .unwrap();
    assert_eq!(s.next().unwrap().1, Completion::Timer { tag: 2 });
    assert!(matches!(
        s.next().unwrap().1,
        Completion::Transfer { tag: 3, .. }
    ));
    assert!(s.next().is_none());
}

#[test]
fn stats_accumulate() {
    let (mut s, topo) = sim();
    let route = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    s.submit_compute(0, 2.0, 1).unwrap();
    s.start_transfer(&route, (12.0 * GBPS) as u64, 2, 0)
        .unwrap();
    while s.next().is_some() {}
    assert!((s.stats().gpu_busy_secs[0] - 2.0).abs() < 1e-9);
    let total_bytes: u64 = s.stats().channel_bytes.iter().sum();
    assert_eq!(total_bytes, 2 * (12.0 * GBPS) as u64); // 2 channels on route
}

/// Epsilon-drift regression: two transfers share the uplink at a rate
/// whose product with the shared departure time overshoots the byte
/// count in floating point. The residue rule must complete the drifted
/// remainder immediately (releasing its bandwidth share) rather than
/// leaving a ghost transfer holding half the channel.
#[test]
fn drift_residue_completes_and_releases_bandwidth() {
    let (mut s, topo) = sim();
    let r0 = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    let r1 = topo
        .route(Endpoint::Gpu(1), Endpoint::Host)
        .unwrap()
        .to_vec();
    let uplink = *r0.iter().find(|c| r1.contains(c)).expect("shared uplink");
    // 3 B/s uplink shared two ways → 1.5 B/s each; 10 B → departure at
    // 20/3 s, and 1.5 × fl(20/3) > 10 in f64: guaranteed sub-byte
    // overshoot when the second flight is materialized.
    s.set_channel_bandwidth(uplink, 3.0).unwrap();
    s.start_transfer(&r0, 10, 1, 0).unwrap();
    s.start_transfer(&r1, 10, 2, 0).unwrap();
    let (t1, c1) = s.next().unwrap();
    let (t2, c2) = s.next().unwrap();
    assert!(matches!(c1, Completion::Transfer { tag: 1, .. }));
    assert!(matches!(c2, Completion::Transfer { tag: 2, .. }));
    assert!((t1 - 20.0 / 3.0).abs() < 1e-6, "t1 = {t1}");
    assert!((t2 - 20.0 / 3.0).abs() < 1e-6, "t2 = {t2}");
    assert!(s.next().is_none(), "no respinning ghost events");
    // The ghost released its share: a fresh transfer gets the full
    // 3 B/s uplink (30 B → 10 s), not a drifted half share.
    s.start_transfer(&r0, 30, 3, 0).unwrap();
    let (t3, c3) = s.next().unwrap();
    assert!(matches!(c3, Completion::Transfer { tag: 3, .. }));
    assert!((t3 - (t2 + 10.0)).abs() < 1e-6, "t3 = {t3}");
}

/// The fair-share denominators and flight queues must drain to empty once
/// all work (routed, zero-byte, queued-behind-busy) has completed — leaks
/// here would silently skew every subsequent rate.
#[test]
fn active_counts_drain_to_zero() {
    let (mut s, topo) = sim();
    for g in 0..4 {
        let r = topo
            .route(Endpoint::Gpu(g), Endpoint::Host)
            .unwrap()
            .to_vec();
        s.start_transfer(&r, 1_000_000 * (g as u64 + 1), g as u64, 0)
            .unwrap();
        s.start_transfer(&r, 0, 100 + g as u64, 0).unwrap();
    }
    assert_eq!(s.routed, 4);
    assert!(s.active.iter().any(|&n| n > 0));
    while s.next().is_some() {}
    assert_eq!(s.routed, 0, "routed count leaked");
    assert!(
        s.active.iter().all(|&n| n == 0),
        "active counts leaked: {:?}",
        s.active
    );
    assert!(
        s.flights.iter().all(|f| f.queue.is_empty()),
        "flight queues leaked"
    );
    assert!(s.immediates.is_empty(), "immediate tags leaked");
}

/// O(affected) contract: starting and finishing a transfer on a route
/// disjoint from a standing population must not touch the population's
/// flight, no matter how many transfers it carries.
#[test]
fn unrelated_routes_do_not_rescan_the_flight() {
    let (mut s, topo) = sim();
    let host = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    let p2p = topo
        .route(Endpoint::Gpu(2), Endpoint::Gpu(3))
        .unwrap()
        .to_vec();
    let population = 64;
    for i in 0..population {
        s.start_transfer(&host, 1 << 30, i, 0).unwrap();
    }
    let before = s.net_counters().rate_recomputes;
    // Start + drain one transfer on a disjoint route.
    s.start_transfer(&p2p, 1 << 20, 999, 0).unwrap();
    let (_, c) = s.next().unwrap();
    assert!(matches!(c, Completion::Transfer { tag: 999, .. }));
    let delta = s.net_counters().rate_recomputes - before;
    assert!(
        delta <= 2,
        "start+finish on a disjoint route did {delta} rate derivations \
         (population {population}) — affected-set indexing is broken"
    );
}

/// A mid-flight bandwidth fault invalidates (and re-derives) only the
/// flights routed over the changed channel.
#[test]
fn set_channel_bandwidth_touches_only_affected_transfers() {
    let (mut s, topo) = sim();
    let host = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    let p2p = topo
        .route(Endpoint::Gpu(2), Endpoint::Gpu(3))
        .unwrap()
        .to_vec();
    for i in 0..8 {
        s.start_transfer(&host, 1 << 30, i, 0).unwrap();
    }
    s.start_transfer(&p2p, 1 << 30, 100, 0).unwrap();
    s.start_transfer(&p2p, 1 << 30, 101, 0).unwrap();
    let before = s.net_counters().rate_recomputes;
    // Degrade the p2p link: only the p2p flight crosses it.
    s.set_channel_bandwidth(p2p[0], GBPS).unwrap();
    let delta = s.net_counters().rate_recomputes - before;
    assert_eq!(
        delta, 1,
        "bandwidth fault re-derived {delta} flights, expected only the p2p \
         flight (the 8-transfer host flight is unaffected)"
    );
}

/// The fast engine and the dense full-rescan reference must produce
/// bit-identical traces (the harness proptest drives this much harder;
/// this is the smoke version).
#[test]
fn fast_matches_dense_reference() {
    let run = |dense: bool| {
        let topo = commodity_4x1080ti();
        let mut s = if dense {
            Simulator::new_dense_reference(&topo)
        } else {
            Simulator::new(&topo)
        };
        let mut trace = Vec::new();
        for g in 0..4 {
            s.submit_compute(g, 0.3 + g as f64 * 0.1, g as u64).unwrap();
            let r = topo
                .route(Endpoint::Gpu(g), Endpoint::Host)
                .unwrap()
                .to_vec();
            s.start_transfer(&r, 3_000_000_000 * (g as u64 + 1), 100 + g as u64, 0)
                .unwrap();
        }
        for _ in 0..3 {
            let (t, c) = s.next().unwrap();
            trace.push((t.to_bits(), format!("{c:?}")));
        }
        let uplink = topo
            .route(Endpoint::Gpu(0), Endpoint::Host)
            .unwrap()
            .to_vec()[1];
        s.set_channel_bandwidth(uplink, 3.0 * GBPS).unwrap();
        while let Some((t, c)) = s.next() {
            trace.push((t.to_bits(), format!("{c:?}")));
        }
        for (c, busy) in s.stats().channel_busy_secs.iter().enumerate() {
            trace.push((busy.to_bits(), format!("busy[{c}]")));
        }
        trace
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn determinism_same_script_same_trace() {
    let run = || {
        let topo = commodity_4x1080ti();
        let mut s = Simulator::new(&topo);
        for g in 0..4 {
            s.submit_compute(g, 1.0 + g as f64 * 0.1, g as u64).unwrap();
            let r = topo
                .route(Endpoint::Gpu(g), Endpoint::Host)
                .unwrap()
                .to_vec();
            s.start_transfer(&r, 1_000_000_000 * (g as u64 + 1), 100 + g as u64, 0)
                .unwrap();
        }
        let mut trace = Vec::new();
        while let Some((t, c)) = s.next() {
            trace.push((t.to_bits(), format!("{c:?}")));
        }
        trace
    };
    assert_eq!(run(), run());
}

#[test]
fn cancel_releases_bandwidth_share() {
    let (mut s, topo) = sim();
    let r0 = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    let r1 = topo
        .route(Endpoint::Gpu(1), Endpoint::Host)
        .unwrap()
        .to_vec();
    // Two 12 GB swap-outs share the 12 GB/s uplink; cancelling one at
    // t=0 restores the survivor's full share → it completes at 1 s, not
    // the contended 2 s.
    let victim = s.start_transfer(&r0, (12.0 * GBPS) as u64, 1, 0).unwrap();
    s.start_transfer(&r1, (12.0 * GBPS) as u64, 2, 0).unwrap();
    assert!(s.cancel_transfer(victim).unwrap());
    let (t, c) = s.next().unwrap();
    assert!(matches!(c, Completion::Transfer { tag: 2, .. }));
    assert!((t - 1.0).abs() < 1e-6, "t = {t}");
    // The cancelled transfer never completes.
    assert!(s.next().is_none());
    // Attempted traffic stays accounted on its channels.
    assert!(s.stats().channel_bytes[r0[0]] >= (12.0 * GBPS) as u64);
}

#[test]
fn cancel_mid_flight_keeps_survivor_progress() {
    let (mut s, topo) = sim();
    let r = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    // Same route → same flight. 6 GB each on the 12 GB/s path: the pair
    // drains at 6 GB/s per member. Park a timer at 0.5 s so we can
    // cancel mid-flight: 3 GB each moved, 3 GB left for the survivor at
    // a restored 12 GB/s → completion at 0.75 s.
    let victim = s.start_transfer(&r, (6.0 * GBPS) as u64, 1, 0).unwrap();
    s.start_transfer(&r, (6.0 * GBPS) as u64, 2, 0).unwrap();
    s.set_timer(0.5, 9, 0).unwrap();
    let (t, c) = s.next().unwrap();
    assert_eq!(c, Completion::Timer { tag: 9 });
    assert!((t - 0.5).abs() < 1e-9);
    assert!(s.cancel_transfer(victim).unwrap());
    let (t, c) = s.next().unwrap();
    assert!(matches!(c, Completion::Transfer { tag: 2, .. }));
    assert!((t - 0.75).abs() < 1e-6, "t = {t}");
}

#[test]
fn cancel_immediate_and_unknown_transfers() {
    let (mut s, _) = sim();
    // Zero-byte transfers are queued as immediates: cancellable until
    // delivered, and their queued event becomes inert.
    let id = s.start_transfer(&[], 0, 5, 0).unwrap();
    assert!(s.cancel_transfer(id).unwrap());
    assert!(s.next().is_none(), "cancelled immediate must not deliver");
    // A completed transfer is no longer cancellable.
    let id = s.start_transfer(&[], 0, 6, 0).unwrap();
    let (_, c) = s.next().unwrap();
    assert!(matches!(c, Completion::Transfer { tag: 6, .. }));
    assert!(!s.cancel_transfer(id).unwrap());
    // Never-issued ids are unknown, not an error.
    assert!(!s.cancel_transfer(999).unwrap());
}

/// Cancellation must be mode-invariant: the dense reference and the fast
/// indexed engine see identical post-cancel traces.
#[test]
fn cancel_matches_dense_reference() {
    let run = |dense: bool| {
        let topo = commodity_4x1080ti();
        let mut s = if dense {
            Simulator::new_dense_reference(&topo)
        } else {
            Simulator::new(&topo)
        };
        let mut ids = Vec::new();
        for g in 0..4 {
            let r = topo
                .route(Endpoint::Gpu(g), Endpoint::Host)
                .unwrap()
                .to_vec();
            ids.push(
                s.start_transfer(&r, 2_000_000_000 * (g as u64 + 1), 100 + g as u64, 0)
                    .unwrap(),
            );
        }
        s.set_timer(0.2, 50, 0).unwrap();
        let mut trace = Vec::new();
        let (t, c) = s.next().unwrap();
        trace.push((t.to_bits(), format!("{c:?}")));
        s.cancel_transfer(ids[2]).unwrap();
        while let Some((t, c)) = s.next() {
            trace.push((t.to_bits(), format!("{c:?}")));
        }
        for (c, busy) in s.stats().channel_busy_secs.iter().enumerate() {
            trace.push((busy.to_bits(), format!("busy[{c}]")));
        }
        trace
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn occupied_list_tracks_non_empty_flights() {
    // The occupied set must equal the set of flights with a non-empty
    // queue after every transition that can empty (or fill) one: a pop
    // that drains a flight and a cancel that empties one.
    let topo = commodity_4x1080ti();
    let route = |a, b| topo.route(a, b).unwrap().to_vec();
    let occupied = |s: &Simulator| {
        assert!(s.occupied_is_exact(), "occupied set out of sync");
        ones(&s.occupied).collect::<Vec<_>>()
    };
    let mut s = Simulator::new(&topo);
    let out0 = route(Endpoint::Gpu(0), Endpoint::Host);
    let out1 = route(Endpoint::Gpu(1), Endpoint::Host);
    let p2p = route(Endpoint::Gpu(2), Endpoint::Gpu(3));
    let a = s.start_transfer(&out0, 1_000_000, 1, 0).unwrap();
    let b = s.start_transfer(&out1, 8_000_000_000, 2, 1).unwrap();
    let c = s.start_transfer(&p2p, 9_000_000_000, 3, 2).unwrap();
    // A second member of an occupied flight does not re-enter it.
    s.start_transfer(&p2p, 10_000_000_000, 4, 2).unwrap();
    assert_eq!(occupied(&s), vec![0, 1, 2]);
    // The smallest transfer drains flight 0 first: the pop vacates it.
    let (_, done) = s.next().unwrap();
    assert_eq!(done, Completion::Transfer { id: a, tag: 1 });
    assert_eq!(occupied(&s), vec![1, 2]);
    // Cancelling flight 1's only member empties it; cancelling one of
    // flight 2's two members leaves it occupied.
    assert!(s.cancel_transfer(b).unwrap());
    assert_eq!(occupied(&s), vec![2]);
    assert!(s.cancel_transfer(c).unwrap());
    assert_eq!(occupied(&s), vec![2]);
    // A refilled flight re-enters; draining every flight empties the list.
    s.start_transfer(&out0, 1_000_000, 5, 0).unwrap();
    assert_eq!(occupied(&s), vec![0, 2]);
    while s.next().is_some() {}
    assert_eq!(occupied(&s), Vec::<usize>::new());
    // Dense mode keeps the set too (cancel searches it in both modes).
    let mut d = Simulator::new_dense_reference(&topo);
    let x = d.start_transfer(&out0, 1_000_000, 7, 0).unwrap();
    assert_eq!(occupied(&d), vec![0]);
    assert!(d.cancel_transfer(x).unwrap());
    assert_eq!(occupied(&d), Vec::<usize>::new());
}

/// Drains the simulator, returning each completion's tag.
fn drain_tags(s: &mut Simulator) -> Vec<u64> {
    std::iter::from_fn(|| s.next())
        .map(|(_, c)| match c {
            Completion::Compute { tag, .. }
            | Completion::Transfer { tag, .. }
            | Completion::Timer { tag } => tag,
        })
        .collect()
}

/// At one instant, wave and lane, a timer fires first, then a compute
/// completion, then a network delivery; the next lane's timer follows
/// all three.
#[test]
fn same_lane_order_is_timer_compute_network() {
    let (mut s, _) = sim();
    // Everything is due at t = 0, wave 0.
    s.set_timer(0.0, 4, 1).unwrap();
    s.start_transfer(&[], 0, 3, 0).unwrap();
    s.submit_compute(0, 0.0, 2).unwrap();
    s.set_timer(0.0, 1, 0).unwrap();
    assert_eq!(drain_tags(&mut s), vec![1, 2, 3, 4]);
}

/// At one instant and wave the lane decides before the kind: a network
/// delivery on lane 0 precedes a compute on lane 1, which precedes lane
/// 1's own network delivery.
#[test]
fn lower_lane_delivery_precedes_higher_lane_compute() {
    let (mut s, _) = sim();
    s.submit_compute(1, 0.0, 10).unwrap();
    s.start_transfer(&[], 0, 12, 1).unwrap();
    s.start_transfer(&[], 0, 11, 0).unwrap();
    assert_eq!(drain_tags(&mut s), vec![11, 10, 12]);
}

/// A transfer started mid-instant joins the next wave: it is not
/// delivered before a compute already due at the instant's opening
/// wave, and it precedes a compute spawned in its own wave on a higher
/// lane.
#[test]
fn mid_instant_transfer_waits_for_the_current_wave() {
    let (mut s, _) = sim();
    s.submit_compute(0, 1.0, 20).unwrap();
    s.submit_compute(1, 1.0, 21).unwrap();
    assert_eq!(
        s.next(),
        Some((1.0, Completion::Compute { gpu: 0, tag: 20 }))
    );
    // Spawned while the wave-0 completion is handled: both are wave 1.
    s.start_transfer(&[], 0, 22, 0).unwrap();
    s.submit_compute(2, 0.0, 23).unwrap();
    assert_eq!(drain_tags(&mut s), vec![21, 22, 23]);
    assert!(s.idle());
}

/// A zero-byte immediate and a due routed head deliver in `(wave, lane,
/// id)` order, whichever kind holds the lower key.
#[test]
fn immediates_and_due_heads_deliver_by_wave_lane_id() {
    let topo = commodity_4x1080ti();
    let route = topo
        .route(Endpoint::Gpu(0), Endpoint::Host)
        .unwrap()
        .to_vec();
    for (routed_lane, immediate_lane, want) in [(0, 0, [31, 32, 33]), (1, 0, [31, 33, 32])] {
        let mut s = Simulator::new(&topo);
        // Equal members of one flight depart together; once the first
        // is delivered the second is pinned due at wave 1.
        s.start_transfer(&route, 1_000_000, 31, routed_lane)
            .unwrap();
        s.start_transfer(&route, 1_000_000, 32, routed_lane)
            .unwrap();
        let (t, c) = s.next().unwrap();
        assert!(matches!(c, Completion::Transfer { tag: 31, .. }));
        // The immediate is also wave 1, with the highest id.
        s.start_transfer(&[], 0, 33, immediate_lane).unwrap();
        let rest: Vec<_> = std::iter::from_fn(|| s.next()).collect();
        assert!(rest.iter().all(|&(u, _)| u == t), "{rest:?} not at {t}");
        let mut got = vec![31];
        got.extend(rest.iter().map(|&(_, c)| match c {
            Completion::Transfer { tag, .. } => tag,
            other => panic!("unexpected {other:?}"),
        }));
        assert_eq!(got, want, "routed lane {routed_lane}");
    }
}

/// Cancelling the due immediate leaves no stale delivery slot behind:
/// the next immediate, on a higher lane, still waits for a compute on
/// a lane in between.
#[test]
fn cancelled_immediate_leaves_no_stale_slot() {
    let (mut s, _) = sim();
    let first = s.start_transfer(&[], 0, 40, 0).unwrap();
    s.submit_compute(1, 0.0, 41).unwrap();
    s.start_transfer(&[], 0, 42, 3).unwrap();
    assert!(s.cancel_transfer(first).unwrap());
    assert_eq!(drain_tags(&mut s), vec![41, 42]);
}
