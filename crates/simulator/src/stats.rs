//! Simulation statistics.

/// Aggregate counters maintained by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Seconds each GPU spent executing kernels.
    pub gpu_busy_secs: Vec<f64>,
    /// Bytes moved over each channel (per channel on every route hop).
    pub channel_bytes: Vec<u64>,
    /// Seconds each channel had at least one active transfer.
    pub channel_busy_secs: Vec<f64>,
}

impl SimStats {
    /// Creates zeroed stats for `gpus` devices and `channels` channels.
    pub fn new(gpus: usize, channels: usize) -> Self {
        SimStats {
            gpu_busy_secs: vec![0.0; gpus],
            channel_bytes: vec![0u64; channels],
            channel_busy_secs: vec![0.0; channels],
        }
    }
}

/// Diagnostic counters of the network core. These are *structural*
/// measurements (how many per-flight rate derivations, how much queue and
/// event-heap traffic, how many candidate refreshes), not wall-clock
/// timings, so tests can assert the complexity contract
/// deterministically: an event on one route must not re-derive rates for
/// transfers on disjoint routes, and no network completion enters the
/// event heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Per-flight bottleneck-rate derivations (one per affected flight
    /// per network event, plus one for each flight restart from empty).
    pub rate_recomputes: u64,
    /// Departure-queue entries pushed (exactly one per routed transfer).
    pub queue_pushes: u64,
    /// Transfer completions delivered from the network candidate.
    pub net_deliveries: u64,
    /// Route classes (flights) created so far — a gauge, bounded by the
    /// number of distinct routes ever used, not by in-flight transfers.
    pub route_classes: u64,
    /// Event-heap entries pushed: one per compute kernel started and one
    /// per timer. Network completions never enter the heap.
    pub heap_pushes: u64,
    /// Event-heap entries popped; every pop delivers a completion.
    pub heap_pops: u64,
    /// Network-candidate refreshes: at most one per `Simulator::next`
    /// call, and only after a network state change.
    pub candidate_refreshes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_counters_default_is_zeroed() {
        let c = NetCounters::default();
        assert_eq!(c.rate_recomputes, 0);
        assert_eq!(c.queue_pushes, 0);
        assert_eq!(c.net_deliveries, 0);
        assert_eq!(c.route_classes, 0);
        assert_eq!(
            (c.heap_pushes, c.heap_pops, c.candidate_refreshes),
            (0, 0, 0)
        );
    }

    #[test]
    fn new_is_zeroed() {
        let s = SimStats::new(2, 3);
        assert_eq!(s.gpu_busy_secs, vec![0.0, 0.0]);
        assert_eq!(s.channel_bytes, vec![0, 0, 0]);
    }
}
