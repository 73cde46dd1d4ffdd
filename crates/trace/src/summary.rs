//! Run summaries: the numbers the paper's figures plot.

/// Whether a run ended in its statically-planned regime or had to adapt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResilienceMode {
    /// No resilience action was ever taken: the plan held as scheduled.
    #[default]
    Normal,
    /// At least one spill, reroute, retry, or overcommit occurred.
    Degraded,
}

impl ResilienceMode {
    /// Stable lower-case label used in JSON exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResilienceMode::Normal => "normal",
            ResilienceMode::Degraded => "degraded",
        }
    }
}

/// What the executor's resilience layer did during a faulted run: the
/// typed outcome that replaces aborting with an infeasibility error when
/// injected faults invalidate the static plan. Recorded in
/// [`RunSummary::resilience`] only for runs where the layer was armed and
/// faults were injected — clean runs carry `None` so their summaries stay
/// byte-identical with the layer on or off.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceOutcome {
    /// Steps that entered pressure-spill mode (an allocation or fetch hit
    /// post-fault capacity pressure and was parked for eviction + retry).
    pub spill_events: u64,
    /// In-flight p2p moves cancelled off a degraded link and re-issued
    /// over the host-bounce path.
    pub rerouted_transfers: u64,
    /// Backoff retry timers that fired and re-attempted a parked step.
    pub retries: u64,
    /// Capacity overcommits (UVM-style oversubscription) granted after a
    /// spill exhausted its retry budget — the last-resort guarantee that
    /// a squeezed run still completes.
    pub overcommits: u64,
    /// The regime the run ended in.
    pub final_mode: ResilienceMode,
}

impl ResilienceOutcome {
    /// True when any resilience action was taken.
    pub fn degraded(&self) -> bool {
        self.spill_events + self.rerouted_transfers + self.retries + self.overcommits > 0
    }

    /// Serialises the outcome as a JSON object (null-free by construction).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"spill_events\": {}, \"rerouted_transfers\": {}, \"retries\": {}, \
             \"overcommits\": {}, \"final_mode\": \"{}\"}}",
            self.spill_events,
            self.rerouted_transfers,
            self.retries,
            self.overcommits,
            self.final_mode.as_str(),
        )
    }
}

/// Structural counters of the memory manager's planning hot path (DESIGN
/// §13), the memory-side analogue of the executor's `ExecCounters`.
/// `harmony-memory` keeps them in its `SwapStats`; run summaries export
/// them as they are.
///
/// `fresh_allocs` is the no-per-fetch-allocation witness: planning
/// through the `_into` API on the fast core allocates nothing, so a run
/// that plans that way reports zero. `fresh_allocs` and
/// `candidate_scans` grow only on the dense reference core. The harness's
/// work-ceiling test (`tests/work_ceilings.rs`) holds every counter but
/// `victim_pops` at or below a committed per-run ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemCounters {
    /// Planning-path heap materialisations: two per `make_room_into` on
    /// the dense reference core (it snapshots the candidate set each
    /// time); zero on the fast core.
    pub fresh_allocs: u64,
    /// Candidate records offered to `PolicyKind::choose` across all
    /// victim selections — the dense core re-offers the whole remaining
    /// slice per victim; the fast core's scan never calls `choose`.
    pub candidate_scans: u64,
    /// Resident-membership insertions and removals: one per arrival on a
    /// device and one per departure from it.
    pub index_ops: u64,
    /// Victims picked by the fast core's selection scan.
    pub victim_pops: u64,
    /// Membership entries the fast core's selection scan examined: the
    /// device's whole membership, pinned included, once per victim and
    /// once for the scan that finds the room made (or none left).
    pub resident_visits: u64,
    /// Ids that arrivals and departures moved inside a device's
    /// membership: at most one per departure (the swap-removed gap's
    /// filler), none per arrival.
    pub membership_shifts: u64,
}

impl MemCounters {
    /// Serialises the counters as a JSON object (null-free by construction).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"fresh_allocs\": {}, \"candidate_scans\": {}, \"index_ops\": {}, \
             \"victim_pops\": {}, \"resident_visits\": {}, \"membership_shifts\": {}}}",
            self.fresh_allocs,
            self.candidate_scans,
            self.index_ops,
            self.victim_pops,
            self.resident_visits,
            self.membership_shifts,
        )
    }
}

/// Aggregate results of one simulated (or executed) training run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scheme + workload label.
    pub name: String,
    /// Virtual seconds for the measured iterations.
    pub sim_secs: f64,
    /// Samples (sequences) processed.
    pub samples: u64,
    /// Host swap-in bytes per GPU.
    pub swap_in_bytes: Vec<u64>,
    /// Host swap-out bytes per GPU.
    pub swap_out_bytes: Vec<u64>,
    /// Device-to-device bytes (global).
    pub p2p_bytes: u64,
    /// Peak resident bytes per GPU.
    pub peak_mem_bytes: Vec<u64>,
    /// Logical memory demand per GPU (what *would* have to be resident
    /// without virtualization) — the Fig 2(c) y-axis.
    pub demand_bytes: Vec<u64>,
    /// Global swap volume (both directions) per tensor class, keyed by the
    /// Fig 5(a) class names (`weight`, `grad`, `opt_state`, `activation`,
    /// `stash`, `workspace`). Used by the analytical cross-check.
    pub swap_by_class: std::collections::BTreeMap<String, u64>,
    /// Per-channel busy time in seconds, keyed by channel name — identifies
    /// the bottleneck link (the host uplink, in the paper's Fig 2a).
    pub channel_busy_secs: std::collections::BTreeMap<String, f64>,
    /// Simulator events (completions) the executor processed to produce
    /// this run — the unit the executor hot-path sweep scales in.
    pub events_processed: u64,
    /// Wall-clock seconds the host spent inside the executor's event loop
    /// (not virtual time). Nondeterministic by nature: comparisons between
    /// runs must ignore it (see the harness's executor differential).
    pub elapsed_secs: f64,
    /// Wall-clock seconds spent *setting up* the run — planning plus
    /// executor construction (key arenas, registration, queue
    /// compilation) — as opposed to executing it (`elapsed_secs`). Wall
    /// clock like `elapsed_secs`: excluded from equality and zeroed
    /// before byte-for-byte comparisons.
    pub setup_secs: f64,
    /// What the resilience layer did, for runs where it was armed AND
    /// faults were injected; `None` on clean runs (so clean summaries are
    /// byte-identical with the layer on or off). Deterministic, and part
    /// of a run's identity.
    pub resilience: Option<ResilienceOutcome>,
    /// Memory-manager planning hot-path counters, when the producer
    /// exports them (`None` for hand-built or merged summaries). Like
    /// `elapsed_secs` these describe *how* the run was computed, not what
    /// it computed: the dense-memory reference legitimately allocates per
    /// fetch where the indexed manager does not, so counters are excluded
    /// from equality and stripped before byte-for-byte JSON comparisons.
    pub mem_counters: Option<MemCounters>,
}

/// Equality over the *deterministic* content of a run. `elapsed_secs`
/// and `setup_secs` are host wall clock — measurement noise, not part of
/// a run's identity — so two deterministic replays of the same plan
/// compare equal even though their clocks differ. (`events_processed` IS
/// deterministic and is compared.)
impl PartialEq for RunSummary {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.sim_secs == other.sim_secs
            && self.samples == other.samples
            && self.swap_in_bytes == other.swap_in_bytes
            && self.swap_out_bytes == other.swap_out_bytes
            && self.p2p_bytes == other.p2p_bytes
            && self.peak_mem_bytes == other.peak_mem_bytes
            && self.demand_bytes == other.demand_bytes
            && self.swap_by_class == other.swap_by_class
            && self.channel_busy_secs == other.channel_busy_secs
            && self.events_processed == other.events_processed
            && self.resilience == other.resilience
    }
}

impl RunSummary {
    /// Global training throughput in samples (sequences) per virtual
    /// second — the Fig 2(a) left axis.
    pub fn throughput(&self) -> f64 {
        if self.sim_secs <= 0.0 {
            0.0
        } else {
            self.samples as f64 / self.sim_secs
        }
    }

    /// Global swap-out volume in bytes — the Fig 2(a) right axis.
    pub fn global_swap_out(&self) -> u64 {
        self.swap_out_bytes.iter().sum()
    }

    /// Global swap-in volume in bytes.
    pub fn global_swap_in(&self) -> u64 {
        self.swap_in_bytes.iter().sum()
    }

    /// Global swap volume, both directions.
    pub fn global_swap(&self) -> u64 {
        self.global_swap_in() + self.global_swap_out()
    }

    /// Executor events per wall-clock second of the event loop. Zero
    /// when no wall clock was recorded (hand-built summaries).
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.events_processed as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Max/min swap imbalance across GPUs — quantifies Fig 2(c).
    ///
    /// `None` when the ratio is unbounded (some GPU swaps nothing while
    /// another swaps): the old `f64::INFINITY` sentinel serialised to
    /// `null` in JSON exports (non-finite floats have no JSON
    /// representation), corrupting trace and summary files. `Some(1.0)`
    /// for a run with no swap traffic at all (perfectly balanced).
    pub fn swap_imbalance(&self) -> Option<f64> {
        let totals: Vec<u64> = self
            .swap_in_bytes
            .iter()
            .zip(&self.swap_out_bytes)
            .map(|(i, o)| i + o)
            .collect();
        let max = totals.iter().copied().max().unwrap_or(0);
        let min = totals.iter().copied().min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                Some(1.0)
            } else {
                None
            }
        } else {
            Some(max as f64 / min as f64)
        }
    }

    /// Fraction of the run a channel was busy, summed over channels whose
    /// name contains `pattern` and averaged (1.0 = always busy). Returns
    /// `None` when no channel matches.
    pub fn channel_utilisation(&self, pattern: &str) -> Option<f64> {
        let matched: Vec<f64> = self
            .channel_busy_secs
            .iter()
            .filter(|(name, _)| name.contains(pattern))
            .map(|(_, &busy)| busy)
            .collect();
        if matched.is_empty() || self.sim_secs <= 0.0 {
            return None;
        }
        Some(matched.iter().sum::<f64>() / matched.len() as f64 / self.sim_secs)
    }

    /// Serialises the summary as a JSON object. Derived non-finite
    /// quantities are *omitted* rather than emitted as `null` (JSON has no
    /// Inf/NaN), so exports always parse back into meaningful numbers.
    pub fn to_json(&self) -> String {
        use crate::json::{number, quote};
        let u64s = |v: &[u64]| {
            let items: Vec<String> = v.iter().map(|b| b.to_string()).collect();
            format!("[{}]", items.join(", "))
        };
        let mut out = String::from("{");
        out.push_str(&format!("\"name\": {}, ", quote(&self.name)));
        out.push_str(&format!("\"sim_secs\": {}, ", number(self.sim_secs)));
        out.push_str(&format!("\"samples\": {}, ", self.samples));
        out.push_str(&format!(
            "\"events_processed\": {}, ",
            self.events_processed
        ));
        if self.elapsed_secs.is_finite() {
            out.push_str(&format!(
                "\"elapsed_secs\": {}, ",
                number(self.elapsed_secs)
            ));
        }
        if self.setup_secs.is_finite() {
            out.push_str(&format!("\"setup_secs\": {}, ", number(self.setup_secs)));
        }
        out.push_str(&format!("\"throughput\": {}, ", number(self.throughput())));
        if let Some(r) = &self.resilience {
            out.push_str(&format!("\"resilience\": {}, ", r.to_json()));
        }
        if let Some(c) = &self.mem_counters {
            out.push_str(&format!("\"mem_counters\": {}, ", c.to_json()));
        }
        if let Some(imb) = self.swap_imbalance().filter(|v| v.is_finite()) {
            out.push_str(&format!("\"swap_imbalance\": {}, ", number(imb)));
        }
        out.push_str(&format!(
            "\"swap_in_bytes\": {}, ",
            u64s(&self.swap_in_bytes)
        ));
        out.push_str(&format!(
            "\"swap_out_bytes\": {}, ",
            u64s(&self.swap_out_bytes)
        ));
        out.push_str(&format!("\"p2p_bytes\": {}, ", self.p2p_bytes));
        out.push_str(&format!(
            "\"peak_mem_bytes\": {}, ",
            u64s(&self.peak_mem_bytes)
        ));
        out.push_str(&format!("\"demand_bytes\": {}, ", u64s(&self.demand_bytes)));
        let classes: Vec<String> = self
            .swap_by_class
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v))
            .collect();
        out.push_str(&format!("\"swap_by_class\": {{{}}}, ", classes.join(", ")));
        let channels: Vec<String> = self
            .channel_busy_secs
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
            .collect();
        out.push_str(&format!(
            "\"channel_busy_secs\": {{{}}}",
            channels.join(", ")
        ));
        out.push('}');
        out
    }

    /// One-line human summary.
    pub fn one_line(&self) -> String {
        format!(
            "{}: {:.2} samples/s, swap {:.2} GB (in {:.2} / out {:.2}), p2p {:.2} GB",
            self.name,
            self.throughput(),
            self.global_swap() as f64 / 1e9,
            self.global_swap_in() as f64 / 1e9,
            self.global_swap_out() as f64 / 1e9,
            self.p2p_bytes as f64 / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RunSummary {
        RunSummary {
            name: "test".to_string(),
            sim_secs: 2.0,
            samples: 10,
            swap_in_bytes: vec![100, 300],
            swap_out_bytes: vec![200, 400],
            p2p_bytes: 50,
            peak_mem_bytes: vec![1000, 2000],
            demand_bytes: vec![3000, 1500],
            swap_by_class: Default::default(),
            channel_busy_secs: Default::default(),
            events_processed: 40,
            elapsed_secs: 0.5,
            setup_secs: 0.1,
            resilience: None,
            mem_counters: None,
        }
    }

    #[test]
    fn throughput_is_samples_per_sec() {
        assert_eq!(summary().throughput(), 5.0);
        let mut s = summary();
        s.sim_secs = 0.0;
        assert_eq!(s.throughput(), 0.0);
    }

    #[test]
    fn swap_totals() {
        let s = summary();
        assert_eq!(s.global_swap_in(), 400);
        assert_eq!(s.global_swap_out(), 600);
        assert_eq!(s.global_swap(), 1000);
    }

    #[test]
    fn imbalance_ratio() {
        let s = summary();
        // GPU0: 300, GPU1: 700 → 7/3.
        assert!((s.swap_imbalance().unwrap() - 700.0 / 300.0).abs() < 1e-9);
        let balanced = RunSummary {
            swap_in_bytes: vec![0, 0],
            swap_out_bytes: vec![0, 0],
            ..summary()
        };
        assert_eq!(balanced.swap_imbalance(), Some(1.0));
        // Unbounded skew is `None`, not an infinity that would serialise
        // to JSON `null`.
        let skewed = RunSummary {
            swap_in_bytes: vec![0, 10],
            swap_out_bytes: vec![0, 0],
            ..summary()
        };
        assert_eq!(skewed.swap_imbalance(), None);
    }

    #[test]
    fn json_export_matches_goldens_and_never_contains_null() {
        let mut classes = std::collections::BTreeMap::new();
        classes.insert("weight".to_string(), 700);
        classes.insert("grad".to_string(), 300);
        let mut channels = std::collections::BTreeMap::new();
        channels.insert("sw0->host".to_string(), 1.5);
        channels.insert("gpu\"0\"".to_string(), 0.25);
        // A non-finite busy time is dropped, never written as `null`.
        channels.insert("gpu1->sw0".to_string(), f64::NAN);
        for (s, expected) in [
            (
                RunSummary {
                    swap_by_class: classes,
                    channel_busy_secs: channels,
                    ..summary()
                },
                concat!(
                    r#"{"name": "test", "sim_secs": 2.0, "samples": 10, "events_processed": 40, "#,
                    r#""elapsed_secs": 0.5, "setup_secs": 0.1, "throughput": 5.0, "#,
                    r#""swap_imbalance": 2.3333333333333335, "#,
                    r#""swap_in_bytes": [100, 300], "swap_out_bytes": [200, 400], "#,
                    r#""p2p_bytes": 50, "peak_mem_bytes": [1000, 2000], "#,
                    r#""demand_bytes": [3000, 1500], "swap_by_class": {"grad": 300, "weight": 700}, "#,
                    r#""channel_busy_secs": {"gpu\"0\"": 0.25, "sw0->host": 1.5}}"#,
                ),
            ),
            // Unbounded imbalance: the field is omitted, not `null`.
            (
                RunSummary {
                    swap_in_bytes: vec![0, 10],
                    swap_out_bytes: vec![0, 0],
                    ..summary()
                },
                concat!(
                    r#"{"name": "test", "sim_secs": 2.0, "samples": 10, "events_processed": 40, "#,
                    r#""elapsed_secs": 0.5, "setup_secs": 0.1, "throughput": 5.0, "#,
                    r#""swap_in_bytes": [0, 10], "swap_out_bytes": [0, 0], "#,
                    r#""p2p_bytes": 50, "peak_mem_bytes": [1000, 2000], "#,
                    r#""demand_bytes": [3000, 1500], "swap_by_class": {}, "channel_busy_secs": {}}"#,
                ),
            ),
            // A non-finite wall clock must be omitted, never `null`.
            (
                RunSummary {
                    elapsed_secs: f64::INFINITY,
                    setup_secs: f64::NAN,
                    ..summary()
                },
                concat!(
                    r#"{"name": "test", "sim_secs": 2.0, "samples": 10, "events_processed": 40, "#,
                    r#""throughput": 5.0, "swap_imbalance": 2.3333333333333335, "#,
                    r#""swap_in_bytes": [100, 300], "swap_out_bytes": [200, 400], "#,
                    r#""p2p_bytes": 50, "peak_mem_bytes": [1000, 2000], "#,
                    r#""demand_bytes": [3000, 1500], "swap_by_class": {}, "channel_busy_secs": {}}"#,
                ),
            ),
        ] {
            let text = s.to_json();
            assert_eq!(text, expected);
            assert!(
                !text.contains("null"),
                "non-finite leaked into JSON: {text}"
            );
        }
    }

    #[test]
    fn resilience_outcome_serialises_only_when_present() {
        let clean = summary();
        assert!(!clean.to_json().contains("resilience"));
        let degraded = RunSummary {
            resilience: Some(ResilienceOutcome {
                spill_events: 2,
                rerouted_transfers: 1,
                retries: 3,
                overcommits: 1,
                final_mode: ResilienceMode::Degraded,
            }),
            ..summary()
        };
        assert_eq!(
            degraded.to_json(),
            concat!(
                r#"{"name": "test", "sim_secs": 2.0, "samples": 10, "events_processed": 40, "#,
                r#""elapsed_secs": 0.5, "setup_secs": 0.1, "throughput": 5.0, "#,
                r#""resilience": {"spill_events": 2, "rerouted_transfers": 1, "retries": 3, "#,
                r#""overcommits": 1, "final_mode": "degraded"}, "#,
                r#""swap_imbalance": 2.3333333333333335, "#,
                r#""swap_in_bytes": [100, 300], "swap_out_bytes": [200, 400], "#,
                r#""p2p_bytes": 50, "peak_mem_bytes": [1000, 2000], "#,
                r#""demand_bytes": [3000, 1500], "swap_by_class": {}, "channel_busy_secs": {}}"#,
            )
        );
        // The outcome is part of a run's identity.
        assert_ne!(clean, degraded);
    }

    #[test]
    fn mem_counters_serialise_only_when_present_and_skip_equality() {
        let plain = summary();
        assert!(!plain.to_json().contains("mem_counters"));
        let counted = RunSummary {
            mem_counters: Some(MemCounters {
                fresh_allocs: 3,
                candidate_scans: 0,
                index_ops: 120,
                victim_pops: 17,
                resident_visits: 340,
                membership_shifts: 9,
            }),
            ..summary()
        };
        assert_eq!(
            counted.to_json(),
            concat!(
                r#"{"name": "test", "sim_secs": 2.0, "samples": 10, "events_processed": 40, "#,
                r#""elapsed_secs": 0.5, "setup_secs": 0.1, "throughput": 5.0, "#,
                r#""mem_counters": {"fresh_allocs": 3, "candidate_scans": 0, "index_ops": 120, "#,
                r#""victim_pops": 17, "resident_visits": 340, "membership_shifts": 9}, "#,
                r#""swap_imbalance": 2.3333333333333335, "#,
                r#""swap_in_bytes": [100, 300], "swap_out_bytes": [200, 400], "#,
                r#""p2p_bytes": 50, "peak_mem_bytes": [1000, 2000], "#,
                r#""demand_bytes": [3000, 1500], "swap_by_class": {}, "channel_busy_secs": {}}"#,
            )
        );
        // Counters describe how the run was computed, not what it
        // computed: they do not participate in run identity.
        assert_eq!(plain, counted);
    }

    #[test]
    fn wall_clocks_do_not_participate_in_identity() {
        let mut replay = summary();
        replay.elapsed_secs = 99.0;
        replay.setup_secs = 42.0;
        assert_eq!(summary(), replay);
    }

    #[test]
    fn events_per_sec_is_events_over_wall_clock() {
        assert_eq!(summary().events_per_sec(), 80.0);
        let mut s = summary();
        s.elapsed_secs = 0.0;
        assert_eq!(s.events_per_sec(), 0.0);
    }

    #[test]
    fn channel_utilisation_averages_matches() {
        let mut s = summary();
        s.channel_busy_secs.insert("sw0->host".to_string(), 1.5);
        s.channel_busy_secs.insert("gpu0->sw0".to_string(), 0.5);
        // sim_secs = 2.0 → uplink util 0.75.
        assert!((s.channel_utilisation("->host").unwrap() - 0.75).abs() < 1e-9);
        assert!(s.channel_utilisation("nvlink").is_none());
    }

    #[test]
    fn one_line_mentions_name_and_units() {
        let line = summary().one_line();
        assert!(line.contains("test"));
        assert!(line.contains("samples/s"));
    }
}
