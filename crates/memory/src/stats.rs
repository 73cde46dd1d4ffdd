//! Swap-volume accounting.

pub use harmony_trace::summary::MemCounters;

use crate::{DeviceId, TensorClass};

/// Transfer direction relative to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Host → device (or peer → device).
    In,
    /// Device → host (or device → peer).
    Out,
}

/// Classes a tally row holds: one slot per [`TensorClass`] variant
/// (`Workspace` is the last).
const CLASSES: usize = TensorClass::Workspace as usize + 1;

/// Per-device, per-class swap tallies — the raw data behind Fig 2(a)
/// (global swap-out volume), Fig 2(c) (per-GPU swap imbalance), and the §3
/// analytical comparison.
#[derive(Debug, Clone, Default)]
pub struct SwapStats {
    /// Bytes by `[device][direction][class]`, directions in
    /// `[In, Out]` order; a device's row appears at its first swap.
    by_device: Vec<[[u64; CLASSES]; 2]>,
    /// Bytes moved device-to-device (p2p), counted once per transfer.
    pub p2p_bytes: u64,
    /// Planning hot-path counters (see [`MemCounters`]).
    pub counters: MemCounters,
}

impl SwapStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        SwapStats::default()
    }

    /// Records a host↔device swap.
    pub fn record(&mut self, device: DeviceId, dir: Direction, class: TensorClass, bytes: u64) {
        if device >= self.by_device.len() {
            self.by_device.resize(device + 1, [[0; CLASSES]; 2]);
        }
        self.by_device[device][dir as usize][class as usize] += bytes;
    }

    /// Records a device↔device (p2p) transfer.
    pub fn record_p2p(&mut self, bytes: u64) {
        self.p2p_bytes += bytes;
    }

    /// Total bytes swapped in a direction for a device (all classes).
    pub fn device_total(&self, device: DeviceId, dir: Direction) -> u64 {
        self.by_device
            .get(device)
            .map_or(0, |row| row[dir as usize].iter().sum())
    }

    /// Global swap volume for one tensor class, both directions.
    pub fn class_total(&self, class: TensorClass) -> u64 {
        self.by_device
            .iter()
            .flatten()
            .map(|dir| dir[class as usize])
            .sum()
    }

    /// Total swap volume (both directions, all devices, all classes).
    pub fn total(&self) -> u64 {
        self.by_device.iter().flatten().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_accumulate_by_key() {
        let mut s = SwapStats::new();
        s.record(0, Direction::In, TensorClass::Weight, 100);
        s.record(0, Direction::In, TensorClass::Weight, 50);
        s.record(0, Direction::Out, TensorClass::Weight, 30);
        s.record(1, Direction::In, TensorClass::Grad, 10);
        assert_eq!(s.device_total(0, Direction::In), 150);
        assert_eq!(s.device_total(0, Direction::Out), 30);
        assert_eq!(s.class_total(TensorClass::Weight), 180);
        assert_eq!(s.total(), 190);
    }

    #[test]
    fn p2p_counts_separately() {
        let mut s = SwapStats::new();
        s.record_p2p(42);
        s.record_p2p(8);
        assert_eq!(s.p2p_bytes, 50);
        assert_eq!(s.total(), 0, "p2p is not host swap volume");
    }
}
