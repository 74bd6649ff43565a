//! Aggregate counters the experiment harnesses read after a run.

use des::Time;

/// Traffic statistics for one [`crate::Ring`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Packets injected (a block write in fixed mode counts its word train
    /// as one injection).
    pub injections: u64,
    /// Total data words carried.
    pub words_carried: u64,
    /// Host PIO word-write operations.
    pub pio_writes: u64,
    /// Host PIO word-read operations.
    pub pio_reads: u64,
    /// Host burst transfers.
    pub bursts: u64,
    /// Interrupts delivered to hosts.
    pub interrupts: u64,
    /// Words corrupted by the fault injector (0 on healthy hardware).
    pub bit_errors: u64,
    /// Packets consumed by an armed drop fault: the source bank saw the
    /// write but nothing replicated (see `Ring::arm_drop`).
    pub packets_dropped: u64,
    /// Injections discarded because the source host is silenced — a
    /// crashed workstation behind a live NIC (see `Ring::silence_node`).
    pub silenced_drops: u64,
    /// Packets whose ring transit was cut short by a severed link — the
    /// nodes before the break got the write, the nodes after did not.
    pub link_truncations: u64,
    /// Sum over links of busy time, for utilization estimates.
    pub link_busy_ns: Time,
}

impl RingStats {
    /// Mean link utilization over `elapsed` virtual time for a ring of
    /// `links` links. Returns a fraction in `[0, 1]` (can exceed 1 only if
    /// the caller passes a wrong elapsed window).
    pub fn utilization(&self, links: usize, elapsed: Time) -> f64 {
        if elapsed == 0 || links == 0 {
            return 0.0;
        }
        self.link_busy_ns as f64 / (links as f64 * elapsed as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_handles_zero_elapsed() {
        let s = RingStats::default();
        assert_eq!(s.utilization(4, 0), 0.0);
        assert_eq!(s.utilization(0, 100), 0.0);
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let s = RingStats {
            link_busy_ns: 500,
            ..Default::default()
        };
        let u = s.utilization(2, 1_000);
        assert!((u - 0.25).abs() < 1e-12);
    }
}
