//! Flit-level traffic accounting, matching Figure 10's categories.
//!
//! Messages are sized in flits of 16 B: a control message (request, ack,
//! invalidate) is one flit; a 64 B cache-line data message is one header
//! flit plus four payload flits.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Flits in a control-only message (request / ack / invalidation).
pub const CONTROL_FLITS: u64 = 1;

/// Flits in a 64 B cache-line data message (header + 4 × 16 B payload).
pub const DATA_FLITS: u64 = 5;

/// Bytes per flit.
pub const FLIT_BYTES: u64 = 16;

/// Traffic category, matching Figure 10's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Between CU L1 caches and the chiplet's L2 (intra-chiplet crossbar).
    L1ToL2,
    /// Between a chiplet's L2 and its local L3 bank / memory controller.
    L2ToL3,
    /// Crossing an inter-chiplet link (remote L3 banks, remote invalidations,
    /// write-throughs to remote home nodes, directory traffic).
    Remote,
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficClass::L1ToL2 => f.write_str("L1-L2"),
            TrafficClass::L2ToL3 => f.write_str("L2-L3"),
            TrafficClass::Remote => f.write_str("remote"),
        }
    }
}

/// Per-category flit counters.
///
/// # Example
///
/// ```
/// use chiplet_noc::traffic::{FlitCounter, TrafficClass, DATA_FLITS};
///
/// let mut t = FlitCounter::default();
/// t.record_data(TrafficClass::L2ToL3);      // one 64 B line transfer
/// t.record_control(TrafficClass::Remote);   // one invalidation message
/// assert_eq!(t.get(TrafficClass::L2ToL3), DATA_FLITS);
/// assert_eq!(t.total(), DATA_FLITS + 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlitCounter {
    /// L1↔L2 flits.
    pub l1_l2: u64,
    /// L2↔L3 flits.
    pub l2_l3: u64,
    /// Inter-chiplet flits.
    pub remote: u64,
}

impl FlitCounter {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `flits` to one category.
    pub fn record(&mut self, class: TrafficClass, flits: u64) {
        match class {
            TrafficClass::L1ToL2 => self.l1_l2 += flits,
            TrafficClass::L2ToL3 => self.l2_l3 += flits,
            TrafficClass::Remote => self.remote += flits,
        }
    }

    /// Records one control message (1 flit).
    pub fn record_control(&mut self, class: TrafficClass) {
        self.record(class, CONTROL_FLITS);
    }

    /// Records one 64 B data message (5 flits).
    pub fn record_data(&mut self, class: TrafficClass) {
        self.record(class, DATA_FLITS);
    }

    /// Records a full request/response pair: 1 control flit out plus a data
    /// message back.
    pub fn record_read_transaction(&mut self, class: TrafficClass) {
        self.record(class, CONTROL_FLITS + DATA_FLITS);
    }

    /// Records a write transaction: data out plus a 1-flit ack back.
    pub fn record_write_transaction(&mut self, class: TrafficClass) {
        self.record(class, DATA_FLITS + CONTROL_FLITS);
    }

    /// Flits in one category.
    pub fn get(&self, class: TrafficClass) -> u64 {
        match class {
            TrafficClass::L1ToL2 => self.l1_l2,
            TrafficClass::L2ToL3 => self.l2_l3,
            TrafficClass::Remote => self.remote,
        }
    }

    /// Total flits across categories.
    pub fn total(&self) -> u64 {
        self.l1_l2 + self.l2_l3 + self.remote
    }

    /// Bytes moved in one category.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.get(class) * FLIT_BYTES
    }

    /// Bytes that crossed inter-chiplet links.
    pub fn remote_bytes(&self) -> u64 {
        self.remote * FLIT_BYTES
    }
}

impl Add for FlitCounter {
    type Output = FlitCounter;

    fn add(self, rhs: FlitCounter) -> FlitCounter {
        FlitCounter {
            l1_l2: self.l1_l2 + rhs.l1_l2,
            l2_l3: self.l2_l3 + rhs.l2_l3,
            remote: self.remote + rhs.remote,
        }
    }
}

impl AddAssign for FlitCounter {
    fn add_assign(&mut self, rhs: FlitCounter) {
        *self = *self + rhs;
    }
}

impl fmt::Display for FlitCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1-L2: {} | L2-L3: {} | remote: {}",
            self.l1_l2, self.l2_l3, self.remote
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_class() {
        let mut t = FlitCounter::new();
        t.record(TrafficClass::L1ToL2, 3);
        t.record(TrafficClass::L1ToL2, 2);
        t.record(TrafficClass::Remote, 7);
        assert_eq!(t.get(TrafficClass::L1ToL2), 5);
        assert_eq!(t.get(TrafficClass::L2ToL3), 0);
        assert_eq!(t.get(TrafficClass::Remote), 7);
        assert_eq!(t.total(), 12);
    }

    #[test]
    fn transaction_helpers_count_both_directions() {
        let mut t = FlitCounter::new();
        t.record_read_transaction(TrafficClass::L2ToL3);
        assert_eq!(t.l2_l3, CONTROL_FLITS + DATA_FLITS);
        t.record_write_transaction(TrafficClass::Remote);
        assert_eq!(t.remote, DATA_FLITS + CONTROL_FLITS);
    }

    #[test]
    fn add_combines_counters() {
        let mut a = FlitCounter::new();
        a.record(TrafficClass::L1ToL2, 1);
        let mut b = FlitCounter::new();
        b.record(TrafficClass::Remote, 2);
        let c = a + b;
        assert_eq!(c.l1_l2, 1);
        assert_eq!(c.remote, 2);
        let mut d = FlitCounter::new();
        d += c;
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn byte_accounting_scales_flits() {
        let mut t = FlitCounter::new();
        t.record(TrafficClass::Remote, 3);
        t.record(TrafficClass::L1ToL2, 2);
        assert_eq!(t.remote_bytes(), 3 * FLIT_BYTES);
        assert_eq!(t.bytes(TrafficClass::L1ToL2), 2 * FLIT_BYTES);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", FlitCounter::new()).is_empty());
        assert_eq!(format!("{}", TrafficClass::Remote), "remote");
    }
}
