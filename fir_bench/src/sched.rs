//! The open-loop schedule: requests are *due* at fixed intervals whatever
//! the system does, a request's latency runs from when it was due (so a
//! stall charges the requests queued behind it), and how late the
//! generator itself ran is accounted separately. Times are nanoseconds on
//! a clock the caller supplies, so the arithmetic is testable.

/// A send later than this after its due time counts as late.
pub const LATE_NS: u64 = 1_000_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Pacer {
    /// When request 0 is due.
    first_due_ns: u64,
    interval_ns: u64,
    pub sent: u64,
    pub late: u64,
    pub max_late_ns: u64,
}

impl Pacer {
    /// `per_second` requests per second on this connection, the first due
    /// at `first_due_ns`.
    pub fn new(per_second: f64, first_due_ns: u64) -> Pacer {
        Pacer {
            first_due_ns,
            interval_ns: (1e9 / per_second).round() as u64,
            sent: 0,
            late: 0,
            max_late_ns: 0,
        }
    }

    /// When request `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.first_due_ns + i * self.interval_ns
    }

    /// Account for request `i` leaving at `now_ns`.
    pub fn record_send(&mut self, i: u64, now_ns: u64) {
        let lateness = now_ns.saturating_sub(self.due_ns(i));
        self.sent += 1;
        self.max_late_ns = self.max_late_ns.max(lateness);
        if lateness > LATE_NS {
            self.late += 1;
        }
    }

    /// Latency of request `i` whose response arrived at `now_ns`: from
    /// due time, not from when it was actually sent.
    pub fn latency_ns(&self, i: u64, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.due_ns(i))
    }

    /// Merge another connection's send accounting into this one.
    pub fn absorb(&mut self, other: &Pacer) {
        self.sent += other.sent;
        self.late += other.late;
        self.max_late_ns = self.max_late_ns.max(other.max_late_ns);
    }

    pub fn late_share(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.late as f64 / self.sent as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_due_at_fixed_intervals() {
        let p = Pacer::new(2000.0, 250_000);
        assert_eq!(p.due_ns(0), 250_000);
        assert_eq!(p.due_ns(1), 750_000);
        assert_eq!(p.due_ns(4), 2_250_000);
    }

    #[test]
    fn latency_runs_from_due_time_not_send_time() {
        let mut p = Pacer::new(1000.0, 0);
        // Request 3 is due at 3 ms; a stall delays its send to 5 ms and
        // the response arrives at 5.4 ms: the caller waited 2.4 ms.
        p.record_send(3, 5_000_000);
        assert_eq!(p.latency_ns(3, 5_400_000), 2_400_000);
        // A response that (by clock skew) precedes the due time is 0.
        assert_eq!(p.latency_ns(3, 2_000_000), 0);
    }

    #[test]
    fn lateness_counts_sends_over_a_millisecond_behind() {
        let mut p = Pacer::new(1000.0, 0);
        p.record_send(0, 0);
        p.record_send(1, 1_000_000 + LATE_NS); // exactly 1 ms late: not late
        p.record_send(2, 2_000_000 + LATE_NS + 1); // just over
        p.record_send(3, 2_500_000); // early sends are on time
        assert_eq!((p.sent, p.late), (4, 1));
        assert_eq!(p.max_late_ns, LATE_NS + 1);
        assert_eq!(p.late_share(), 0.25);

        let mut q = Pacer::new(1000.0, 500_000);
        q.record_send(0, 4_000_000);
        p.absorb(&q);
        assert_eq!((p.sent, p.late, p.max_late_ns), (5, 2, 3_500_000));
        assert_eq!(Pacer::new(1.0, 0).late_share(), 0.0);
    }
}
