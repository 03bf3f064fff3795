//! The Database Log Server.
//!
//! Records the phone's activity events — the voice calls and text
//! messages that are the only activities registered on Symbian's log
//! database, as the paper notes for Table 3. The failure logger's Log
//! Engine reads this server to store the activity context of each
//! failure.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use symfail_sim_core::{SimDuration, SimTime};

/// A loggable phone activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityKind {
    /// An incoming or outgoing voice call.
    VoiceCall,
    /// Creating, sending or receiving a text message.
    Message,
    /// Web/WAP browsing data session.
    DataSession,
}

impl ActivityKind {
    /// The label used in tables (matching the paper's Table 3 rows).
    pub fn as_str(self) -> &'static str {
        match self {
            ActivityKind::VoiceCall => "voice call",
            ActivityKind::Message => "message",
            ActivityKind::DataSession => "data session",
        }
    }

    /// True for the activities the paper classifies as real-time
    /// tasks.
    pub fn is_real_time(self) -> bool {
        matches!(self, ActivityKind::VoiceCall | ActivityKind::Message)
    }
}

/// One record in the log database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityRecord {
    /// When the activity started.
    pub start: SimTime,
    /// When it ended.
    pub end: SimTime,
    /// What it was.
    pub kind: ActivityKind,
}

impl ActivityRecord {
    /// True when the activity was in progress at `t` (inclusive
    /// bounds: the study's logger samples coarsely).
    pub fn covers(&self, t: SimTime) -> bool {
        self.start <= t && t <= self.end
    }
}

/// The Database Log Server.
///
/// Records are kept ordered by start, so the lookups read only the
/// records near the time they ask about: [`Self::activity_at`] scans
/// back from the newest start and stops once no earlier record can
/// reach the probe (no record spans more than `max_span`), and pruning
/// reads only the records that start before the retention horizon.
///
/// # Example
///
/// ```
/// use symfail_sim_core::{SimDuration, SimTime};
/// use symfail_symbian::servers::logdb::{ActivityKind, LogDbServer};
///
/// let mut db = LogDbServer::with_retention(SimDuration::from_days(30));
/// db.record(SimTime::from_secs(10), SimTime::from_secs(70), ActivityKind::VoiceCall);
/// assert_eq!(db.activity_at(SimTime::from_secs(30)), Some(ActivityKind::VoiceCall));
/// assert_eq!(db.activity_at(SimTime::from_secs(200)), None);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogDbServer {
    retention: SimDuration,
    /// Ordered by start; records with equal starts in arrival order.
    records: VecDeque<ActivityRecord>,
    /// The largest `end - start` ever recorded (never shrinks).
    max_span: SimDuration,
}

impl LogDbServer {
    /// Creates a log database that retains records for `retention`
    /// (old records are pruned as new ones arrive, like the bounded
    /// log of a real device).
    pub fn with_retention(retention: SimDuration) -> Self {
        Self {
            retention,
            records: VecDeque::new(),
            max_span: SimDuration::ZERO,
        }
    }

    /// Records an activity spanning `[start, end]`, then prunes every
    /// record that ended before `end - retention`.
    pub fn record(&mut self, start: SimTime, end: SimTime, kind: ActivityKind) {
        let rec = ActivityRecord {
            start,
            end: end.max(start),
            kind,
        };
        self.max_span = self.max_span.max(rec.end.saturating_since(start));
        // After any equal starts: in-order arrivals are a plain push.
        let at = self.records.partition_point(|r| r.start <= start);
        self.records.insert(at, rec);
        self.prune(end - self.retention);
    }

    /// Drops the records that end before `horizon`. A record ends no
    /// earlier than it starts, so only the prefix starting before the
    /// horizon is read; its survivors keep their order.
    fn prune(&mut self, horizon: SimTime) {
        let prefix = self.records.partition_point(|r| r.start < horizon);
        let mut first_kept = prefix;
        for i in (0..prefix).rev() {
            if self.records[i].end >= horizon {
                first_kept -= 1;
                self.records.swap(i, first_kept);
            }
        }
        self.records.drain(..first_kept);
    }

    /// The activity in progress at `t`, if any (the most recently
    /// started one wins if several overlap; among equal starts, the
    /// last recorded).
    pub fn activity_at(&self, t: SimTime) -> Option<ActivityKind> {
        let after = self.records.partition_point(|r| r.start <= t);
        self.records
            .range(..after)
            .rev()
            .take_while(|r| t.saturating_since(r.start) <= self.max_span)
            .find(|r| r.covers(t))
            .map(|r| r.kind)
    }

    /// All records overlapping `[from, to]`, ordered by start.
    pub fn records_between(&self, from: SimTime, to: SimTime) -> Vec<ActivityRecord> {
        let after = self.records.partition_point(|r| r.start <= to);
        self.records
            .range(..after)
            .filter(|r| r.end >= from)
            .copied()
            .collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> LogDbServer {
        LogDbServer::with_retention(SimDuration::from_days(7))
    }

    #[test]
    fn activity_lookup() {
        let mut d = db();
        d.record(
            SimTime::from_secs(100),
            SimTime::from_secs(160),
            ActivityKind::VoiceCall,
        );
        assert_eq!(
            d.activity_at(SimTime::from_secs(100)),
            Some(ActivityKind::VoiceCall)
        );
        assert_eq!(
            d.activity_at(SimTime::from_secs(160)),
            Some(ActivityKind::VoiceCall)
        );
        assert_eq!(d.activity_at(SimTime::from_secs(161)), None);
        assert_eq!(d.activity_at(SimTime::from_secs(99)), None);
    }

    #[test]
    fn overlapping_activities_latest_start_wins() {
        let mut d = db();
        d.record(
            SimTime::from_secs(0),
            SimTime::from_secs(100),
            ActivityKind::DataSession,
        );
        d.record(
            SimTime::from_secs(50),
            SimTime::from_secs(80),
            ActivityKind::Message,
        );
        assert_eq!(
            d.activity_at(SimTime::from_secs(60)),
            Some(ActivityKind::Message)
        );
        assert_eq!(
            d.activity_at(SimTime::from_secs(90)),
            Some(ActivityKind::DataSession)
        );
    }

    #[test]
    fn retention_prunes_old_records() {
        let mut d = LogDbServer::with_retention(SimDuration::from_secs(100));
        d.record(
            SimTime::from_secs(0),
            SimTime::from_secs(10),
            ActivityKind::Message,
        );
        d.record(
            SimTime::from_secs(500),
            SimTime::from_secs(510),
            ActivityKind::Message,
        );
        assert_eq!(d.len(), 1, "old record pruned");
    }

    #[test]
    fn records_between() {
        let mut d = db();
        d.record(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            ActivityKind::Message,
        );
        d.record(
            SimTime::from_secs(30),
            SimTime::from_secs(40),
            ActivityKind::VoiceCall,
        );
        let hits = d.records_between(SimTime::from_secs(15), SimTime::from_secs(35));
        assert_eq!(hits.len(), 2);
        let none = d.records_between(SimTime::from_secs(21), SimTime::from_secs(29));
        assert!(none.is_empty());
    }

    #[test]
    fn end_clamped_to_start() {
        let mut d = db();
        d.record(
            SimTime::from_secs(50),
            SimTime::from_secs(10),
            ActivityKind::Message,
        );
        assert!(d.activity_at(SimTime::from_secs(50)).is_some());
    }

    #[test]
    fn real_time_classification() {
        assert!(ActivityKind::VoiceCall.is_real_time());
        assert!(ActivityKind::Message.is_real_time());
        assert!(!ActivityKind::DataSession.is_real_time());
    }

    /// The server as it was before records were kept ordered: an
    /// arrival-ordered `Vec`, a `retain` over every record on every
    /// call and a full `max_by_key` scan per lookup.
    struct ScanOracle {
        retention: SimDuration,
        records: Vec<ActivityRecord>,
    }

    impl ScanOracle {
        fn record(&mut self, start: SimTime, end: SimTime, kind: ActivityKind) {
            self.records.push(ActivityRecord {
                start,
                end: end.max(start),
                kind,
            });
            let cutoff = end.saturating_since(SimTime::ZERO);
            let horizon = cutoff.saturating_sub(self.retention);
            self.records
                .retain(|r| r.end.saturating_since(SimTime::ZERO) >= horizon);
        }

        fn activity_at(&self, t: SimTime) -> Option<ActivityKind> {
            self.records
                .iter()
                .filter(|r| r.covers(t))
                .max_by_key(|r| r.start)
                .map(|r| r.kind)
        }

        /// Overlapping records, stably sorted by start (the ordered
        /// server's order; arrival order breaks ties in both).
        fn records_between(&self, from: SimTime, to: SimTime) -> Vec<ActivityRecord> {
            let mut hits: Vec<ActivityRecord> = self
                .records
                .iter()
                .filter(|r| r.start <= to && r.end >= from)
                .copied()
                .collect();
            hits.sort_by_key(|r| r.start);
            hits
        }
    }

    #[test]
    fn ordered_server_matches_the_full_scan_oracle() {
        use symfail_sim_core::SimRng;
        let kinds = [
            ActivityKind::VoiceCall,
            ActivityKind::Message,
            ActivityKind::DataSession,
        ];
        let mut rng = SimRng::seed_from(0x1096);
        for case in 0..400 {
            let retention = SimDuration::from_secs(50 + rng.next_u64() % 2000);
            let mut fast = LogDbServer::with_retention(retention);
            let mut oracle = ScanOracle {
                retention,
                records: Vec::new(),
            };
            let mut clock = 0u64;
            for _ in 0..40 {
                // Mostly forward in time; sometimes the same start,
                // sometimes a start in the past.
                let start = match rng.index(6) {
                    0 => clock,
                    1 => clock.saturating_sub(rng.next_u64() % 3000),
                    _ => {
                        clock += rng.next_u64() % 600;
                        clock
                    }
                };
                // Zero length, end before start (clamped), a span that
                // outlives the retention, or an ordinary short span.
                let end = match rng.index(6) {
                    0 => start,
                    1 => start.saturating_sub(1 + rng.next_u64() % 100),
                    2 => start + 2 * retention.as_secs() + rng.next_u64() % 500,
                    _ => start + rng.next_u64() % 300,
                };
                let (start, end) = (SimTime::from_secs(start), SimTime::from_secs(end));
                let kind = *rng.choose(&kinds);
                fast.record(start, end, kind);
                oracle.record(start, end, kind);
                assert_eq!(fast.len(), oracle.records.len(), "case {case}");

                let mut probes = Vec::new();
                for r in &oracle.records {
                    for edge in [r.start, r.end] {
                        let ms = edge.as_millis();
                        probes.extend([ms.saturating_sub(1), ms, ms + 1]);
                    }
                }
                probes.push(end.as_millis() + 1000 * (rng.next_u64() % 5000));
                for &ms in &probes {
                    let t = SimTime::from_millis(ms);
                    assert_eq!(
                        fast.activity_at(t),
                        oracle.activity_at(t),
                        "case {case} t {ms}"
                    );
                }
                for pair in probes.windows(2).step_by(5) {
                    let (from, to) = (SimTime::from_millis(pair[0]), SimTime::from_millis(pair[1]));
                    assert_eq!(
                        fast.records_between(from, to),
                        oracle.records_between(from, to),
                        "case {case}"
                    );
                }
            }
        }
    }
}
