//! A coarse battery model.
//!
//! The logger only needs the battery *level* at sampling instants and
//! the low-battery flag, so the model is intentionally simple: linear
//! discharge over the waking day with activity-dependent extra drain,
//! and a full overnight recharge. Days on which the user forgets to
//! charge produce the `LOWBT` shutdowns the Power Manager exists to
//! classify.

use serde::{Deserialize, Serialize};

use symfail_sim_core::SimDuration;

/// The battery state of one phone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    level: f64,
    /// Percent drained per powered hour at idle.
    idle_drain_per_hour: f64,
    /// Extra percent drained per hour of calls/sessions.
    active_drain_per_hour: f64,
}

impl Battery {
    /// A fresh, fully charged battery with typical 2005-era drain
    /// rates (~2 days idle life).
    pub fn new() -> Self {
        Self {
            level: 100.0,
            idle_drain_per_hour: 2.2,
            active_drain_per_hour: 9.0,
        }
    }

    /// Current level in whole percent.
    pub fn percent(&self) -> u8 {
        self.level.clamp(0.0, 100.0).round() as u8
    }

    /// True when at or below the 5% low-battery threshold.
    pub fn is_low(&self) -> bool {
        self.level <= 5.0
    }

    /// Drains for `elapsed` of idle operation plus `active` of
    /// activity (calls, camera, sessions).
    pub fn drain(&mut self, elapsed: SimDuration, active: SimDuration) {
        let idle_h = elapsed.as_hours_f64();
        let act_h = active.as_hours_f64().min(idle_h);
        self.level -= idle_h * self.idle_drain_per_hour + act_h * self.active_drain_per_hour;
        self.level = self.level.max(0.0);
    }

    /// Overnight charge to full.
    pub fn recharge_full(&mut self) {
        self.level = 100.0;
    }

    /// Partial recharge (forgot the charger; plugged briefly).
    pub fn recharge_to(&mut self, percent: f64) {
        self.level = self.level.max(percent.clamp(0.0, 100.0));
    }
}

impl Default for Battery {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_battery_full() {
        let b = Battery::new();
        assert_eq!(b.percent(), 100);
        assert!(!b.is_low());
    }

    #[test]
    fn drains_with_time_and_activity() {
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(10), SimDuration::ZERO);
        let idle_only = b.percent();
        assert!(idle_only < 100);
        let mut c = Battery::new();
        c.drain(SimDuration::from_hours(10), SimDuration::from_hours(2));
        assert!(c.percent() < idle_only, "activity drains more");
    }

    #[test]
    fn never_negative_and_low_flag() {
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(1000), SimDuration::from_hours(1000));
        assert_eq!(b.percent(), 0);
        assert!(b.is_low());
    }

    #[test]
    fn recharge() {
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(30), SimDuration::ZERO);
        b.recharge_to(50.0);
        assert_eq!(b.percent(), 50);
        b.recharge_to(20.0);
        assert_eq!(b.percent(), 50, "recharge_to never discharges");
        b.recharge_full();
        assert_eq!(b.percent(), 100);
    }

    /// Pins a known model gap, left unfixed: the device loop charges
    /// calls and sessions with `drain(ZERO, duration)`, and because
    /// active time is clamped to elapsed time those calls drain
    /// nothing. Fixing it changes the `power` and panic-record flash
    /// bytes (see DESIGN.md §7.12).
    #[test]
    fn active_drain_without_elapsed_time_is_a_no_op() {
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(3), SimDuration::ZERO);
        let before = b;
        b.drain(SimDuration::ZERO, SimDuration::from_hours(1));
        assert_eq!(b, before);
    }

    #[test]
    fn active_time_clamped_to_elapsed() {
        let mut a = Battery::new();
        a.drain(SimDuration::from_hours(1), SimDuration::from_hours(50));
        let mut b = Battery::new();
        b.drain(SimDuration::from_hours(1), SimDuration::from_hours(1));
        assert_eq!(a.percent(), b.percent());
    }
}
