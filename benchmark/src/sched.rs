//! The open-loop schedule: slot `i` is due at `start + i × period`, whatever
//! happened to the slots before it.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct SlotSchedule {
    start: Instant,
    period: Duration,
}

impl SlotSchedule {
    pub fn new(start: Instant, period: Duration) -> Self {
        SlotSchedule { start, period }
    }

    /// When slot `index` is due. A function of the index alone, so a slot
    /// that ran late never moves the due time of a later one.
    pub fn due(&self, index: u64) -> Instant {
        self.start + self.period.mul_f64(index as f64)
    }

    /// Block until slot `index` is due and return how late the caller
    /// actually is (zero if it was on time).
    pub fn wait_for(&self, index: u64) -> Duration {
        let due = self.due(index);
        loop {
            let now = Instant::now();
            if now >= due {
                return now - due;
            }
            let left = due - now;
            // Sleep most of the wait, then spin the last stretch: the
            // kernel's wake-up is too coarse for a 5 ms slot.
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_slot_never_moves_later_due_times() {
        let start = Instant::now();
        let schedule = SlotSchedule::new(start, Duration::from_millis(2));
        let due_before: Vec<Instant> = (0..6).map(|i| schedule.due(i)).collect();

        // Slot 1 stalls for several periods.
        schedule.wait_for(1);
        std::thread::sleep(Duration::from_millis(7));

        // Later slots are still due where they were, so they report how
        // late they are instead of being pushed back.
        let due_after: Vec<Instant> = (0..6).map(|i| schedule.due(i)).collect();
        assert_eq!(due_before, due_after);
        assert_eq!(schedule.due(3), start + Duration::from_millis(6));
        let lag = schedule.wait_for(2);
        assert!(lag >= Duration::from_millis(4), "lag was {lag:?}");
    }

    #[test]
    fn wait_returns_no_earlier_than_the_due_time() {
        let schedule = SlotSchedule::new(Instant::now(), Duration::from_millis(3));
        schedule.wait_for(2);
        assert!(Instant::now() >= schedule.due(2));
    }
}
