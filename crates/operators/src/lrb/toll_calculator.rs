//! The toll calculator: the main computational bottleneck of the LRB query
//! (§6.1 — "the main computational bottleneck in the query, the toll
//! calculator, is partitioned the most by the system").
//!
//! State is keyed by segment `(xway, dir, seg)` and holds, per segment, the
//! statistics LRB needs to price a toll:
//!
//! * the set of vehicles seen in the current and the previous minute
//!   (congestion),
//! * a moving average of reported speeds (LAV — latest average velocity),
//! * stopped-vehicle tracking for accident detection (a vehicle reporting the
//!   same position four consecutive times marks an accident; the segment then
//!   charges no toll until the accident clears).
//!
//! Tolls follow the benchmark's formula: when the average speed is below
//! 40 mph and more than 50 vehicles used the segment in the previous minute,
//! `toll = 2 × (vehicles − 50)²` cents, otherwise 0. A toll notification is
//! emitted for the first report of each vehicle in a segment per minute,
//! keyed by vehicle so the downstream toll assessment partitions by account.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use seep_core::{
    BatchOutput, Key, OutputTuple, ProcessingState, StateDelta, StatefulOperator, StreamId,
    TrackedMap, Tuple,
};

use super::types::{AccidentAlert, LrbRecord, PositionReport, TollNotification};

/// Number of identical consecutive position reports that mark a stopped car
/// as an accident (the benchmark uses 4).
const STOPPED_REPORTS_FOR_ACCIDENT: u8 = 4;

/// Speed threshold (mph) below which a congested segment charges tolls.
const LAV_TOLL_THRESHOLD: f64 = 40.0;

/// Vehicle count above which a segment is congested.
const CONGESTION_THRESHOLD: u64 = 50;

/// Per-segment statistics (the value stored per key in the processing state).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentStats {
    /// Minute currently being accumulated.
    pub current_minute: u32,
    /// Vehicles that reported in the current minute.
    pub vehicles_current: Vec<u32>,
    /// Vehicles that reported in the previous minute (used for tolls).
    pub vehicles_previous: Vec<u32>,
    /// Sum of speeds reported in the current minute.
    pub speed_sum: f64,
    /// Number of speed samples in the current minute.
    pub speed_count: u64,
    /// Latest average velocity carried over from closed minutes.
    pub lav: f64,
    /// Stopped-vehicle tracking: vid → (position, consecutive stopped reports).
    pub stopped: BTreeMap<u32, (u32, u8)>,
    /// Vehicle that caused an active accident, if any.
    pub accident_vid: Option<u32>,
    /// Total tolls charged in this segment (cents) — useful for validation.
    pub tolls_charged: u64,
}

impl SegmentStats {
    fn roll_minute(&mut self, minute: u32) {
        if minute == self.current_minute {
            return;
        }
        // Close the current minute: LAV becomes the minute's average speed,
        // the vehicle set shifts to "previous".
        if self.speed_count > 0 {
            self.lav = self.speed_sum / self.speed_count as f64;
        }
        self.vehicles_previous = std::mem::take(&mut self.vehicles_current);
        self.speed_sum = 0.0;
        self.speed_count = 0;
        self.current_minute = minute;
    }

    /// The toll charged per vehicle entering this segment right now.
    pub fn current_toll(&self) -> u32 {
        if self.accident_vid.is_some() {
            return 0;
        }
        let vehicles = self.vehicles_previous.len() as u64;
        if self.lav > 0.0 && self.lav < LAV_TOLL_THRESHOLD && vehicles > CONGESTION_THRESHOLD {
            let over = vehicles - CONGESTION_THRESHOLD;
            (2 * over * over) as u32
        } else {
            0
        }
    }
}

/// The stateful toll calculator.
#[derive(Debug, Default)]
pub struct TollCalculator {
    segments: TrackedMap<SegmentStats>,
}

impl TollCalculator {
    /// Create a toll calculator with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of segments with state.
    pub fn tracked_segments(&self) -> usize {
        self.segments.len()
    }

    /// The statistics of a segment, if tracked.
    pub fn segment(&self, key: Key) -> Option<&SegmentStats> {
        self.segments.get(key)
    }

    fn handle_report(&mut self, report: &PositionReport, out: &mut Vec<OutputTuple>) {
        let key = report.segment_key();
        let stats = self.segments.get_or_insert_with(key, SegmentStats::default);
        let minute = report.time / 60;
        stats.roll_minute(minute);

        // Speed statistics.
        stats.speed_sum += f64::from(report.speed);
        stats.speed_count += 1;

        // Accident detection: a stopped vehicle (speed 0) reporting the same
        // position repeatedly.
        if report.speed == 0 {
            let entry = stats.stopped.entry(report.vid).or_insert((report.pos, 0));
            if entry.0 == report.pos {
                entry.1 = entry.1.saturating_add(1);
            } else {
                *entry = (report.pos, 1);
            }
            if entry.1 >= STOPPED_REPORTS_FOR_ACCIDENT && stats.accident_vid.is_none() {
                stats.accident_vid = Some(report.vid);
                let alert = AccidentAlert {
                    vid: report.vid,
                    time: report.time,
                    xway: report.xway,
                    seg: report.seg,
                };
                if let Ok(t) =
                    OutputTuple::encode(report.vehicle_key(), &LrbRecord::Accident(alert))
                {
                    out.push(t);
                }
            }
        } else {
            // The vehicle moved: clear its stopped tracking and, if it was the
            // accident vehicle, clear the accident.
            stats.stopped.remove(&report.vid);
            if stats.accident_vid == Some(report.vid) {
                stats.accident_vid = None;
            }
        }

        // Toll notification for the first report of this vehicle in the
        // current minute (i.e. when it "enters" the segment for toll purposes).
        if !stats.vehicles_current.contains(&report.vid) {
            stats.vehicles_current.push(report.vid);
            let toll = stats.current_toll();
            stats.tolls_charged += u64::from(toll);
            let notification = TollNotification {
                vid: report.vid,
                time: report.time,
                xway: report.xway,
                seg: report.seg,
                lav: stats.lav.round().clamp(0.0, 255.0) as u8,
                toll,
            };
            if let Ok(t) = OutputTuple::encode(report.vehicle_key(), &LrbRecord::Toll(notification))
            {
                out.push(t);
            }
        }
    }
}

impl StatefulOperator for TollCalculator {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        let Ok(record) = tuple.decode::<LrbRecord>() else {
            return;
        };
        if let LrbRecord::Position(report) = record {
            self.handle_report(&report, out);
        }
        // Balance queries are not for this operator; ignore them.
    }

    // Hand-rolled batch loop: decode once per tuple and reuse one scratch
    // vector for the occasional accident/toll emission, attributing each
    // output to the position report that caused it.
    fn process_batch(&mut self, _stream: StreamId, tuples: &[Tuple], out: &mut BatchOutput) {
        let mut scratch = Vec::new();
        for (index, tuple) in tuples.iter().enumerate() {
            let Ok(record) = tuple.decode::<LrbRecord>() else {
                continue;
            };
            if let LrbRecord::Position(report) = record {
                self.handle_report(&report, &mut scratch);
                if !scratch.is_empty() {
                    out.absorb(index, &mut scratch);
                }
            }
        }
    }

    fn get_processing_state(&self) -> ProcessingState {
        self.segments.snapshot()
    }

    fn set_processing_state(&mut self, state: ProcessingState) {
        self.segments.restore_from(&state);
    }

    fn take_state_delta(&mut self) -> StateDelta {
        self.segments.take_delta()
    }

    fn name(&self) -> &str {
        "toll_calculator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(time: u32, vid: u32, speed: u8, seg: u16) -> PositionReport {
        PositionReport {
            time,
            vid,
            speed,
            xway: 0,
            lane: 1,
            dir: 0,
            seg,
            pos: u32::from(seg) * 5280 + if speed == 0 { 0 } else { time },
        }
    }

    fn feed(op: &mut TollCalculator, r: PositionReport) -> Vec<LrbRecord> {
        let t = Tuple::encode(
            u64::from(r.time) + 1,
            r.segment_key(),
            &LrbRecord::Position(r),
        )
        .unwrap();
        let mut out = Vec::new();
        op.process(StreamId(0), &t, &mut out);
        out.iter()
            .map(|o| o.clone().with_ts(0).decode().unwrap())
            .collect()
    }

    #[test]
    fn first_report_per_vehicle_per_minute_gets_a_notification() {
        let mut op = TollCalculator::new();
        let outs = feed(&mut op, report(10, 1, 55, 3));
        assert_eq!(outs.len(), 1);
        assert!(matches!(outs[0], LrbRecord::Toll(t) if t.vid == 1 && t.toll == 0));
        // Second report of the same vehicle in the same minute: no new toll.
        let outs = feed(&mut op, report(40, 1, 55, 3));
        assert!(outs.is_empty());
        // A new minute triggers a new notification.
        let outs = feed(&mut op, report(70, 1, 55, 3));
        assert_eq!(outs.len(), 1);
        assert_eq!(op.tracked_segments(), 1);
    }

    #[test]
    fn congested_slow_segment_charges_quadratic_toll() {
        let mut op = TollCalculator::new();
        // Minute 0: 60 distinct slow vehicles use segment 5.
        for vid in 0..60 {
            feed(&mut op, report(10, vid, 20, 5));
        }
        // Minute 1: a fresh vehicle enters; lav < 40 and 60 > 50 vehicles in
        // the previous minute → toll = 2 * (60 - 50)^2 = 200.
        let outs = feed(&mut op, report(65, 1000, 20, 5));
        let toll = outs
            .iter()
            .find_map(|o| match o {
                LrbRecord::Toll(t) => Some(t.toll),
                _ => None,
            })
            .unwrap();
        assert_eq!(toll, 200);
    }

    #[test]
    fn fast_segment_charges_nothing() {
        let mut op = TollCalculator::new();
        for vid in 0..60 {
            feed(&mut op, report(10, vid, 70, 6));
        }
        let outs = feed(&mut op, report(65, 1000, 70, 6));
        let toll = outs
            .iter()
            .find_map(|o| match o {
                LrbRecord::Toll(t) => Some(t.toll),
                _ => None,
            })
            .unwrap();
        assert_eq!(toll, 0, "lav >= 40 must not be tolled");
    }

    #[test]
    fn accident_is_detected_after_four_stopped_reports_and_suppresses_tolls() {
        let mut op = TollCalculator::new();
        // Congest the segment in minute 0 so it would otherwise charge.
        for vid in 0..60 {
            feed(&mut op, report(10, vid, 20, 7));
        }
        // Vehicle 500 stops and reports the same position four times (minute 1).
        let mut accident_seen = false;
        for i in 0..4 {
            let outs = feed(&mut op, report(60 + i * 30, 500, 0, 7));
            accident_seen |= outs.iter().any(|o| matches!(o, LrbRecord::Accident(_)));
        }
        assert!(accident_seen, "accident alert expected");
        // A vehicle entering during the accident pays nothing.
        let outs = feed(&mut op, report(185, 900, 20, 7));
        let toll = outs
            .iter()
            .find_map(|o| match o {
                LrbRecord::Toll(t) => Some(t.toll),
                _ => None,
            })
            .unwrap();
        assert_eq!(toll, 0, "accident suppresses tolls");
        // The stopped car drives off: the accident clears.
        feed(&mut op, report(215, 500, 45, 7));
        let key = report(215, 500, 45, 7).segment_key();
        assert!(op.segment(key).unwrap().accident_vid.is_none());
    }

    #[test]
    fn state_roundtrip_preserves_segment_statistics() {
        let mut op = TollCalculator::new();
        for vid in 0..10 {
            feed(&mut op, report(10, vid, 30, 2));
        }
        let state = op.get_processing_state();
        assert!(state.size_bytes() > 0);
        let mut restored = TollCalculator::new();
        restored.set_processing_state(state);
        assert_eq!(restored.tracked_segments(), 1);
        let key = report(10, 0, 30, 2).segment_key();
        assert_eq!(restored.segment(key).unwrap().vehicles_current.len(), 10);
    }

    #[test]
    fn balance_queries_and_garbage_are_ignored() {
        let mut op = TollCalculator::new();
        let q = super::super::types::BalanceQuery {
            time: 1,
            vid: 1,
            qid: 1,
        };
        let t = Tuple::encode(1, Key(0), &LrbRecord::Balance(q)).unwrap();
        let mut out = Vec::new();
        op.process(StreamId(0), &t, &mut out);
        op.process(StreamId(0), &Tuple::new(2, Key(0), vec![0xff]), &mut out);
        assert!(out.is_empty());
        assert_eq!(op.tracked_segments(), 0);
    }

    #[test]
    fn state_partitions_by_segment_key() {
        use seep_core::KeyRange;
        let mut op = TollCalculator::new();
        for seg in 0..20 {
            feed(&mut op, report(10, 1, 50, seg));
        }
        let parts = op
            .get_processing_state()
            .partition_by_ranges(&KeyRange::full().split_even(4).unwrap());
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 20);
        // Each partition restores into a working calculator.
        let restored: usize = parts
            .iter()
            .map(|p| {
                let mut c = TollCalculator::new();
                c.set_processing_state(p.clone());
                c.tracked_segments()
            })
            .sum();
        assert_eq!(restored, 20);
    }
}
