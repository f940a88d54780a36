//! The forwarder operator: routes tuples downstream according to their type
//! (§6.1).
//!
//! Position reports are re-keyed by `(xway, dir, seg)` so that the partitioned
//! toll calculators each own a contiguous slice of segments; balance queries
//! are re-keyed by vehicle so they reach the toll-assessment partition that
//! owns that vehicle's account. The forwarder itself is stateless — it was the
//! second-most partitioned operator in the paper's deployment purely because
//! of its per-tuple deserialisation cost. Only the key changes, so the output
//! carries the input's payload bytes: a forwarded record allocates nothing.

use seep_core::{OutputTuple, ProcessingState, StatefulOperator, StreamId, Tuple};

use super::types::LrbRecord;

/// Stateless LRB forwarder.
#[derive(Debug, Default)]
pub struct Forwarder {
    forwarded: u64,
    dropped: u64,
}

impl Forwarder {
    /// Create a forwarder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tuples forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Malformed tuples dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl StatefulOperator for Forwarder {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        let Ok(record) = tuple.decode::<LrbRecord>() else {
            self.dropped += 1;
            return;
        };
        let key = match &record {
            LrbRecord::Position(p) => p.segment_key(),
            LrbRecord::Balance(b) => b.vehicle_key(),
            // Result records should not flow through the forwarder; drop them
            // rather than re-injecting them into the pipeline.
            _ => {
                self.dropped += 1;
                return;
            }
        };
        out.push(OutputTuple::new(key, tuple.payload.clone()));
        self.forwarded += 1;
    }

    fn get_processing_state(&self) -> ProcessingState {
        ProcessingState::empty()
    }

    fn set_processing_state(&mut self, _state: ProcessingState) {}

    fn is_stateful(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "forwarder"
    }
}

#[cfg(test)]
mod tests {
    use super::super::types::{BalanceQuery, PositionReport};
    use super::*;
    use seep_core::Key;

    #[test]
    fn position_reports_are_keyed_by_segment() {
        let mut op = Forwarder::new();
        let report = PositionReport {
            time: 0,
            vid: 7,
            speed: 50,
            xway: 1,
            lane: 2,
            dir: 0,
            seg: 33,
            pos: 174_240,
        };
        let t = Tuple::encode(1, Key(0), &LrbRecord::Position(report)).unwrap();
        let mut out = Vec::new();
        op.process(StreamId(0), &t, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, report.segment_key());
        assert_eq!(op.forwarded(), 1);
    }

    #[test]
    fn balance_queries_are_keyed_by_vehicle() {
        let mut op = Forwarder::new();
        let query = BalanceQuery {
            time: 0,
            vid: 99,
            qid: 1,
        };
        let t = Tuple::encode(1, Key(0), &LrbRecord::Balance(query)).unwrap();
        let mut out = Vec::new();
        op.process(StreamId(0), &t, &mut out);
        assert_eq!(out[0].key, query.vehicle_key());
    }

    #[test]
    fn malformed_tuples_are_counted_and_dropped() {
        let mut op = Forwarder::new();
        let mut out = Vec::new();
        op.process(
            StreamId(0),
            &Tuple::new(1, Key(0), vec![0xde, 0xad]),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(op.dropped(), 1);
        assert!(!op.is_stateful());
    }

    /// A record of each variant with field values drawn from `gen`.
    fn records(gen: &mut proptest::Gen) -> Vec<LrbRecord> {
        use super::super::types::{
            AccidentAlert, BalanceQuery, BalanceResponse, PositionReport, TollNotification,
        };
        let mut n = || gen.next_u64();
        vec![
            LrbRecord::Position(PositionReport {
                time: n() as u32,
                vid: n() as u32,
                speed: n() as u8,
                xway: n() as u16,
                lane: n() as u8,
                dir: n() as u8,
                seg: n() as u16,
                pos: n() as u32,
            }),
            LrbRecord::Balance(BalanceQuery {
                time: n() as u32,
                vid: n() as u32,
                qid: n() as u32,
            }),
            LrbRecord::Toll(TollNotification {
                vid: n() as u32,
                time: n() as u32,
                xway: n() as u16,
                seg: n() as u16,
                lav: n() as u8,
                toll: n() as u32,
            }),
            LrbRecord::Accident(AccidentAlert {
                vid: n() as u32,
                time: n() as u32,
                xway: n() as u16,
                seg: n() as u16,
            }),
            LrbRecord::BalanceResponse(BalanceResponse {
                vid: n() as u32,
                qid: n() as u32,
                time: n() as u32,
                balance: n() >> (n() % 64),
            }),
        ]
    }

    #[test]
    fn a_forwarded_payload_equals_a_fresh_encode() {
        let mut gen = proptest::Gen::new(11);
        for _ in 0..256 {
            for record in records(&mut gen) {
                let mut op = Forwarder::new();
                let input = Tuple::encode(1, Key(0), &record).unwrap();
                let mut out = Vec::new();
                op.process(StreamId(0), &input, &mut out);
                match record {
                    LrbRecord::Position(p) => assert_eq!(out[0].key, p.segment_key()),
                    LrbRecord::Balance(b) => assert_eq!(out[0].key, b.vehicle_key()),
                    _ => {
                        assert!(out.is_empty(), "{record:?} is not forwarded");
                        continue;
                    }
                }
                let fresh = OutputTuple::encode(out[0].key, &record).unwrap();
                assert_eq!(out, vec![fresh], "{record:?}");
            }
        }
    }
}
