//! The toll assessment operator: maintains per-vehicle account balances,
//! charges the tolls notified by the toll calculator and answers account
//! balance queries (§6.1).
//!
//! State is keyed by vehicle id, so both toll notifications (keyed by vehicle
//! by the toll calculator) and balance queries (keyed by vehicle by the
//! forwarder) reach the partition that owns the account.

use serde::{Deserialize, Serialize};

use seep_core::{
    Key, OutputTuple, ProcessingState, StateDelta, StatefulOperator, StreamId, TrackedMap, Tuple,
};

use super::types::{BalanceResponse, LrbRecord};

/// Per-vehicle account state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Account {
    /// Accumulated tolls in cents.
    pub balance: u64,
    /// Number of tolls charged.
    pub charges: u64,
    /// Number of balance queries answered.
    pub queries: u64,
}

/// The stateful toll assessment operator.
#[derive(Debug, Default)]
pub struct TollAssessment {
    accounts: TrackedMap<Account>,
}

impl TollAssessment {
    /// Create the operator with no accounts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vehicle accounts tracked.
    pub fn tracked_accounts(&self) -> usize {
        self.accounts.len()
    }

    /// Current balance of a vehicle, if it has an account.
    pub fn balance_of(&self, vid: u32) -> Option<u64> {
        self.accounts
            .get(Key::from_u64(u64::from(vid)))
            .map(|a| a.balance)
    }
}

impl StatefulOperator for TollAssessment {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        let Ok(record) = tuple.decode::<LrbRecord>() else {
            return;
        };
        match record {
            LrbRecord::Toll(toll) => {
                if toll.toll > 0 {
                    let account = self
                        .accounts
                        .get_or_insert_with(Key::from_u64(u64::from(toll.vid)), Account::default);
                    account.balance += u64::from(toll.toll);
                    account.charges += 1;
                }
                // Toll notifications are also forwarded downstream so the
                // collector/sink can check the 5 s notification deadline.
                if let Ok(t) =
                    OutputTuple::encode(Key::from_u64(u64::from(toll.vid)), &LrbRecord::Toll(toll))
                {
                    out.push(t);
                }
            }
            LrbRecord::Balance(query) => {
                let account = self
                    .accounts
                    .get_or_insert_with(query.vehicle_key(), Account::default);
                account.queries += 1;
                let response = BalanceResponse {
                    vid: query.vid,
                    qid: query.qid,
                    time: query.time,
                    balance: account.balance,
                };
                if let Ok(t) =
                    OutputTuple::encode(query.vehicle_key(), &LrbRecord::BalanceResponse(response))
                {
                    out.push(t);
                }
            }
            // Position reports, accident alerts and balance responses are not
            // for this operator.
            _ => {}
        }
    }

    fn get_processing_state(&self) -> ProcessingState {
        self.accounts.snapshot()
    }

    fn set_processing_state(&mut self, state: ProcessingState) {
        self.accounts.restore_from(&state);
    }

    fn take_state_delta(&mut self) -> StateDelta {
        self.accounts.take_delta()
    }

    fn name(&self) -> &str {
        "toll_assessment"
    }
}

#[cfg(test)]
mod tests {
    use super::super::types::{BalanceQuery, TollNotification};
    use super::*;

    fn toll_tuple(vid: u32, toll: u32) -> Tuple {
        let n = TollNotification {
            vid,
            time: 100,
            xway: 0,
            seg: 1,
            lav: 30,
            toll,
        };
        Tuple::encode(1, Key::from_u64(u64::from(vid)), &LrbRecord::Toll(n)).unwrap()
    }

    fn query_tuple(vid: u32, qid: u32) -> Tuple {
        let q = BalanceQuery {
            time: 200,
            vid,
            qid,
        };
        Tuple::encode(2, q.vehicle_key(), &LrbRecord::Balance(q)).unwrap()
    }

    #[test]
    fn tolls_accumulate_per_vehicle() {
        let mut op = TollAssessment::new();
        let mut out = Vec::new();
        op.process(StreamId(0), &toll_tuple(1, 100), &mut out);
        op.process(StreamId(0), &toll_tuple(1, 50), &mut out);
        op.process(StreamId(0), &toll_tuple(2, 10), &mut out);
        assert_eq!(op.balance_of(1), Some(150));
        assert_eq!(op.balance_of(2), Some(10));
        assert_eq!(op.balance_of(3), None);
        // Toll notifications pass through for the collector.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn zero_tolls_are_not_charged_but_still_forwarded() {
        let mut op = TollAssessment::new();
        let mut out = Vec::new();
        op.process(StreamId(0), &toll_tuple(5, 0), &mut out);
        assert_eq!(op.balance_of(5), None, "no account created for a zero toll");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn balance_queries_reflect_charged_tolls() {
        let mut op = TollAssessment::new();
        let mut out = Vec::new();
        op.process(StreamId(0), &toll_tuple(7, 250), &mut out);
        out.clear();
        op.process(StreamId(1), &query_tuple(7, 42), &mut out);
        assert_eq!(out.len(), 1);
        let resp: LrbRecord = out[0].clone().with_ts(0).decode().unwrap();
        match resp {
            LrbRecord::BalanceResponse(b) => {
                assert_eq!(b.vid, 7);
                assert_eq!(b.qid, 42);
                assert_eq!(b.balance, 250);
            }
            other => panic!("expected balance response, got {other:?}"),
        }
        // A query for an unknown vehicle returns a zero balance.
        out.clear();
        op.process(StreamId(1), &query_tuple(99, 43), &mut out);
        match out[0].clone().with_ts(0).decode().unwrap() {
            LrbRecord::BalanceResponse(b) => assert_eq!(b.balance, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_roundtrip_and_partitioning() {
        use seep_core::KeyRange;
        let mut op = TollAssessment::new();
        let mut out = Vec::new();
        for vid in 0..50 {
            op.process(StreamId(0), &toll_tuple(vid, 100), &mut out);
        }
        let state = op.get_processing_state();
        let mut restored = TollAssessment::new();
        restored.set_processing_state(state.clone());
        assert_eq!(restored.tracked_accounts(), 50);
        assert_eq!(restored.balance_of(10), Some(100));

        let parts = state.partition_by_ranges(&KeyRange::full().split_even(3).unwrap());
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn garbage_payloads_are_ignored() {
        let mut op = TollAssessment::new();
        let mut out = Vec::new();
        op.process(
            StreamId(0),
            &Tuple::new(1, Key(0), vec![0xff, 0xee]),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(op.tracked_accounts(), 0);
    }
}
