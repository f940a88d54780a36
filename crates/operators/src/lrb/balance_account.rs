//! The balance account operator: receives the balance-query responses from
//! the (partitioned) toll assessment operators and aggregates them per vehicle
//! (§6.1 — "the stateful balance account operator receives the balance account
//! notifications and aggregates the results").
//!
//! Its state is keyed by vehicle and records, per account, the latest reported
//! balance and how many query responses have been aggregated — so the sink can
//! read a single consolidated record per vehicle even when the toll assessment
//! upstream is partitioned.

use serde::{Deserialize, Serialize};

use seep_core::{
    Key, OutputTuple, ProcessingState, StateDelta, StatefulOperator, StreamId, TrackedMap, Tuple,
};

use super::types::LrbRecord;

/// Aggregated view of one vehicle's account.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountSummary {
    /// Latest balance reported for the vehicle (cents).
    pub latest_balance: u64,
    /// Highest balance ever reported (balances are monotonic under correct
    /// processing, so this equals `latest_balance` unless responses re-order).
    pub max_balance: u64,
    /// Number of balance responses aggregated.
    pub responses: u64,
    /// Simulation time of the latest response.
    pub latest_time: u32,
}

/// The stateful balance-account aggregator.
#[derive(Debug, Default)]
pub struct BalanceAccount {
    summaries: TrackedMap<AccountSummary>,
}

impl BalanceAccount {
    /// Create the operator with no summaries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vehicles with an aggregated summary.
    pub fn tracked_vehicles(&self) -> usize {
        self.summaries.len()
    }

    /// The summary for a vehicle, if any responses were seen.
    pub fn summary_of(&self, vid: u32) -> Option<&AccountSummary> {
        self.summaries.get(Key::from_u64(u64::from(vid)))
    }
}

impl StatefulOperator for BalanceAccount {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        let Ok(LrbRecord::BalanceResponse(resp)) = tuple.decode::<LrbRecord>() else {
            return;
        };
        let key = Key::from_u64(u64::from(resp.vid));
        let summary = self
            .summaries
            .get_or_insert_with(key, AccountSummary::default);
        if resp.time >= summary.latest_time {
            summary.latest_time = resp.time;
            summary.latest_balance = resp.balance;
        }
        summary.max_balance = summary.max_balance.max(resp.balance);
        summary.responses += 1;
        // Forward the (consolidated) response to the sink.
        if let Ok(t) = OutputTuple::encode(key, &LrbRecord::BalanceResponse(resp)) {
            out.push(t);
        }
    }

    fn get_processing_state(&self) -> ProcessingState {
        self.summaries.snapshot()
    }

    fn set_processing_state(&mut self, state: ProcessingState) {
        self.summaries.restore_from(&state);
    }

    fn take_state_delta(&mut self) -> StateDelta {
        self.summaries.take_delta()
    }

    fn name(&self) -> &str {
        "balance_account"
    }
}

#[cfg(test)]
mod tests {
    use super::super::types::BalanceResponse;
    use super::*;

    fn response(vid: u32, qid: u32, time: u32, balance: u64) -> Tuple {
        let r = BalanceResponse {
            vid,
            qid,
            time,
            balance,
        };
        Tuple::encode(
            u64::from(time),
            Key::from_u64(u64::from(vid)),
            &LrbRecord::BalanceResponse(r),
        )
        .unwrap()
    }

    #[test]
    fn aggregates_latest_balance_per_vehicle() {
        let mut op = BalanceAccount::new();
        let mut out = Vec::new();
        op.process(StreamId(0), &response(1, 10, 100, 50), &mut out);
        op.process(StreamId(0), &response(1, 11, 200, 150), &mut out);
        op.process(StreamId(0), &response(2, 12, 150, 70), &mut out);
        assert_eq!(op.tracked_vehicles(), 2);
        let s = op.summary_of(1).unwrap();
        assert_eq!(s.latest_balance, 150);
        assert_eq!(s.responses, 2);
        assert_eq!(s.latest_time, 200);
        assert_eq!(out.len(), 3, "responses are forwarded to the sink");
    }

    #[test]
    fn out_of_order_responses_keep_latest_by_time() {
        let mut op = BalanceAccount::new();
        let mut out = Vec::new();
        op.process(StreamId(0), &response(3, 1, 300, 500), &mut out);
        op.process(StreamId(0), &response(3, 2, 200, 100), &mut out); // older
        let s = op.summary_of(3).unwrap();
        assert_eq!(s.latest_balance, 500);
        assert_eq!(s.max_balance, 500);
        assert_eq!(s.responses, 2);
    }

    #[test]
    fn non_response_records_are_ignored() {
        let mut op = BalanceAccount::new();
        let mut out = Vec::new();
        let q = super::super::types::BalanceQuery {
            time: 1,
            vid: 1,
            qid: 1,
        };
        let t = Tuple::encode(1, Key(0), &LrbRecord::Balance(q)).unwrap();
        op.process(StreamId(0), &t, &mut out);
        op.process(StreamId(0), &Tuple::new(1, Key(0), vec![0xff]), &mut out);
        assert_eq!(op.tracked_vehicles(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn state_roundtrip() {
        let mut op = BalanceAccount::new();
        let mut out = Vec::new();
        for vid in 0..20 {
            op.process(StreamId(0), &response(vid, 1, 10, 33), &mut out);
        }
        let state = op.get_processing_state();
        let mut restored = BalanceAccount::new();
        restored.set_processing_state(state);
        assert_eq!(restored.tracked_vehicles(), 20);
        assert_eq!(restored.summary_of(5).unwrap().latest_balance, 33);
    }
}
