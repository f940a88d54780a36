//! The values whose bincode encodings are pinned by `tests/codec/golden.txt`.
//!
//! Every value here is deterministic: maps that iterate in hash order
//! (`TrafficStats`) hold at most one key, so their encoding does not depend
//! on the process's hash seed.

#![allow(dead_code)]

use bytes::Bytes;
use seep_core::{
    BufferState, Checkpoint, ExecutionGraph, IncrementalCheckpoint, Key, LogicalOpId, OperatorId,
    ProcessingState, QueryGraph, StreamId, TimestampVec, TrafficOp, TrafficStats, Tuple,
};
use seep_node::NodeMsg;
use seep_operators::lrb::types::{
    AccidentAlert, BalanceQuery, BalanceResponse, LrbRecord, PositionReport, TollNotification,
};
use seep_operators::word_count::{WordEntry, WordFrequency};
use seep_store::StoreConfig;

pub fn lrb_records() -> Vec<(&'static str, LrbRecord)> {
    vec![
        (
            "lrb_position",
            LrbRecord::Position(PositionReport {
                time: 4_321,
                vid: 1_000_017,
                speed: 63,
                xway: 2,
                lane: 4,
                dir: 1,
                seg: 99,
                pos: 527_999,
            }),
        ),
        (
            "lrb_balance",
            LrbRecord::Balance(BalanceQuery {
                time: 60,
                vid: 7,
                qid: 300_000,
            }),
        ),
        (
            "lrb_toll",
            LrbRecord::Toll(TollNotification {
                vid: 12,
                time: 5_400,
                xway: 0,
                seg: 17,
                lav: 38,
                toll: 2_450,
            }),
        ),
        (
            "lrb_accident",
            LrbRecord::Accident(AccidentAlert {
                vid: 3,
                time: 10_799,
                xway: 1,
                seg: 0,
            }),
        ),
        (
            "lrb_balance_response",
            LrbRecord::BalanceResponse(BalanceResponse {
                vid: 42,
                qid: 9,
                time: 86_400,
                balance: u64::MAX - 1,
            }),
        ),
    ]
}

pub fn word_entry() -> WordEntry {
    WordEntry {
        word: "naïve".to_string(),
        count: 128,
    }
}

pub fn word_frequency() -> WordFrequency {
    WordFrequency {
        word: "stream".to_string(),
        count: 3,
        window: 17,
    }
}

fn timestamps() -> TimestampVec {
    let mut ts = TimestampVec::new();
    ts.set(StreamId(1), 900);
    ts.set(StreamId(4), 12);
    ts
}

fn one_key_traffic(key: u64, times: usize) -> TrafficStats {
    let mut traffic = TrafficStats::new();
    for _ in 0..times {
        traffic.record(Key(key));
    }
    traffic
}

fn buffer() -> BufferState {
    let mut buffer = BufferState::new();
    buffer.push(OperatorId(3), Tuple::new(901, Key(5), vec![1u8, 2, 3]));
    buffer.push(
        OperatorId(3),
        Tuple::new(902, Key(u64::MAX), Vec::<u8>::new()),
    );
    buffer.push(OperatorId(8), Tuple::new(7, Key(0), b"payload".to_vec()));
    buffer
}

pub fn checkpoint() -> Checkpoint {
    let processing = ProcessingState::from_parts(
        [
            (Key(1), Bytes::from(vec![0u8, 255, 128])),
            (Key(1 << 40), Bytes::from("value")),
            (Key(u64::MAX), Bytes::new()),
        ],
        timestamps(),
    );
    Checkpoint::new(OperatorId(2), 41, processing, buffer())
        .with_emit_clock(77_777)
        .with_traffic(one_key_traffic(1 << 40, 3))
}

pub fn incremental_checkpoints() -> Vec<(&'static str, IncrementalCheckpoint)> {
    let base = checkpoint();
    let delta = |traffic: Vec<TrafficOp>| IncrementalCheckpoint {
        meta: seep_core::CheckpointMeta {
            operator: OperatorId(2),
            sequence: 42,
        },
        base_sequence: 41,
        changed: vec![(Key(9), Bytes::from(vec![9u8; 4]))],
        removed: vec![Key(1)],
        timestamps: timestamps(),
        buffer: base.buffer.clone(),
        emit_clock: 78_000,
        traffic,
    };
    vec![
        (
            "incremental_set",
            delta(vec![TrafficOp::Set(one_key_traffic(9, 2))]),
        ),
        (
            "incremental_add",
            delta(vec![TrafficOp::Add(one_key_traffic(1, 1))]),
        ),
        ("incremental_decay", delta(vec![TrafficOp::Decay])),
    ]
}

pub fn node_msgs() -> Vec<(&'static str, NodeMsg)> {
    vec![
        (
            "node_inject_many",
            NodeMsg::InjectMany {
                op: 0,
                batch: Bytes::from((0u8..=40).collect::<Vec<u8>>()),
            },
        ),
        (
            "node_state_bytes",
            NodeMsg::StateBytes {
                op: 7,
                bytes: Bytes::new(),
            },
        ),
    ]
}

pub fn execution_graph() -> ExecutionGraph {
    let mut b = QueryGraph::builder();
    let src = b.source("src");
    let split = b.stateless("word_splitter");
    let count = b.stateful("word_counter");
    let snk = b.sink("snk");
    b.connect(src, split);
    b.connect(split, count);
    b.connect(count, snk);
    let mut graph = ExecutionGraph::deploy(b.build().unwrap()).unwrap();
    let counter = graph.partitions(LogicalOpId(2))[0];
    graph.scale_out_instance(counter, 3).unwrap();
    graph
}

pub fn store_config() -> StoreConfig {
    StoreConfig::file("/var/lib/seep/store").with_fsync_every(8)
}
