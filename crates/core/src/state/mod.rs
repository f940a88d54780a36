//! The three kinds of operator state managed by the SPS (§3.1):
//!
//! * [`ProcessingState`] — the operator's summary of the tuple history it has
//!   processed, exposed as key/value pairs plus the timestamp vector of the
//!   most recent reflected tuples;
//! * [`BufferState`] — tuples held in an operator's output buffers that
//!   downstream operators have not yet acknowledged (needed for replay after
//!   failure and for dispatch after repartitioning);
//! * [`RoutingState`] — the mapping from key intervals to partitioned
//!   downstream operators, used to route output tuples.

mod buffer;
mod delta;
mod processing;
mod routing;

pub use buffer::BufferState;
pub use delta::{StateDelta, TrackedMap};
pub use processing::ProcessingState;
pub use routing::{RouteEntry, RoutingState};
