//@path crates/orpheus-core/src/plan.rs
//! L003 positive: a wall-clock read in the plan module, where estimates
//! choose between plans and must not depend on timing.

use std::time::Instant;

pub fn estimate_rows(rlist_len: usize, selectivity: f64) -> u64 {
    let started = Instant::now();
    let rows = (rlist_len as f64 * selectivity).ceil() as u64;
    rows + started.elapsed().as_nanos() as u64 % 2
}
