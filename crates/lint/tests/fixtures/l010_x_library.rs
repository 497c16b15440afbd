//@path crates/pagestore/src/sampler.rs
//! L010 cross-file negative, half 2: a mutex guard held across
//! `AtomicU64::load`. Resolved by name across files, the call would
//! reach the test helper `load` in `l010_x_tests_helper.rs`, which
//! syncs — a blocking call that is not there.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct Sampler {
    seen: AtomicU64,
    log: Mutex<Vec<u64>>,
}

impl Sampler {
    pub fn note(&self) {
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        log.push(self.seen.load(Ordering::Relaxed));
    }
}
