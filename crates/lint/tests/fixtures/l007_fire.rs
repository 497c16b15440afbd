//@path crates/relstore/src/fan_out_demo.rs
//! L007 positive: raw thread creation outside `crates/exec-pool`.

use std::thread;

pub fn fan_out(tasks: Vec<Box<dyn FnOnce() + Send>>) {
    let handles: Vec<_> = tasks.into_iter().map(|t| std::thread::spawn(t)).collect();
    for h in handles {
        let _joined = h.join();
    }
}

pub fn scoped_fan_out(items: &[u64]) -> u64 {
    let mut total = 0;
    thread::scope(|s| {
        let h = s.spawn(|| items.iter().sum::<u64>());
        total = h.join().unwrap_or(0);
    });
    total
}

pub fn named_worker() {
    let builder = thread::Builder::new().name("worker".into());
    let _handle = builder.spawn(|| {});
}
