//@path crates/relstore/src/fan_out_demo.rs
//! L007 negative: a fan-out through the worker pool; raw threads
//! confined to `#[cfg(test)]`.

pub fn fan_out(pool: &exec_pool::WorkerPool, chunks: Vec<Vec<u64>>) -> Vec<u64> {
    let tasks: Vec<_> = chunks
        .into_iter()
        .map(|m| move |_worker: usize| m.iter().sum::<u64>())
        .collect();
    pool.run(tasks).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn concurrency_tests_may_spawn() {
        let h = std::thread::spawn(|| 2 + 2);
        assert_eq!(h.join().unwrap(), 4);
    }
}
