//! `ORPHEUS_TRACE_SAMPLE` is one of the two variables a library still
//! reads: `Journal::from_env` takes the sampling rate from it when
//! `Server::start` builds the engine's database, and `benchmarks/loadgen`
//! measures the journal's overhead by setting it in-process around
//! `Server::start`. This file holds one test, so it runs in a process of
//! its own and may change the environment.

#![expect(
    clippy::disallowed_methods,
    reason = "this process sets the variable the journal reads"
)]

use obs::journal::SAMPLE_ENV;
use orpheus_server::{Client, EngineConfig, Server, ServerConfig};

/// Start a server, run a few commands on it, and return the number of
/// events its journal recorded.
fn journaled() -> u64 {
    let server = Server::start(ServerConfig {
        port: 0,
        workers: 2,
        engine: EngineConfig::default(),
    })
    .unwrap();
    let mut c = Client::connect(server.local_addr(), "sampler").unwrap();
    for line in ["whoami", "ls", "metrics"] {
        let reply = c.query(line).unwrap();
        assert_eq!(reply.error(), None, "{line}");
    }
    c.terminate().unwrap();
    let recorded = server.registry().counter("obs.journal.recorded");
    server.shutdown().unwrap();
    recorded
}

#[test]
fn a_zero_sample_set_before_start_journals_nothing() {
    std::env::set_var(SAMPLE_ENV, "1");
    assert!(journaled() > 0, "sampling every trace records events");
    std::env::set_var(SAMPLE_ENV, "0");
    assert_eq!(journaled(), 0, "a zero sample records no event");
    std::env::remove_var(SAMPLE_ENV);
}
