//! Set-up, measured rounds, and the end-to-end metrics.

use crate::check::{self, Ack, Observed, FULL_CHECK_EVERY};
use crate::data::{self, Oracle, Source, CVD};
use crate::script::{client_script, Class, Op, Unit};
use crate::stats::{median, p50};
use crate::target::{brief, expect_ok, tag, Target, Wire};
use crate::workload::{Spec, CLIENTS, SESSION_WORKERS};
use orpheus_server::{EngineConfig, Server, ServerConfig, ServerMsg};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is repeated and its median reported, so one slow seeding does
/// not read as a regression.
pub const SETUP_REPS: usize = 3;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn engine_config(spec: &Spec, data_dir: Option<&Path>) -> EngineConfig {
    EngineConfig {
        data_dir: data_dir.map(Path::to_path_buf),
        pool_pages: spec.pool_pages(),
        threads: 1,
        ..EngineConfig::default()
    }
}

pub fn start_server(spec: &Spec, data_dir: Option<&Path>) -> Result<Server, String> {
    Server::start(ServerConfig {
        port: 0,
        workers: SESSION_WORKERS,
        engine: engine_config(spec, data_dir),
    })
    .map_err(|e| format!("starting the server: {e}"))
}

pub fn stop_server(server: Server) -> Result<(), String> {
    server
        .shutdown()
        .map_err(|e| format!("stopping the server: {e}"))
}

/// Start a server on `data_dir` and time it to its first reply.
pub fn start_and_probe(spec: &Spec, data_dir: Option<&Path>) -> Result<(Server, Duration), String> {
    let started = Instant::now();
    let server = start_server(spec, data_dir)?;
    let mut probe = Wire::connect(server.local_addr(), "probe")?;
    expect_ok(&mut probe, "whoami")?;
    let took = started.elapsed();
    probe.close()?;
    Ok((server, took))
}

/// Copy a (flat) data directory and wait for the copy to reach the device,
/// so the kernel is not still writing it back while the next phase is timed.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {} to {}: {e}", from.display(), to.display());
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(io)?;
    }
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    settle_disk();
    Ok(())
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

extern "C" {
    /// glibc: return freed heap pages to the operating system.
    fn malloc_trim(pad: usize) -> i32;
    /// POSIX: write every dirty buffer of the system to its device.
    fn sync();
}

/// Wait until everything written so far (seeded stores, deleted scratch
/// directories) has reached the device, so its write-back does not compete
/// with the fsyncs of the phase that is timed next.
pub fn settle_disk() {
    // SAFETY: `sync` takes no arguments and touches no memory of ours.
    unsafe { sync() };
}

/// `VmRSS` with freed heap given back first, as the baseline a server's
/// memory is measured against: without the trim, memory freed by set-up
/// is silently reused and the growth reads low by a varying amount.
pub fn rss_baseline_kb() -> f64 {
    // SAFETY: `malloc_trim` takes no pointers and only releases pages the
    // allocator holds free; it is safe to call at any time from any thread.
    unsafe { malloc_trim(0) };
    rss_kb()
}

/// `VmRSS` of this process in KiB.
pub fn rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|l| l.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The share of CPU time the hypervisor gave to someone else since this
/// was started (`steal` in `/proc/stat`). The sandbox is a virtual machine
/// whose neighbours take 25–75% of it for minutes at a time; a second the
/// hypervisor withheld is not a second the program had, so timed phases
/// are scaled by `1 - share` (see README § Steadiness). 0 where the
/// kernel reports no steal.
pub struct StealMeter {
    steal: f64,
    total: f64,
}

impl StealMeter {
    fn read() -> (f64, f64) {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        let total = fields.iter().take(8).sum();
        (fields.get(7).copied().unwrap_or(0.0), total)
    }

    pub fn start() -> StealMeter {
        let (steal, total) = StealMeter::read();
        StealMeter { steal, total }
    }

    pub fn share(&self) -> f64 {
        let (steal, total) = StealMeter::read();
        crate::stats::ratio(steal - self.steal, total - self.total).clamp(0.0, 0.95)
    }
}

/// A workload set up and ready for rounds.
pub struct Prepared {
    pub oracle: Oracle,
    /// The seeded data directory of a durable workload, cleanly shut down.
    pub seed_dir: Option<PathBuf>,
    /// The running server of a workload whose rounds change nothing.
    pub server: Option<Server>,
    pub setup_s: f64,
    /// `VmRSS` just before the kept server was started (KiB).
    pub rss_before_kb: f64,
}

/// Generate the inputs from `seed`, seed the store, start the server and
/// wait for its first reply: everything a user waits for before the first
/// request. The server is left running only for read-only workloads.
pub fn setup(spec: &'static Spec, seed: u64, scratch: &Path) -> Result<Prepared, String> {
    let started = Instant::now();
    let stolen = StealMeter::start();
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let (oracle, seed_dir, server, rss_before_kb);
    if spec.durable {
        let dir = scratch.join("seed");
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        oracle = data::generate_oracle(spec.source, seed);
        data::seed_durable(&dir, &oracle, spec.pool_pages())?;
        rss_before_kb = rss_baseline_kb();
        server = start_and_probe(spec, Some(&dir))?.0;
        seed_dir = Some(dir);
    } else {
        rss_before_kb = rss_baseline_kb();
        server = start_server(spec, None)?;
        let mut loader = Wire::connect(server.local_addr(), "gen")?;
        oracle = data::seed_through(&mut loader, spec.source, seed, &scratch.join("init.csv"))?;
        loader.close()?;
        seed_dir = None;
    }
    let setup_s = started.elapsed().as_secs_f64() * (1.0 - stolen.share());
    let server = if spec.mutates {
        stop_server(server)?;
        None
    } else {
        Some(server)
    };
    Ok(Prepared {
        oracle,
        seed_dir,
        server,
        setup_s,
        rss_before_kb,
    })
}

/// [`setup`] `reps` times; the last one is kept, the median time reported.
pub fn setup_repeated(
    spec: &'static Spec,
    seed: u64,
    scratch: &Path,
    reps: usize,
) -> Result<Prepared, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(Prepared {
            server: Some(s), ..
        }) = last.take()
        {
            stop_server(s)?;
        }
        let prepared = setup(spec, seed, scratch)?;
        times.push(prepared.setup_s);
        last = Some(prepared);
    }
    let mut prepared = last.ok_or("no set-up ran")?;
    prepared.setup_s = median(&times);
    Ok(prepared)
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    pub unit: usize,
    pub class: Class,
    pub sent: Instant,
    pub took: Duration,
    /// The part of a commit spent in its durability point, on the rung
    /// that can see it ([`Target::last_checkpoint`]).
    pub checkpoint: Option<Duration>,
}

/// What one client measured and kept.
pub struct ClientLog {
    /// First measured request and last reply.
    pub start: Instant,
    pub end: Instant,
    pub unit_ms: Vec<f64>,
    /// Every measured request, in order.
    pub ops: Vec<OpTiming>,
    pub attempted: u64,
    pub failed: u64,
    pub rows_returned: u64,
    /// Queries answered so far; every [`FULL_CHECK_EVERY`]th reply is kept whole.
    queries: usize,
    pub observed: Vec<Observed>,
    /// Every measured reply, when the caller asked for them.
    pub frames: Vec<Vec<ServerMsg>>,
    pub errors: Vec<String>,
}

impl ClientLog {
    /// Send one request and keep what checking will need of the reply.
    /// `at` is `(unit, op)` in the script.
    fn send(
        &mut self,
        target: &mut dyn Target,
        at: (usize, usize),
        op: &Op,
        measured: bool,
        keep_frames: bool,
    ) {
        let line = op.line();
        let sent = Instant::now();
        let reply = target.run(&line);
        let took = sent.elapsed();
        self.attempted += 1;
        if measured {
            self.ops.push(OpTiming {
                unit: at.0,
                class: op.class(),
                sent,
                took,
                checkpoint: target.last_checkpoint(),
            });
        }
        let (tag, msgs) = match reply.and_then(|msgs| Ok((tag(&msgs)?.to_owned(), msgs))) {
            Ok(answered) => answered,
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("`{}`: {e}", brief(&line)));
                return;
            }
        };
        if measured && keep_frames {
            self.frames.push(msgs.clone());
        }
        let mut reply = None;
        if op.class().is_query() {
            self.rows_returned += msgs.len().saturating_sub(2) as u64;
            self.queries += 1;
            reply = self
                .queries
                .is_multiple_of(FULL_CHECK_EVERY)
                .then_some(msgs);
        }
        if reply.is_some() || matches!(op.class(), Class::Commit | Class::Select | Class::Diff) {
            self.observed.push(Observed {
                unit: at.0,
                op: at.1,
                tag,
                reply,
            });
        }
    }
}

/// Run `script` against `target`, closed loop: the next request goes out
/// when the previous reply is complete. The first `warmup` units are not
/// measured. Replies are only stored here; checking waits for the end.
/// `keep_frames` keeps every measured reply (the traced run re-encodes them).
pub fn drive(
    target: &mut dyn Target,
    script: &[Unit],
    warmup: usize,
    keep_frames: bool,
) -> ClientLog {
    let now = Instant::now();
    let mut log = ClientLog {
        start: now,
        end: now,
        unit_ms: Vec::new(),
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
        rows_returned: 0,
        queries: 0,
        observed: Vec::new(),
        frames: Vec::new(),
        errors: Vec::new(),
    };
    for (u, unit) in script.iter().enumerate() {
        let measured = u >= warmup;
        if u == warmup {
            log.start = Instant::now();
        }
        if unit.pin_first {
            log.send(target, (u, 0), &Op::Pin, measured, keep_frames);
        }
        let unit_started = Instant::now();
        for (o, op) in unit.ops.iter().enumerate() {
            log.send(target, (u, o), op, measured, keep_frames);
        }
        if measured {
            log.unit_ms.push(ms(unit_started.elapsed()));
        }
    }
    log.end = Instant::now();
    log
}

/// One measured round, checked.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of the measured phase: first measured request of any
    /// client to the last reply of any client.
    pub wall_s: f64,
    /// Share of CPU time the hypervisor withheld during the round, already
    /// taken out of `wall_s` and of every sample; `real_s` is the wall time
    /// as the clock showed it.
    pub stolen: f64,
    pub real_s: f64,
    pub unit_ms: Vec<f64>,
    pub class_ms: BTreeMap<Class, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub rows_returned: u64,
    pub acks: Vec<Ack>,
    pub errors: Vec<String>,
}

impl Round {
    /// Merge the clients' logs and check every kept reply against the oracle.
    pub fn collect(logs: Vec<ClientLog>, scripts: &[Vec<Unit>], oracle: &Oracle) -> Round {
        let mut round = Round::default();
        let start = logs.iter().map(|l| l.start).min();
        let end = logs.iter().map(|l| l.end).max();
        if let (Some(start), Some(end)) = (start, end) {
            round.wall_s = end.duration_since(start).as_secs_f64();
        }
        for (log, script) in logs.into_iter().zip(scripts) {
            round.unit_ms.extend(log.unit_ms);
            for op in &log.ops {
                round
                    .class_ms
                    .entry(op.class)
                    .or_default()
                    .push(ms(op.took));
            }
            round.attempted += log.attempted;
            round.failed += log.failed;
            round.rows_returned += log.rows_returned;
            round.errors.extend(log.errors);
            let (acks, wrong) =
                check::check_client(script, &log.observed, oracle, &mut round.errors);
            round.acks.extend(acks);
            round.failed += wrong;
        }
        round
    }

    /// Take out the share of the round's time the hypervisor withheld.
    fn discount(&mut self, stolen: f64) {
        self.stolen = stolen;
        self.real_s = self.wall_s;
        self.wall_s *= 1.0 - stolen;
        let samples = self.class_ms.values_mut().chain([&mut self.unit_ms]);
        samples.flatten().for_each(|ms| *ms *= 1.0 - stolen);
    }

    pub fn units_per_s(&self) -> f64 {
        self.unit_ms.len() as f64 / self.wall_s
    }

    pub fn class(&self, class: Class) -> &[f64] {
        self.class_ms.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Latencies of both query shapes together.
    pub fn queries(&self) -> Vec<f64> {
        [self.class(Class::Select), self.class(Class::Diff)].concat()
    }
}

/// Both clients' scripts for this seed.
pub fn scripts(spec: &Spec, oracle: &Oracle, seed: u64) -> Vec<Vec<Unit>> {
    (0..CLIENTS)
        .map(|c| client_script(spec, oracle, seed, c))
        .collect()
}

/// Run one round against the server at `addr`: every client on its own
/// connection and pool thread, then the history check through a third
/// connection.
pub fn run_round(
    spec: &Spec,
    addr: SocketAddr,
    scripts: &[Vec<Unit>],
    oracle: &Oracle,
) -> Result<Round, String> {
    let pool = exec_pool::WorkerPool::new(scripts.len());
    let stolen = StealMeter::start();
    let tasks: Vec<_> = scripts
        .iter()
        .enumerate()
        .map(|(c, script)| {
            move |_worker: usize| -> Result<ClientLog, String> {
                let mut wire = Wire::connect(addr, &format!("client{c}"))?;
                let log = drive(&mut wire, script, spec.warmup_units, false);
                wire.close()?;
                Ok(log)
            }
        })
        .collect();
    let logs = pool
        .run(tasks)
        .map_err(|e| format!("client threads: {e}"))?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let mut round = Round::collect(logs, scripts, oracle);
    round.discount(stolen.share());
    let mut admin = Wire::connect(addr, "admin")?;
    round.failed += check::check_history(&mut admin, oracle, &round.acks, &mut round.errors)?;
    admin.close()?;
    Ok(round)
}

/// Durability check: restart on `dir` and require every acknowledged
/// version in `log` with the right record count, and a sample of them
/// row for row. Returns the number of wrong versions and the time from
/// `Server::start` to the first reply.
pub fn reopen_and_check(
    spec: &Spec,
    dir: &Path,
    oracle: &Oracle,
    acks: &[Ack],
    errors: &mut Vec<String>,
) -> Result<(u64, Duration), String> {
    let (server, took) = start_and_probe(spec, Some(dir))?;
    let mut admin = Wire::connect(server.local_addr(), "admin")?;
    let mut wrong = check::check_history(&mut admin, oracle, acks, errors)?;
    let step = (acks.len() / 4).max(1);
    for ack in acks.iter().step_by(step) {
        if let Err(e) = check::check_version(&mut admin, oracle, ack) {
            wrong += 1;
            errors.push(format!("after reopen: {e}"));
        }
    }
    admin.close()?;
    stop_server(server)?;
    Ok((wrong, took))
}

/// The result line's `metrics` entries: `(name, value, unit)`.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// End-to-end metrics, as `BENCHMARK.json` lists them: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("rss_mb", "MiB"),
];

/// Attach the declared units to measured values; the values must be the
/// declared metrics, in order.
pub fn with_units(
    declared: &'static [(&'static str, &'static str)],
    values: Vec<(&str, f64)>,
) -> Result<Metrics, String> {
    if !declared.iter().map(|d| d.0).eq(values.iter().map(|v| v.0)) {
        let got: Vec<&str> = values.iter().map(|v| v.0).collect();
        return Err(format!(
            "measured metrics {got:?} are not the declared ones"
        ));
    }
    Ok(declared
        .iter()
        .zip(values)
        .map(|(&(name, unit), (_, v))| (name, v, unit))
        .collect())
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub errors: Vec<String>,
    /// Samples behind each round's percentiles, for the report.
    pub samples: usize,
    pub rounds: usize,
}

/// Run `f` against a server holding exactly the seeded state: the kept
/// server of a read-only workload, or a new one on a fresh copy of the
/// seeded directory at `dir`, stopped afterwards. `f` also gets the
/// `VmRSS` (KiB) taken just before that server was started.
pub fn on_seeded_server<T>(
    spec: &Spec,
    prepared: &Prepared,
    dir: &Path,
    f: impl FnOnce(SocketAddr, f64) -> Result<T, String>,
) -> Result<T, String> {
    if let Some(server) = &prepared.server {
        return f(server.local_addr(), prepared.rss_before_kb);
    }
    let seed_dir = prepared
        .seed_dir
        .as_ref()
        .ok_or("set-up left neither a server nor a data directory")?;
    copy_dir(seed_dir, dir)?;
    let rss_before_kb = rss_baseline_kb();
    let server = start_server(spec, Some(dir))?;
    let out = f(server.local_addr(), rss_before_kb);
    stop_server(server)?;
    out
}

/// The end-to-end run: set up, then fixed-size rounds from the same
/// starting state until `seconds` of measured time have accumulated. Each
/// metric is the median over rounds of the round's own value, so one round
/// disturbed from outside does not move the result.
pub fn end_to_end(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut prepared = setup_repeated(spec, seed, scratch, SETUP_REPS)?;
    settle_disk();
    let scripts = scripts(spec, &prepared.oracle, seed);
    let round_dir = scratch.join("round");
    let (mut per_s, mut p50s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut measured, mut rss_mb) = (0, 0, 0.0, 0.0);
    let (mut errors, mut last_acks, mut samples) = (Vec::new(), Vec::new(), 0);
    while measured < seconds {
        let (round, grown_mb) =
            on_seeded_server(spec, &prepared, &round_dir, |addr, rss_before_kb| {
                let round = run_round(spec, addr, &scripts, &prepared.oracle)?;
                Ok((round, (rss_kb() - rss_before_kb) / 1024.0))
            })?;
        if per_s.is_empty() {
            rss_mb = grown_mb;
        }
        let (rate, mid) = (
            round.units_per_s(),
            p50(&round.unit_ms).ok_or("a round measured no units")?,
        );
        eprintln!(
            "loadgen: {} round {}: {:.2} s, {rate:.1} units/s, p50 {mid:.3} ms, {:.1}% stolen",
            spec.name,
            per_s.len() + 1,
            round.wall_s,
            100.0 * round.stolen,
        );
        measured += round.real_s;
        per_s.push(rate);
        p50s.push(mid);
        samples = round.unit_ms.len();
        attempted += round.attempted;
        failed += round.failed;
        errors.extend(round.errors);
        last_acks = round.acks;
    }
    if let Some(server) = prepared.server.take() {
        stop_server(server)?;
    }
    if let Some(seed_dir) = &prepared.seed_dir {
        let dir = if spec.mutates { &round_dir } else { seed_dir };
        let (wrong, _) = reopen_and_check(spec, dir, &prepared.oracle, &last_acks, &mut errors)?;
        attempted += 1;
        failed += wrong;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: with_units(
            END_TO_END,
            vec![
                ("setup_s", prepared.setup_s),
                ("ops_per_s", median(&per_s)),
                ("op_p50_ms", median(&p50s)),
                ("rss_mb", rss_mb),
            ],
        )?,
        errors,
        samples,
        rounds: per_s.len(),
    })
}

/// Counters of `metrics --json`, read through a session like any operator would.
pub fn server_counters(addr: SocketAddr) -> Result<obs::Json, String> {
    let mut admin = Wire::connect(addr, "admin")?;
    let text = expect_ok(&mut admin, "metrics --json")?;
    admin.close()?;
    obs::parse(&text).map_err(|e| format!("metrics --json: {e:?}"))
}

/// The seeded history's source, for reports.
pub fn describe(source: Source) -> String {
    match source {
        Source::Cur(v, b, i) => format!("benchgen CUR |V|={v} B={b} I={i}"),
        Source::Wire {
            base_rows,
            versions,
            inserts,
        } => {
            format!("{base_rows} rows + {versions} versions x {inserts} inserts, loaded over the wire into `{CVD}`")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    #[test]
    fn stolen_time_is_taken_out_of_a_round() {
        let mut round = Round {
            wall_s: 4.0,
            unit_ms: vec![10.0, 20.0],
            ..Round::default()
        };
        round.class_ms.insert(Class::Commit, vec![8.0]);
        round.discount(0.25);
        assert_eq!((round.wall_s, round.real_s), (3.0, 4.0));
        assert_eq!(round.unit_ms, vec![7.5, 15.0]);
        assert_eq!(round.class(Class::Commit), &[6.0]);
        assert!((0.0..=0.95).contains(&StealMeter::start().share()));
    }

    /// A small in-memory workload with every operation class in it.
    static TINY: Spec = Spec {
        name: "tiny",
        kind: Kind::MixedDurable,
        source: Source::Wire {
            base_rows: 60,
            versions: 4,
            inserts: 5,
        },
        durable: false,
        mutates: false,
        warmup_units: 1,
        units_per_client: 6,
        inserts_per_cycle: 3,
        queries_per_cycle: 2,
        select_min_a1: 4_999,
        diff_pct: 30,
        repin_every: usize::MAX,
    };

    /// Through a real server: right answers pass every check, and an
    /// oracle that disagrees with the server is caught, not averaged away.
    #[test]
    fn a_round_is_checked_against_the_oracle() {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/test-scratch-{}", std::process::id()));
        let mut prepared = setup(&TINY, 5, &scratch).unwrap();
        let addr = prepared.server.as_ref().unwrap().local_addr();
        let scripts = scripts(&TINY, &prepared.oracle, 5);

        let round = run_round(&TINY, addr, &scripts, &prepared.oracle).unwrap();
        assert_eq!(round.failed, 0, "{:?}", round.errors);
        assert_eq!(round.acks.len(), CLIENTS * 7);
        assert_eq!(round.unit_ms.len(), CLIENTS * 6);
        assert_eq!(round.class(Class::Commit).len(), CLIENTS * 6);
        assert_eq!(round.queries().len(), CLIENTS * 12);

        // Drop one record from every seeded version: counts no longer match.
        let mut wrong = prepared.oracle.clone();
        for version in &mut wrong.versions {
            version.pop();
        }
        let round = run_round(&TINY, addr, &scripts, &wrong).unwrap();
        assert!(round.failed > 0);
        assert!(!round.errors.is_empty());

        stop_server(prepared.server.take().unwrap()).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
