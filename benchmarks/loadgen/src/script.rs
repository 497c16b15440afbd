//! Seeded op scripts: what each client sends, decided before the run.

use crate::data::{Oracle, ATTRS, ATTR_RANGE, CVD};
use crate::workload::{Kind, Spec};

/// splitmix64: the harness's only randomness, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is below 2⁻⁴⁰ here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A record with primary key `key` and uniform attributes.
    pub fn record(&mut self, key: i64) -> Vec<i64> {
        let mut row = vec![key];
        row.extend((1..ATTRS).map(|_| self.below(ATTR_RANGE as u64) as i64));
        row
    }
}

/// Operation classes, as the metrics name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Checkout,
    Insert,
    Commit,
    Pin,
    Select,
    Diff,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Checkout,
        Class::Insert,
        Class::Commit,
        Class::Pin,
        Class::Select,
        Class::Diff,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Checkout => "checkout",
            Class::Insert => "insert",
            Class::Commit => "commit",
            Class::Pin => "pin",
            Class::Select => "select",
            Class::Diff => "diff",
        }
    }

    pub fn is_query(self) -> bool {
        matches!(self, Class::Select | Class::Diff)
    }
}

/// One request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Checkout { vid: u32, table: String },
    Insert { table: String, row: Vec<i64> },
    Commit { table: String, message: String },
    Pin,
    Select { vid: u32, min_a1: i64 },
    Diff { a: u32, b: u32 },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Checkout { .. } => Class::Checkout,
            Op::Insert { .. } => Class::Insert,
            Op::Commit { .. } => Class::Commit,
            Op::Pin => Class::Pin,
            Op::Select { .. } => Class::Select,
            Op::Diff { .. } => Class::Diff,
        }
    }

    /// The command line sent to the server.
    pub fn line(&self) -> String {
        match self {
            Op::Checkout { vid, table } => format!("checkout {CVD} -v {vid} -t {table}"),
            Op::Insert { table, row } => {
                let fields: Vec<String> = row.iter().map(i64::to_string).collect();
                format!("insert {table} {}", fields.join(","))
            }
            Op::Commit { table, message } => format!("commit -t {table} -m {message}"),
            Op::Pin => format!("pin {CVD}"),
            Op::Select { vid, min_a1 } => {
                format!("run SELECT * FROM VERSION {vid} OF CVD {CVD} WHERE a1 > {min_a1}")
            }
            Op::Diff { a, b } => format!("run SELECT * FROM V_DIFF({a}, {b}) OF CVD {CVD}"),
        }
    }
}

/// One unit of work: what `ops_per_s` counts and `op_p50_ms` times, from
/// its first request to its last reply. A re-pin runs before the clock
/// starts; it costs throughput, not op latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    pub pin_first: bool,
    pub ops: Vec<Op>,
}

/// Inserted keys start here, far above any generated key, and each client
/// owns a disjoint range, so no commit can collide on the primary key.
const INSERT_KEY_BASE: i64 = 1_000_000_000;
const KEYS_PER_CLIENT: i64 = 10_000_000;

struct Builder<'a> {
    spec: &'a Spec,
    oracle: &'a Oracle,
    rng: Rng,
    client: usize,
    next_key: i64,
}

impl Builder<'_> {
    fn seeded_vid(&mut self) -> u32 {
        self.rng.below(self.oracle.num_versions() as u64) as u32
    }

    fn cycle(&mut self, i: usize) -> Vec<Op> {
        let table = format!("c{}_{i}", self.client);
        let mut ops = vec![Op::Checkout {
            vid: self.seeded_vid(),
            table: table.clone(),
        }];
        for _ in 0..self.spec.inserts_per_cycle {
            let row = self.rng.record(self.next_key);
            self.next_key += 1;
            ops.push(Op::Insert {
                table: table.clone(),
                row,
            });
        }
        ops.push(Op::Commit {
            table,
            message: format!("c{} u{i}", self.client),
        });
        ops
    }

    /// A versioned query: a diff against the first parent with
    /// probability `diff_pct`%, otherwise the selective scan.
    fn query(&mut self) -> Op {
        let vid = self.seeded_vid();
        let parent = self.oracle.parents[vid as usize].first().copied();
        match parent {
            Some(b) if self.rng.below(100) < self.spec.diff_pct => Op::Diff { a: vid, b },
            _ => Op::Select {
                vid,
                min_a1: self.spec.select_min_a1,
            },
        }
    }
}

/// Client `client`'s script for `spec` over the seeded history `oracle`:
/// `spec.warmup_units + spec.units_per_client` units.
pub fn client_script(spec: &Spec, oracle: &Oracle, seed: u64, client: usize) -> Vec<Unit> {
    let mut b = Builder {
        spec,
        oracle,
        rng: Rng::new(seed ^ (0x00C1_1E17 + client as u64).wrapping_mul(0x9E37_79B9)),
        client,
        next_key: INSERT_KEY_BASE + client as i64 * KEYS_PER_CLIENT,
    };
    (0..spec.warmup_units + spec.units_per_client)
        .map(|i| match spec.kind {
            Kind::CycleDurable => Unit {
                pin_first: false,
                ops: b.cycle(i),
            },
            Kind::ReadPinned => Unit {
                pin_first: i % spec.repin_every == 0,
                ops: vec![b.query()],
            },
            Kind::ReadEngineCold => Unit {
                pin_first: false,
                ops: vec![b.query()],
            },
            Kind::MixedDurable => {
                let mut ops = b.cycle(i);
                ops.extend((0..spec.queries_per_cycle).map(|_| b.query()));
                // The two clients start half a unit apart, so one reads
                // while the other writes.
                if client % 2 == 1 {
                    ops.rotate_left(2 + spec.inserts_per_cycle);
                }
                Unit {
                    pin_first: false,
                    ops,
                }
            }
        })
        .collect()
}

/// Every line of a script, for comparing scripts byte for byte.
#[cfg(test)]
pub fn render(script: &[Unit]) -> String {
    let mut out = String::new();
    for unit in script {
        if unit.pin_first {
            out.push_str(&Op::Pin.line());
            out.push('\n');
        }
        for op in &unit.ops {
            out.push_str(&op.line());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate_oracle;
    use crate::workload::WORKLOADS;

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        for spec in WORKLOADS {
            let source = match spec.source {
                crate::data::Source::Wire { .. } => crate::data::Source::Cur(40, 4, 10),
                s => s,
            };
            let oracle = generate_oracle(source, 11);
            let a = render(&client_script(spec, &oracle, 11, 0));
            let b = render(&client_script(spec, &oracle, 11, 0));
            let c = render(&client_script(spec, &oracle, 12, 0));
            let other_client = render(&client_script(spec, &oracle, 11, 1));
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
            assert_ne!(a, other_client, "{}", spec.name);
        }
    }

    #[test]
    fn lines_match_the_command_grammar() {
        assert_eq!(
            Op::Checkout {
                vid: 3,
                table: "w".into()
            }
            .line(),
            "checkout t -v 3 -t w"
        );
        assert_eq!(
            Op::Insert {
                table: "w".into(),
                row: vec![1, -2]
            }
            .line(),
            "insert w 1,-2"
        );
        assert_eq!(
            Op::Select {
                vid: 4,
                min_a1: 9000
            }
            .line(),
            "run SELECT * FROM VERSION 4 OF CVD t WHERE a1 > 9000"
        );
        assert_eq!(
            Op::Diff { a: 4, b: 2 }.line(),
            "run SELECT * FROM V_DIFF(4, 2) OF CVD t"
        );
    }
}
