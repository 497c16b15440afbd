//! Output checks: every reply the harness keeps is compared with what the
//! oracle says the answer is. A mismatch is a failed operation.

use crate::data::{Oracle, CVD};
use crate::script::{Op, Unit};
use crate::target::{data_rows, expect_ok, Target};
use orpheus_server::ServerMsg;
use std::collections::BTreeMap;

/// Every this-many-th query reply is kept whole and compared row for row;
/// the others are checked by row count.
pub const FULL_CHECK_EVERY: usize = 16;

/// What a client kept of one reply, checked after the clock has stopped.
#[derive(Debug)]
pub struct Observed {
    pub unit: usize,
    pub op: usize,
    pub tag: String,
    /// The whole reply, for the sampled queries.
    pub reply: Option<Vec<ServerMsg>>,
}

/// One `log` entry: first parent (if any) and record count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    pub parents: Vec<u32>,
    pub records: usize,
}

/// Parse `log <cvd>` output into `vid → entry`.
pub fn parse_log(log: &str) -> Result<BTreeMap<u32, LogEntry>, String> {
    let bad = |what: &str, line: &str| format!("log: bad {what} in `{line}`");
    let vid = |s: &str, line: &str| -> Result<u32, String> {
        s.trim()
            .strip_prefix('v')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad("version id", line))
    };
    let mut entries = BTreeMap::new();
    let mut lines = log.lines();
    while let Some(head) = lines.next() {
        let detail = lines.next().ok_or_else(|| bad("entry", head))?;
        let (v, parents) = head
            .strip_prefix("* ")
            .and_then(|h| h.split_once("  ← "))
            .ok_or_else(|| bad("head", head))?;
        let parents = if parents == "(root)" {
            Vec::new()
        } else {
            parents
                .split(", ")
                .map(|p| vid(p, head))
                .collect::<Result<_, _>>()?
        };
        let records = detail
            .split_once("  records: ")
            .and_then(|(_, rest)| rest.split_once("  msg: "))
            .and_then(|(n, _)| n.parse().ok())
            .ok_or_else(|| bad("record count", detail))?;
        entries.insert(vid(v, head)?, LogEntry { parents, records });
    }
    Ok(entries)
}

/// A version a client committed and the server acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    pub vid: u32,
    pub base: u32,
    pub inserted: Vec<Vec<i64>>,
}

fn commit_vid(tag: &str) -> Option<u32> {
    tag.strip_prefix("COMMIT v")?.parse().ok()
}

fn select_count(tag: &str) -> Option<usize> {
    tag.strip_prefix("SELECT ")?.parse().ok()
}

/// Check one client's kept replies against the oracle. Returns the
/// versions it committed and the number of replies that were wrong;
/// each wrong reply is described in `errors`.
pub fn check_client(
    script: &[Unit],
    observed: &[Observed],
    oracle: &Oracle,
    errors: &mut Vec<String>,
) -> (Vec<Ack>, u64) {
    let mut acks = Vec::new();
    let mut wrong = 0;
    for obs in observed {
        let unit = &script[obs.unit];
        let verdict = match &unit.ops[obs.op] {
            Op::Commit { .. } => match commit_vid(&obs.tag) {
                Some(vid) => {
                    let mut base = 0;
                    let mut inserted = Vec::new();
                    for op in &unit.ops {
                        match op {
                            Op::Checkout { vid, .. } => base = *vid,
                            Op::Insert { row, .. } => inserted.push(row.clone()),
                            _ => {}
                        }
                    }
                    acks.push(Ack {
                        vid,
                        base,
                        inserted,
                    });
                    Ok(())
                }
                None => Err(format!("commit answered `{}`", obs.tag)),
            },
            op @ (Op::Select { .. } | Op::Diff { .. }) => {
                let expected = match *op {
                    Op::Select { vid, min_a1 } => oracle.select(vid, min_a1),
                    Op::Diff { a, b } => oracle.diff(a, b),
                    _ => unreachable!("matched a query above"),
                };
                check_query(&op.line(), &obs.tag, obs.reply.as_deref(), &expected)
            }
            _ => Ok(()),
        };
        if let Err(e) = verdict {
            wrong += 1;
            errors.push(e);
        }
    }
    (acks, wrong)
}

fn check_query(
    line: &str,
    tag: &str,
    reply: Option<&[ServerMsg]>,
    expected: &[&[i64]],
) -> Result<(), String> {
    if select_count(tag) != Some(expected.len()) {
        return Err(format!(
            "`{line}`: expected {} rows, got `{tag}`",
            expected.len()
        ));
    }
    if let Some(reply) = reply {
        let mut rows = data_rows(reply).map_err(|e| format!("`{line}`: {e}"))?;
        rows.sort_unstable();
        if !rows.iter().map(Vec::as_slice).eq(expected.iter().copied()) {
            return Err(format!("`{line}`: rows differ from the oracle"));
        }
    }
    Ok(())
}

/// Check that acknowledged commits got distinct version ids and that
/// `log` (asked through `target`) shows each one with the parent it was
/// checked out from and the right record count, and every seeded version
/// with its record count. Returns the number of versions that are wrong.
pub fn check_history(
    target: &mut dyn Target,
    oracle: &Oracle,
    acks: &[Ack],
    errors: &mut Vec<String>,
) -> Result<u64, String> {
    let log = parse_log(&expect_ok(target, &format!("log {CVD}"))?)?;
    let mut wrong = 0;
    let mut fail = |e: String| {
        wrong += 1;
        errors.push(e);
    };
    for v in 0..oracle.num_versions() as u32 {
        let records = oracle.versions[v as usize].len();
        if log.get(&v).map(|e| e.records) != Some(records) {
            fail(format!(
                "seeded v{v}: log shows {:?}, expected {records} records",
                log.get(&v)
            ));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for ack in acks {
        if !seen.insert(ack.vid) || (ack.vid as usize) < oracle.num_versions() {
            fail(format!(
                "commit acknowledged as v{}, which is not a new version",
                ack.vid
            ));
            continue;
        }
        let expected = LogEntry {
            parents: vec![ack.base],
            records: oracle.versions[ack.base as usize].len() + ack.inserted.len(),
        };
        if log.get(&ack.vid) != Some(&expected) {
            fail(format!(
                "acknowledged v{}: log shows {:?}, expected {expected:?}",
                ack.vid,
                log.get(&ack.vid)
            ));
        }
    }
    Ok(wrong)
}

/// Read `ack`'s version back in full and compare it with its base
/// version plus the inserted rows.
pub fn check_version(target: &mut dyn Target, oracle: &Oracle, ack: &Ack) -> Result<(), String> {
    let line = format!("run SELECT * FROM VERSION {} OF CVD {CVD}", ack.vid);
    let reply = target.run(&line)?;
    let mut expected: Vec<&[i64]> = oracle.rows(ack.base).collect();
    expected.extend(ack.inserted.iter().map(Vec::as_slice));
    expected.sort_unstable();
    let tag = crate::target::tag(&reply)?.to_owned();
    check_query(&line, &tag, Some(&reply), &expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_output_parses() {
        let log = "* v2  ← v0, v1\n    author: a  records: 12  msg: c0 u1\n\
                   * v1  ← v0\n    author: b  records: 11  msg: seed\n\
                   * v0  ← (root)\n    author: gen  records: 10  msg: init\n";
        let parsed = parse_log(log).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(
            parsed[&2],
            LogEntry {
                parents: vec![0, 1],
                records: 12
            }
        );
        assert_eq!(
            parsed[&0],
            LogEntry {
                parents: vec![],
                records: 10
            }
        );
        assert!(parse_log("* v1  ← v0\n").is_err());
    }

    #[test]
    fn a_wrong_row_count_or_row_is_caught() {
        let expected: Vec<&[i64]> = vec![&[1, 2], &[3, 4]];
        let row = |a: i64, b: i64| ServerMsg::DataRow {
            fields: vec![Some("9".into()), Some(a.to_string()), Some(b.to_string())],
        };
        assert!(check_query("q", "SELECT 2", None, &expected).is_ok());
        assert!(check_query("q", "SELECT 3", None, &expected).is_err());
        let good = [row(3, 4), row(1, 2)];
        assert!(check_query("q", "SELECT 2", Some(&good), &expected).is_ok());
        let bad = [row(3, 4), row(1, 5)];
        assert!(check_query("q", "SELECT 2", Some(&bad), &expected).is_err());
    }
}
