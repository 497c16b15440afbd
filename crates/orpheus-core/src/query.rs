//! The versioned query layer (§3.3.2).
//!
//! OrpheusDB lets users run SQL directly against versions without
//! materializing them:
//!
//! ```sql
//! SELECT * FROM VERSION 1, 2 OF CVD Interaction
//!   WHERE coexpression > 80 LIMIT 50;
//! SELECT vid, count(*) FROM CVD Interaction GROUP BY vid;
//! ```
//!
//! plus functional primitives over the version graph —
//! `ancestor(v)`, `descendant(v)`, `parent(v)`, `v_diff(a, b)`,
//! `v_intersect(vs)`. This module is the surface: the parsed [`VQuery`]
//! and its parser. [`crate::plan`] translates a `VQuery` into a plan over
//! the split-by-rlist physical tables, exactly as the middleware
//! translates it to PostgreSQL SQL in the original.

use crate::error::{Error, Result};
use partition::Vid;
use relstore::{AggFunc, BinOp, CostTracker, Expr, Row, Schema, Value};

/// A query result: a schema plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

/// A parsed `WHERE col op lit`.
pub type Predicate = (String, BinOp, Value);

/// Versions whose aggregate satisfies `cmp value` — e.g. *“find versions
/// where the total count of tuples with protein1 = X is greater than
/// 50”* (§4.1) — as a post-filter over the `[vid, agg]` rows of a
/// `GROUP BY vid` result.
pub fn versions_where_aggregate(
    aggregated: &QueryResult,
    cmp: BinOp,
    value: &Value,
) -> Result<Vec<Vid>> {
    let having = Expr::Bin(
        cmp,
        Box::new(Expr::col(1)),
        Box::new(Expr::Const(value.clone())),
    );
    let mut tracker = CostTracker::new();
    let mut out = Vec::new();
    for row in &aggregated.rows {
        if having.matches(row, &mut tracker)? {
            let vid = row[0]
                .as_i64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| Error::Internal("version id column is not a version id".into()))?;
            out.push(Vid(vid));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// A small parser for the versioned-SQL surface used by the `run` command.
// ---------------------------------------------------------------------------

/// A parsed versioned query.
#[derive(Debug, Clone, PartialEq)]
pub enum VQuery {
    /// `SELECT * FROM VERSION v… OF CVD name [WHERE col op lit] [LIMIT n]`
    SelectVersions {
        cvd: String,
        versions: Vec<Vid>,
        predicate: Option<Predicate>,
        limit: Option<usize>,
    },
    /// `SELECT vid, AGG(col) FROM CVD name [WHERE col op lit] GROUP BY vid`
    AggregateByVersion {
        cvd: String,
        agg: AggFunc,
        agg_col: String,
        predicate: Option<Predicate>,
    },
    /// `SELECT * FROM V_DIFF(a, b) OF CVD name` — records in `a` not in `b`
    /// (§3.3.2(b)).
    Diff { cvd: String, a: Vid, b: Vid },
    /// `SELECT * FROM VERSION a OF CVD name JOIN VERSION b ON col` — a
    /// cross-version self-join via renaming ("users can operate directly on
    /// multiple versions within a single SQL statement", §3.3.2).
    JoinVersions {
        cvd: String,
        left: Vid,
        right: Vid,
        on: String,
    },
    /// `SELECT * FROM V_INTERSECT(v…) OF CVD name` — records in every
    /// listed version (§3.3.2(c)).
    Intersect { cvd: String, versions: Vec<Vid> },
}

impl VQuery {
    /// The CVD the query targets.
    pub fn cvd(&self) -> &str {
        match self {
            VQuery::SelectVersions { cvd, .. }
            | VQuery::AggregateByVersion { cvd, .. }
            | VQuery::Diff { cvd, .. }
            | VQuery::JoinVersions { cvd, .. }
            | VQuery::Intersect { cvd, .. } => cvd,
        }
    }
}

/// Parse the SQL-ish syntax of §3.3.2. Case-insensitive keywords.
pub fn parse_query(input: &str) -> Result<VQuery> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    p.expect_kw("SELECT")?;
    if p.peek_is("VID") {
        p.next();
        p.expect_tok(",")?;
        let (agg, col) = p.parse_agg()?;
        p.expect_kw("FROM")?;
        p.expect_kw("CVD")?;
        let cvd = p.ident()?;
        let predicate = p.parse_where()?;
        p.expect_kw("GROUP")?;
        p.expect_kw("BY")?;
        p.expect_kw("VID")?;
        p.end()?;
        Ok(VQuery::AggregateByVersion {
            cvd,
            agg,
            agg_col: col,
            predicate,
        })
    } else {
        p.expect_tok("*")?;
        p.expect_kw("FROM")?;
        if p.peek_is("V_DIFF") || p.peek_is("V_INTERSECT") {
            let func = p.ident()?.to_ascii_lowercase();
            p.expect_tok("(")?;
            let versions = p.vids()?;
            p.expect_tok(")")?;
            p.expect_kw("OF")?;
            p.expect_kw("CVD")?;
            let cvd = p.ident()?;
            p.end()?;
            return if func == "v_diff" {
                if versions.len() != 2 {
                    return Err(Error::Parse("v_diff takes exactly two versions".into()));
                }
                Ok(VQuery::Diff {
                    cvd,
                    a: versions[0],
                    b: versions[1],
                })
            } else {
                Ok(VQuery::Intersect { cvd, versions })
            };
        }
        p.expect_kw("VERSION")?;
        let versions = p.vids()?;
        p.expect_kw("OF")?;
        p.expect_kw("CVD")?;
        let cvd = p.ident()?;
        if p.peek_is("JOIN") {
            p.next();
            p.expect_kw("VERSION")?;
            let right = p.vid()?;
            p.expect_kw("ON")?;
            let on = p.ident()?;
            p.end()?;
            if versions.len() != 1 {
                return Err(Error::Parse("JOIN takes one version per side".into()));
            }
            return Ok(VQuery::JoinVersions {
                cvd,
                left: versions[0],
                right,
                on,
            });
        }
        let predicate = p.parse_where()?;
        let limit = if p.peek_is("LIMIT") {
            p.next();
            Some(p.number()?)
        } else {
            None
        };
        p.end()?;
        Ok(VQuery::SelectVersions {
            cvd,
            versions,
            predicate,
            limit,
        })
    }
}

fn tokenize(input: &str) -> Result<Vec<String>> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = input.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            ',' | '(' | ')' | '*' | ';' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                if c != ';' {
                    out.push(c.to_string());
                }
            }
            '>' | '<' | '=' | '!' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                let mut op = c.to_string();
                // An operator character and a following `=` are one
                // token, and so is `<>`.
                if let Some(c2) = chars.next_if(|&c2| c2 == '=' || (c, c2) == ('<', '>')) {
                    op.push(c2);
                }
                out.push(op);
            }
            '\'' => {
                // String literal, kept with its opening quote.
                let mut s = String::from("'");
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(c2) => s.push(c2),
                        None => {
                            return Err(Error::Parse(format!("unterminated string literal {s}")))
                        }
                    }
                }
                out.push(s);
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<String>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn peek_is(&self, kw: &str) -> bool {
        self.peek()
            .map(|t| t.eq_ignore_ascii_case(kw))
            .unwrap_or(false)
    }

    fn next(&mut self) -> Option<String> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(t) if t.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(Error::Parse(format!(
                "expected {kw}, got {}",
                other.unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn expect_tok(&mut self, tok: &str) -> Result<()> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            other => Err(Error::Parse(format!(
                "expected {tok}, got {}",
                other.unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.next()
            .ok_or_else(|| Error::Parse("expected identifier".into()))
    }

    /// A non-negative integer that fits `T`; anything else (a sign, a
    /// value past `T::MAX`) is a parse error naming the token.
    fn number<T: std::str::FromStr>(&mut self) -> Result<T> {
        let t = self.ident()?;
        t.parse()
            .map_err(|_| Error::Parse(format!("expected number, got {t}")))
    }

    fn vid(&mut self) -> Result<Vid> {
        self.number::<u32>().map(Vid)
    }

    /// One or more comma-separated version ids.
    fn vids(&mut self) -> Result<Vec<Vid>> {
        let mut versions = vec![self.vid()?];
        while self.peek_is(",") {
            self.next();
            versions.push(self.vid()?);
        }
        Ok(versions)
    }

    fn parse_agg(&mut self) -> Result<(AggFunc, String)> {
        let name = self.ident()?.to_ascii_lowercase();
        let agg = match name.as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            other => return Err(Error::Parse(format!("unknown aggregate {other}"))),
        };
        self.expect_tok("(")?;
        let col = match self.next() {
            // `count(*)` counts records; no other aggregate takes `*`.
            Some(t) if t == "*" && agg == AggFunc::Count => "rid".to_owned(),
            Some(t) if t == "*" => {
                return Err(Error::Parse(format!("{name}(*): only count takes *")))
            }
            Some(t) => t,
            None => return Err(Error::Parse("expected column".into())),
        };
        self.expect_tok(")")?;
        Ok((agg, col))
    }

    fn parse_where(&mut self) -> Result<Option<Predicate>> {
        if !self.peek_is("WHERE") {
            return Ok(None);
        }
        self.next();
        let col = self.ident()?;
        let op = match self.next().as_deref() {
            Some("=") => BinOp::Eq,
            Some("!=") | Some("<>") => BinOp::Ne,
            Some(">") => BinOp::Gt,
            Some(">=") => BinOp::Ge,
            Some("<") => BinOp::Lt,
            Some("<=") => BinOp::Le,
            other => {
                return Err(Error::Parse(format!(
                    "expected comparison operator, got {other:?}"
                )))
            }
        };
        let lit = self.ident()?;
        let value = if let Some(stripped) = lit.strip_prefix('\'') {
            Value::Text(stripped.to_owned())
        } else if let Ok(i) = lit.parse::<i64>() {
            Value::Int64(i)
        } else if let Ok(f) = lit.parse::<f64>() {
            Value::Float64(f)
        } else {
            Value::Text(lit)
        };
        Ok(Some((col, op, value)))
    }

    fn end(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(Error::Parse(format!("unexpected trailing token {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_select_versions() {
        let q = parse_query(
            "SELECT * FROM VERSION 1, 2 OF CVD Interaction WHERE coexpression > 80 LIMIT 50;",
        )
        .unwrap();
        assert_eq!(
            q,
            VQuery::SelectVersions {
                cvd: "Interaction".into(),
                versions: vec![Vid(1), Vid(2)],
                predicate: Some(("coexpression".into(), BinOp::Gt, Value::Int64(80))),
                limit: Some(50),
            }
        );
    }

    #[test]
    fn parse_aggregate() {
        let q = parse_query("SELECT vid, count(*) FROM CVD t GROUP BY vid").unwrap();
        assert_eq!(
            q,
            VQuery::AggregateByVersion {
                cvd: "t".into(),
                agg: AggFunc::Count,
                agg_col: "rid".into(),
                predicate: None,
            }
        );
    }

    #[test]
    fn parse_aggregate_with_where_string() {
        let q = parse_query(
            "SELECT vid, sum(coexpression) FROM CVD t WHERE protein1 = 'ENSP273047' GROUP BY vid",
        )
        .unwrap();
        match q {
            VQuery::AggregateByVersion { predicate, .. } => {
                assert_eq!(
                    predicate,
                    Some((
                        "protein1".into(),
                        BinOp::Eq,
                        Value::Text("ENSP273047".into())
                    ))
                );
            }
            _ => panic!("wrong parse"),
        }
    }

    #[test]
    fn parse_join_versions() {
        assert_eq!(
            parse_query("SELECT * FROM VERSION 1 OF CVD t JOIN VERSION 2 ON k").unwrap(),
            VQuery::JoinVersions {
                cvd: "t".into(),
                left: Vid(1),
                right: Vid(2),
                on: "k".into(),
            }
        );
        assert!(parse_query("SELECT * FROM VERSION 1, 2 OF CVD t JOIN VERSION 3 ON k").is_err());
    }

    #[test]
    fn parse_v_diff_and_intersect() {
        assert_eq!(
            parse_query("SELECT * FROM V_DIFF(1, 2) OF CVD t").unwrap(),
            VQuery::Diff {
                cvd: "t".into(),
                a: Vid(1),
                b: Vid(2)
            }
        );
        assert_eq!(
            parse_query("SELECT * FROM v_intersect(0, 1, 3) OF CVD t").unwrap(),
            VQuery::Intersect {
                cvd: "t".into(),
                versions: vec![Vid(0), Vid(1), Vid(3)]
            }
        );
        assert!(parse_query("SELECT * FROM V_DIFF(1) OF CVD t").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("DELETE FROM x").is_err());
        assert!(parse_query("SELECT * FROM VERSION x OF CVD t").is_err());
        assert!(parse_query("SELECT * FROM VERSION 1 OF CVD t LIMIT").is_err());
        // Out-of-range integers are rejected, never wrapped: 2^32 + 1 is
        // not version 1, -2^32 is not version 0, and -1 is not "no limit".
        for (sql, token) in [
            ("SELECT * FROM VERSION 4294967297 OF CVD t", "4294967297"),
            ("SELECT * FROM VERSION -4294967296 OF CVD t", "-4294967296"),
            ("SELECT * FROM VERSION 0, 4294967296 OF CVD t", "4294967296"),
            ("SELECT * FROM V_DIFF(1, -1) OF CVD t", "-1"),
            (
                "SELECT * FROM V_INTERSECT(4294967296) OF CVD t",
                "4294967296",
            ),
            (
                "SELECT * FROM VERSION 0 OF CVD t JOIN VERSION 4294967297 ON k",
                "4294967297",
            ),
            ("SELECT * FROM VERSION 0 OF CVD t LIMIT -1", "-1"),
            (
                "SELECT * FROM VERSION 0 OF CVD t LIMIT 99999999999999999999",
                "99999999999999999999",
            ),
        ] {
            match parse_query(sql) {
                Err(Error::Parse(m)) => assert!(m.contains(token), "{sql}: {m}"),
                other => panic!("{sql}: expected a parse error, got {other:?}"),
            }
        }
        assert!(parse_query("SELECT * FROM VERSION 4294967295 OF CVD t").is_ok());
        // Only `count` takes `*`: `sum(*)` used to sum record ids.
        for agg in ["sum", "avg", "min", "MAX"] {
            let sql = format!("SELECT vid, {agg}(*) FROM CVD t GROUP BY vid");
            match parse_query(&sql) {
                Err(Error::Parse(m)) => {
                    assert!(
                        m.contains(&format!("{}(*)", agg.to_lowercase())),
                        "{sql}: {m}"
                    )
                }
                other => panic!("{sql}: expected a parse error, got {other:?}"),
            }
        }
        assert!(parse_query("SELECT vid, COUNT(*) FROM CVD t GROUP BY vid").is_ok());
    }

    fn where_of(sql: &str) -> Result<Option<Predicate>> {
        match parse_query(sql)? {
            VQuery::SelectVersions { predicate, .. } => Ok(predicate),
            other => panic!("{sql}: parsed as {other:?}"),
        }
    }

    /// `<>` used to lex as `<` then `>`, so it never parsed ("unexpected
    /// trailing token 20"); it is `!=`.
    #[test]
    fn angle_brackets_parse_as_not_equal() {
        for sql in [
            "SELECT * FROM VERSION 0 OF CVD x WHERE a <> 20",
            "SELECT * FROM VERSION 0 OF CVD x WHERE a<>20",
            "SELECT * FROM VERSION 0 OF CVD x WHERE a != 20",
        ] {
            let want = Some(("a".to_owned(), BinOp::Ne, Value::Int64(20)));
            assert_eq!(where_of(sql).unwrap(), want, "{sql}");
        }
        for (op, want) in [
            ("=", BinOp::Eq),
            ("<", BinOp::Lt),
            ("<=", BinOp::Le),
            (">", BinOp::Gt),
            (">=", BinOp::Ge),
        ] {
            let sql = format!("SELECT * FROM VERSION 0 OF CVD x WHERE a {op} 2.5 LIMIT 3");
            let pred = Some(("a".to_owned(), want, Value::Float64(2.5)));
            assert_eq!(where_of(&sql).unwrap(), pred, "{sql}");
        }
        assert!(where_of("SELECT * FROM VERSION 0 OF CVD x WHERE a >< 20").is_err());
    }

    /// An unterminated literal used to run as if it were closed at the end
    /// of the line.
    #[test]
    fn unterminated_string_literal_is_a_parse_error() {
        for (sql, literal) in [
            ("SELECT * FROM VERSION 0 OF CVD x WHERE s = 'y y", "'y y"),
            ("SELECT * FROM VERSION 0 OF CVD x WHERE s = '", "'"),
            (
                "SELECT vid, count(*) FROM CVD x WHERE s = 'a GROUP BY vid",
                "'a GROUP BY vid",
            ),
        ] {
            match parse_query(sql) {
                Err(Error::Parse(m)) => {
                    assert!(
                        m.contains("unterminated") && m.contains(literal),
                        "{sql}: {m}"
                    )
                }
                other => panic!("{sql}: expected a parse error, got {other:?}"),
            }
        }
        let closed = where_of("SELECT * FROM VERSION 0 OF CVD x WHERE s = 'y y'").unwrap();
        assert_eq!(
            closed,
            Some(("s".into(), BinOp::Eq, Value::Text("y y".into())))
        );
    }
}
