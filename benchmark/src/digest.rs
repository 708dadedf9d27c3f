//! Result digests: how the harness decides an answer is correct.
//!
//! A digest is taken from the *rendered* cells of a result, so the same
//! function checks an in-process `QueryResult` and the text table a
//! `NoDbClient` receives. Floats are rendered to ten significant digits
//! first: the engines under comparison may sum in different orders.

use std::collections::HashSet;

use nodb_engine::QueryResult;

use crate::stat::{fnv1a, FNV_OFFSET};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    /// Sum of row hashes: equal for any order of the same rows.
    pub unordered: u64,
    /// Chained row hashes: equal only for the same rows in the same order.
    pub ordered: u64,
}

/// What a result must equal to count as correct.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The same rows; in the same order when `ordered` (a total `ORDER BY`).
    Rows { digest: Digest, ordered: bool },
    /// A bare `LIMIT`: which rows come back is the engine's choice, so check
    /// the count and that every row is one the unlimited query returns.
    AnyOf { count: u64, members: HashSet<u64> },
}

impl Expect {
    pub fn matches(&self, got: &Rendered) -> bool {
        match self {
            Expect::Rows { digest, ordered } => {
                let d = got.digest();
                d.rows == digest.rows
                    && d.unordered == digest.unordered
                    && (!ordered || d.ordered == digest.ordered)
            }
            Expect::AnyOf { count, members } => {
                got.row_hashes.len() as u64 == *count
                    && got.row_hashes.iter().all(|h| members.contains(h))
            }
        }
    }
}

/// A result reduced to one hash per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendered {
    pub row_hashes: Vec<u64>,
}

impl Rendered {
    pub fn of_result(result: &QueryResult) -> Rendered {
        let mut cell = String::new();
        let row_hashes = result
            .rows
            .iter()
            .map(|row| {
                let mut h = FNV_OFFSET;
                for d in row {
                    cell.clear();
                    {
                        use std::fmt::Write;
                        let _ = write!(cell, "{d}");
                    }
                    h = hash_cell(h, &cell);
                }
                h
            })
            .collect();
        Rendered { row_hashes }
    }

    /// Parse the text table `QueryResult`'s `Display` writes (and the server
    /// sends as the body frame): a header line, a rule line, one line per
    /// row with cells joined by `" | "` and padded on the right, and a
    /// closing `(n rows)` line. `None` when the body is not such a table.
    pub fn of_wire_body(body: &str) -> Option<Rendered> {
        let mut lines: Vec<&str> = body.lines().collect();
        let footer = lines.pop()?;
        let claimed: usize = footer.strip_prefix('(')?.split(' ').next()?.parse().ok()?;
        if lines.len() < 2 || lines.len() - 2 != claimed {
            return None;
        }
        let row_hashes = lines[2..]
            .iter()
            .map(|line| {
                line.split(" | ")
                    .fold(FNV_OFFSET, |h, cell| hash_cell(h, cell.trim_end()))
            })
            .collect();
        Some(Rendered { row_hashes })
    }

    pub fn digest(&self) -> Digest {
        Digest {
            rows: self.row_hashes.len() as u64,
            unordered: self
                .row_hashes
                .iter()
                .fold(0u64, |acc, h| acc.wrapping_add(*h)),
            ordered: self
                .row_hashes
                .iter()
                .fold(FNV_OFFSET, |acc, h| fnv1a(acc, &h.to_le_bytes())),
        }
    }
}

/// Fold one rendered cell into a row hash. A cell that reads as a float is
/// first rewritten to ten significant digits; 0x1f separates cells.
fn hash_cell(h: u64, text: &str) -> u64 {
    let h = match text
        .contains('.')
        .then(|| text.parse::<f64>().ok())
        .flatten()
    {
        Some(v) => fnv1a(h, format!("{v:.9e}").as_bytes()),
        None => fnv1a(h, text.as_bytes()),
    };
    fnv1a(h, &[0x1f])
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_rawcsv::Datum;

    fn result(rows: Vec<Vec<Datum>>) -> QueryResult {
        QueryResult {
            columns: vec!["a".into(), "b".into(), "c".into()],
            rows,
        }
    }

    fn sample() -> QueryResult {
        result(vec![
            vec![Datum::Int(1), Datum::Float(2.5), Datum::from("xy")],
            vec![Datum::Int(20), Datum::Null, Datum::from("z")],
            vec![Datum::Int(3), Datum::Float(0.125), Datum::from("abcdef")],
        ])
    }

    #[test]
    fn wire_table_and_in_process_result_digest_alike() {
        let r = sample();
        let wire = Rendered::of_wire_body(&r.to_string()).unwrap();
        assert_eq!(wire, Rendered::of_result(&r));
        assert_eq!(wire.digest().rows, 3);
    }

    #[test]
    fn order_shows_only_in_the_ordered_hash() {
        let a = Rendered::of_result(&sample()).digest();
        let mut swapped = sample();
        swapped.rows.swap(0, 2);
        let b = Rendered::of_result(&swapped).digest();
        assert_eq!(a.unordered, b.unordered);
        assert_ne!(a.ordered, b.ordered);
        let unordered = Expect::Rows {
            digest: a,
            ordered: false,
        };
        let ordered = Expect::Rows {
            digest: a,
            ordered: true,
        };
        assert!(unordered.matches(&Rendered::of_result(&swapped)));
        assert!(!ordered.matches(&Rendered::of_result(&swapped)));
    }

    #[test]
    fn a_changed_cell_changes_the_digest() {
        let mut other = sample();
        other.rows[1][0] = Datum::Int(21);
        assert_ne!(
            Rendered::of_result(&sample()).digest().unordered,
            Rendered::of_result(&other).digest().unordered
        );
    }

    #[test]
    fn floats_agree_to_ten_digits_and_no_further() {
        let with = |v: f64| Rendered::of_result(&result(vec![vec![Datum::Float(v)]])).digest();
        assert_eq!(with(1_234.567_890_123_4), with(1_234.567_890_123_9));
        assert_ne!(with(1_234.567_89), with(1_234.567_99));
    }

    #[test]
    fn bare_limit_checks_count_and_membership() {
        let full = Rendered::of_result(&sample());
        let expect = Expect::AnyOf {
            count: 2,
            members: full.row_hashes.iter().copied().collect(),
        };
        let mut two = sample();
        two.rows.truncate(2);
        assert!(expect.matches(&Rendered::of_result(&two)));
        assert!(!expect.matches(&full), "three rows where two were due");
        two.rows[0][0] = Datum::Int(99);
        assert!(!expect.matches(&Rendered::of_result(&two)), "a foreign row");
    }

    #[test]
    fn malformed_wire_bodies_are_refused() {
        assert!(Rendered::of_wire_body("").is_none());
        assert!(Rendered::of_wire_body("a\n-\n1\n(2 rows)").is_none());
        assert!(Rendered::of_wire_body("a\n-\n(0 rows)").is_some());
    }
}
