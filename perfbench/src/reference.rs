//! The reference model every answer is checked against: a plain
//! `Vec<u64>` per column, with writes applied at their commit, queried by
//! naive filters that share no code with the engine.

use std::fmt::Debug;

use asv_util::ValueRange;

/// An answer that disagrees with the reference model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch(pub String);

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The correctness gate: `Err` unless `got == want`.
pub fn check<T: PartialEq + Debug>(what: &str, got: T, want: T) -> Result<(), Mismatch> {
    if got == want {
        Ok(())
    } else {
        Err(Mismatch(format!(
            "{what}: engine answered {got:?}, reference says {want:?}"
        )))
    }
}

/// Count and value sum of a range query.
pub type RangeCount = (u64, u128);

/// Count and row checksum of a conjunctive query.
pub type RowsCount = (u64, u64);

/// The published encoding of a conjunctive answer's row set
/// (`asv_core::ConjunctiveAnswer::rows_checksum`): a wrapping sum of a
/// per-row mix, independent of row order.
pub fn rows_checksum(rows: impl Iterator<Item = usize>) -> u64 {
    rows.fold(0u64, |acc, row| {
        acc.wrapping_add(splitmix64(row as u64 + 1))
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A table of plain value vectors.
#[derive(Clone, Debug)]
pub struct ReferenceTable {
    columns: Vec<Vec<u64>>,
}

impl ReferenceTable {
    /// A reference holding `columns`.
    pub fn new(columns: Vec<Vec<u64>>) -> Self {
        Self { columns }
    }

    /// Applies a committed write.
    pub fn apply(&mut self, col: usize, row: usize, value: u64) {
        self.columns[col][row] = value;
    }

    /// The committed value of `(col, row)`.
    pub fn value(&self, col: usize, row: usize) -> u64 {
        self.columns[col][row]
    }

    /// All committed values of column `col`.
    pub fn column(&self, col: usize) -> &[u64] {
        &self.columns[col]
    }

    /// Count and sum of the values of `col` inside `range`.
    pub fn range(&self, col: usize, range: &ValueRange) -> RangeCount {
        let (lo, hi) = (range.low(), range.high());
        self.columns[col]
            .iter()
            .filter(|&&v| lo <= v && v <= hi)
            .fold((0, 0), |(n, s), &v| (n + 1, s + v as u128))
    }

    /// Count and row checksum of the rows satisfying every predicate.
    pub fn conjunctive(&self, predicates: &[(usize, ValueRange)]) -> RowsCount {
        let rows = self.columns[predicates[0].0].len();
        let matching = (0..rows).filter(|&row| {
            predicates.iter().all(|(col, r)| {
                r.low() <= self.columns[*col][row] && self.columns[*col][row] <= r.high()
            })
        });
        let rows: Vec<usize> = matching.collect();
        (rows.len() as u64, rows_checksum(rows.into_iter()))
    }
}

/// Answers many ranges over one static column in a single pass: every
/// value is counted into the bucket between consecutive range bounds, and
/// each answer is a difference of bucket prefix sums.
pub fn range_answers(values: &[u64], ranges: &[ValueRange]) -> Vec<RangeCount> {
    let mut bounds: Vec<u128> = ranges
        .iter()
        .flat_map(|r| [r.low() as u128, r.high() as u128 + 1])
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    // Bucket j holds the values v with bounds[j - 1] <= v < bounds[j].
    let mut counts = vec![0u64; bounds.len() + 1];
    let mut sums = vec![0u128; bounds.len() + 1];
    for &v in values {
        let j = bounds.partition_point(|&b| b <= v as u128);
        counts[j] += 1;
        sums[j] += v as u128;
    }
    for j in 1..counts.len() {
        counts[j] += counts[j - 1];
        sums[j] += sums[j - 1];
    }
    let index = |b: u128| {
        bounds
            .binary_search(&b)
            .expect("every range bound is a bucket edge")
    };
    ranges
        .iter()
        .map(|r| {
            let (a, b) = (index(r.low() as u128), index(r.high() as u128 + 1));
            (counts[b] - counts[a], sums[b] - sums[a])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_core::{AdaptiveConfig, ServeTable};
    use asv_vmem::SimBackend;

    fn values(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| splitmix64(i) % 10_000).collect()
    }

    fn ranges() -> Vec<ValueRange> {
        (0..50u64)
            .map(|i| {
                let lo = splitmix64(i + 99) % 10_000;
                ValueRange::new(lo, lo + splitmix64(i) % 2_000)
            })
            .chain([ValueRange::full(), ValueRange::point(7)])
            .collect()
    }

    #[test]
    fn batched_range_answers_match_the_naive_filter() {
        let vals = values(5_000);
        let table = ReferenceTable::new(vec![vals.clone()]);
        let got = range_answers(&vals, &ranges());
        for (range, answer) in ranges().iter().zip(got) {
            assert_eq!(answer, table.range(0, range));
        }
    }

    #[test]
    fn conjunctive_reference_checksums_the_matching_rows() {
        let table = ReferenceTable::new(vec![vec![1, 5, 5, 9], vec![0, 1, 2, 3]]);
        let preds = [(0, ValueRange::new(5, 9)), (1, ValueRange::new(2, 3))];
        assert_eq!(
            table.conjunctive(&preds),
            (2, rows_checksum([2, 3].into_iter()))
        );
    }

    /// Checks a served table's answers against `reference`, the way the
    /// workloads do.
    fn gate(served: &[u64], reference: &ReferenceTable) -> Result<(), Mismatch> {
        let mut table = ServeTable::new(SimBackend::new(), AdaptiveConfig::default());
        table.add_column(served).expect("column");
        table
            .install_view(0, ValueRange::new(2_000, 4_000))
            .expect("view");
        let snap = table.handle().pin();
        for (i, range) in ranges().iter().enumerate() {
            let got = snap.query_range(0, range);
            check(
                &format!("read {i}"),
                (got.count, got.sum),
                reference.range(0, range),
            )?;
            let preds = [(0, *range), (0, ValueRange::new(0, 5_000))];
            let got = snap.query_conjunctive(&preds);
            check(
                &format!("conjunctive read {i}"),
                (got.count, got.rows_checksum),
                reference.conjunctive(&preds),
            )?;
        }
        Ok(())
    }

    #[test]
    fn the_gate_passes_a_true_reference_and_trips_on_a_wrong_one() {
        let vals = values(20_000);
        assert_eq!(
            gate(&vals, &ReferenceTable::new(vec![vals.clone()])),
            Ok(())
        );
        let mut wrong = ReferenceTable::new(vec![vals.clone()]);
        wrong.apply(0, 123, (vals[123] + 1) % 10_000);
        let err = gate(&vals, &wrong).expect_err("a wrong reference must trip the gate");
        assert!(err.0.contains("engine answered"), "{err}");
    }
}
