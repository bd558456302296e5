//! Correctness checks on released answers: against the oracle's truth and
//! against properties the FLEX mechanism must have.

use crate::oracle::{Label, Truth};
use crate::queries::Request;
use crate::stats::median;
use flex_db::Value;
use std::collections::BTreeMap;

/// Per-release false-alarm probability of the Laplace tail check.
const TAIL_FALSE_ALARM: f64 = 1e-9;
/// Two-sided normal quantile for a 1e-9 false alarm, for the sign test.
const SIGN_TEST_Z: f64 = 6.11;

/// Collects check failures and released-vs-true statistics of one run.
pub struct Checker {
    epsilon: f64,
    failures: Vec<String>,
    /// Released aggregate cells checked, those that differ from their
    /// truth (noised), and those released above their truth.
    cells: u64,
    noised: u64,
    above: u64,
    /// Each release's median relative error (%) over its cells with a
    /// non-zero truth.
    release_errors: Vec<f64>,
}

impl Checker {
    pub fn new(epsilon: f64) -> Checker {
        Checker {
            epsilon,
            failures: Vec::new(),
            cells: 0,
            noised: 0,
            above: 0,
            release_errors: Vec::new(),
        }
    }

    /// Fold another checker's findings into this one.
    pub fn absorb(&mut self, other: Checker) {
        self.failures.extend(other.failures);
        self.cells += other.cells;
        self.noised += other.noised;
        self.above += other.above;
        self.release_errors.extend(other.release_errors);
    }

    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.failures.push(msg);
    }

    pub fn expect(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Check one distinct release of `req` whose true answer is `truth`.
    pub fn release(&mut self, req: &Request, truth: &Truth, rows: &[Vec<Value>]) {
        for cell in rows.iter().flatten() {
            if let Value::Float(f) = cell {
                if !f.is_finite() {
                    self.fail(format!("non-finite cell {f} in `{}`", req.sql));
                    return;
                }
            }
        }
        match truth {
            Truth::Scalar(t) => {
                let released = match rows {
                    [row] if row.len() == 1 => row[0].as_f64(),
                    _ => None,
                };
                let Some(r) = released else {
                    self.fail(format!("`{}` did not release one number", req.sql));
                    return;
                };
                if req.spec.is_plain_count() {
                    // Elastic sensitivity 1 smooths to 1: noise Lap(2/ε).
                    let bound = 2.0 / self.epsilon * (1.0 / TAIL_FALSE_ALARM).ln();
                    self.expect((r - t).abs() <= bound, || {
                        format!(
                            "`{}` released {r}, truth {t}: beyond the Laplace tail bound {bound}",
                            req.sql
                        )
                    });
                }
                self.record(&[(r, *t)]);
            }
            Truth::Bins { cells, .. } => {
                let mut released: BTreeMap<Vec<Label>, f64> = BTreeMap::new();
                for row in rows {
                    let Some((value, labels)) = row.split_last() else {
                        self.fail(format!("`{}` released an empty row", req.sql));
                        return;
                    };
                    let labels: Option<Vec<Label>> = labels.iter().map(Label::of).collect();
                    match (labels, value.as_f64()) {
                        (Some(l), Some(v)) => {
                            released.insert(l, v);
                        }
                        _ => {
                            self.fail(format!("`{}` released a malformed bin {row:?}", req.sql));
                            return;
                        }
                    }
                }
                if released.len() != rows.len() || !released.keys().eq(cells.keys()) {
                    self.fail(format!(
                        "`{}` released bins {:?}, the oracle expects {:?}",
                        req.sql,
                        released.keys().take(5).collect::<Vec<_>>(),
                        cells.keys().take(5).collect::<Vec<_>>()
                    ));
                    return;
                }
                let pairs: Vec<(f64, f64)> = cells.iter().map(|(l, t)| (released[l], *t)).collect();
                self.record(&pairs);
            }
        }
    }

    fn record(&mut self, cells: &[(f64, f64)]) {
        self.cells += cells.len() as u64;
        self.noised += cells.iter().filter(|(r, t)| r != t).count() as u64;
        self.above += cells.iter().filter(|(r, t)| r > t).count() as u64;
        let mut errors: Vec<f64> = cells
            .iter()
            .filter(|(_, t)| *t != 0.0)
            .map(|(r, t)| ((r - t) / t).abs() * 100.0)
            .collect();
        if let Some(e) = median(&mut errors) {
            self.release_errors.push(e);
        }
    }

    /// Run-level checks; returns whether every check passed and the
    /// utility metric: the geometric mean over releases of each release's
    /// median relative error (%), the paper's per-query measure. Over one
    /// run's ~1,000 cold releases the median of that measure moved by a
    /// tenth between seeds, the geometric mean by a few hundredths.
    pub fn finish(&mut self) -> (bool, f64) {
        // Laplace noise is symmetric: among noised cells, the share
        // released above the truth must be consistent with one half.
        let (n, above) = (self.noised as f64, self.above as f64);
        let slack = SIGN_TEST_Z * n.sqrt() / 2.0 + 0.5;
        if (above - n / 2.0).abs() > slack {
            self.fail(format!(
                "{above} of {n} noised cells lie above their truth (sign test bound ±{slack:.1})"
            ));
        }
        if self.cells == 0 {
            self.fail("no released cells were checked".into());
        }
        let logs: Vec<f64> = self
            .release_errors
            .iter()
            .filter(|e| **e > 0.0)
            .map(|e| e.ln())
            .collect();
        let geomean = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
        (self.failures.is_empty(), geomean)
    }
}

/// Bitwise equality of released rows (floats compared by bit pattern).
pub fn same_bytes(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| match (u, v) {
                    (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                    _ => u == v,
                })
        })
}

/// `k` charges of `epsilon`, summed the way a ledger account adds them.
pub fn repeated_spend(epsilon: f64, k: usize) -> f64 {
    (0..k).fold(0.0, |acc, _| acc + epsilon)
}
