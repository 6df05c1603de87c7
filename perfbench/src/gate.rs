//! The correctness gate: every checked operation is attempted once and
//! either passes or counts as failed. A run with any failure exits
//! nonzero.

use std::collections::BTreeMap;
use tpc_processor::SimStats;

/// Failure messages kept for the report (the count is never capped).
const KEPT_MESSAGES: usize = 20;

/// Attempted/failed operation counts plus the reference result of
/// every cell seen so far.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
    reference: BTreeMap<String, Vec<u64>>,
}

impl Gate {
    /// An empty gate.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Records one operation's outcome.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(message);
            }
        }
    }

    /// Records an operation that passes when `ok` holds.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.check(if ok { Ok(()) } else { Err(message()) });
    }

    /// Checks that `cell` produced the same `SimStats` words as every
    /// earlier result recorded under the same name (the first result
    /// becomes the reference).
    pub fn same_as_before(&mut self, cell: &str, stats: &SimStats) {
        let words = stats.to_words();
        let outcome = match self.reference.get(cell) {
            None => {
                self.reference.insert(cell.to_string(), words);
                Ok(())
            }
            Some(reference) if *reference == words => Ok(()),
            Some(reference) => {
                let at = reference
                    .iter()
                    .zip(&words)
                    .position(|(a, b)| a != b)
                    .unwrap_or(reference.len().min(words.len()));
                Err(format!(
                    "{cell}: SimStats word {at} differs from the first result"
                ))
            }
        };
        self.check(outcome);
    }

    /// Operations checked.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}
