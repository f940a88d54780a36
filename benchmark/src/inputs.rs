//! Inputs made from the seed, and the reference computation the word
//! workloads are checked against.

use std::collections::HashMap;

use bytes::Bytes;
use seep_operators::lrb::LrbRecord;
use seep_workloads::sentences::{SentenceConfig, SentenceGenerator};
use seep_workloads::{LrbConfig, LrbGenerator};

/// Vocabulary and skew of the sentence fragments (the generator's defaults,
/// pinned here so a change of default cannot silently change the workload).
pub const VOCABULARY: usize = 10_000;
pub const ZIPF_EXPONENT: f64 = 1.1;

/// `n` sentence fragments of ~140 bytes.
pub fn fragments(seed: u64, n: usize) -> Vec<String> {
    SentenceGenerator::new(SentenceConfig {
        vocabulary: VOCABULARY,
        zipf_exponent: ZIPF_EXPONENT,
        seed,
    })
    .next_batch(n)
}

/// The payloads the data feeder injects: each value `bincode`-encoded once,
/// up front, so the timed loop only clones a refcounted buffer.
pub fn encode_all<T: serde::Serialize>(values: &[T]) -> Vec<Bytes> {
    values
        .iter()
        .map(|v| Bytes::from(bincode::serialize(v).expect("input serialises")))
        .collect()
}

/// The words the query must count for one fragment: split at every
/// non-alphanumeric character, drop empty segments, lower-case. Written
/// independently of the operator chain; a unit test holds the two equal.
pub fn reference_words(fragment: &str) -> impl Iterator<Item = String> + '_ {
    fragment
        .split(|c: char| !c.is_alphanumeric())
        .filter(|segment| !segment.is_empty())
        .map(str::to_lowercase)
}

/// Per-word totals after injecting the pool cyclically, `injected` fragments
/// in all, starting at pool index 0.
pub fn reference_counts(pool: &[String], injected: u64) -> HashMap<String, u64> {
    let len = pool.len() as u64;
    let (passes, rest) = (injected / len, (injected % len) as usize);
    let mut counts: HashMap<String, u64> = HashMap::new();
    for (index, fragment) in pool.iter().enumerate() {
        let times = passes + u64::from(index < rest);
        if times > 0 {
            for word in reference_words(fragment) {
                *counts.entry(word).or_default() += times;
            }
        }
    }
    counts
}

/// Σ |observed − expected| over the union of both key sets.
pub fn count_mismatch(observed: &HashMap<String, u64>, expected: &HashMap<String, u64>) -> u64 {
    let mut diff = 0;
    for (word, want) in expected {
        diff += want.abs_diff(observed.get(word).copied().unwrap_or(0));
    }
    for (word, got) in observed {
        if !expected.contains_key(word) {
            diff += got;
        }
    }
    diff
}

/// The first `n` input records of a four-expressway Linear Road run
/// compressed to 120 simulated seconds.
pub fn lrb_records(seed: u64, n: usize) -> Vec<LrbRecord> {
    let mut generator = LrbGenerator::new(LrbConfig {
        expressways: 4,
        duration_secs: 120,
        seed,
        ..Default::default()
    });
    let mut records = Vec::with_capacity(n + 8_192);
    let mut second = 0;
    while records.len() < n {
        records.extend(generator.generate_second(second));
        second += 1;
    }
    records.truncate(n);
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(fragments(5, 50), fragments(5, 50));
        assert_ne!(fragments(5, 50), fragments(6, 50));
        assert_eq!(lrb_records(5, 500), lrb_records(5, 500));
        assert_ne!(lrb_records(5, 500), lrb_records(6, 500));
    }

    #[test]
    fn reference_words_splits_filters_and_lowercases() {
        let words: Vec<String> = reference_words(" Word1,  word2!WORD1").collect();
        assert_eq!(words, ["word1", "word2", "word1"]);
    }

    #[test]
    fn reference_counts_follow_the_cyclic_injection_order() {
        let pool = vec!["a b".to_string(), "b c".to_string(), "c".to_string()];
        // Two full passes plus the first fragment once more.
        let counts = reference_counts(&pool, 7);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 5);
        assert_eq!(counts["c"], 4);
        assert_eq!(count_mismatch(&counts, &counts), 0);

        let mut off = counts.clone();
        *off.get_mut("a").unwrap() -= 2;
        off.insert("zzz".into(), 4);
        off.remove("c");
        assert_eq!(count_mismatch(&off, &counts), 2 + 4 + 4);
    }
}
