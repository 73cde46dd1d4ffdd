//! Output checks: every output a pass produces is digested and compared
//! with the digest committed in `expected.txt`.

use std::collections::BTreeMap;

/// The committed expectations, compiled into the binary so a checkout
/// cannot run against a stale file.
const EXPECTED: &str = include_str!("../expected.txt");

/// 64-bit digest of `bytes`, eight bytes at a time. Each step xors a word
/// into the state and applies a bijection (multiply by an odd constant,
/// then rotate), so two inputs of equal length that differ in any one
/// word always end in different states; the length is folded in last.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail))
        .wrapping_mul(K)
        .rotate_left(29);
    (h ^ bytes.len() as u64).wrapping_mul(K)
}

/// Compares outputs against the committed expectations, or in bless mode
/// records them so the expectations can be regenerated.
pub struct Checker {
    workload: &'static str,
    expected: BTreeMap<String, String>,
    bless: Option<BTreeMap<String, String>>,
    /// Output kinds (the key's first dot-separated part) whose perturbation
    /// self-test has already run in this process.
    self_tested: Vec<String>,
    /// Every mismatch and failed self-test, in the order found.
    pub errors: Vec<String>,
}

impl Checker {
    pub fn new(workload: &'static str, bless: bool) -> Checker {
        let expected = EXPECTED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut parts = l.split_whitespace();
                match (parts.next(), parts.next(), parts.next()) {
                    (Some(w), Some(k), Some(v)) if w == workload => {
                        Some((k.to_string(), v.to_string()))
                    }
                    _ => None,
                }
            })
            .collect();
        Checker {
            workload,
            expected,
            bless: bless.then(BTreeMap::new),
            self_tested: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Checks one output against its committed digest; returns whether it
    /// matched. The first output of each kind is also perturbed by one
    /// byte, which must make it mismatch, and restored.
    pub fn output(&mut self, key: &str, bytes: &mut [u8]) -> bool {
        let actual = format!("{:016x}", digest(bytes));
        if let Some(bless) = &mut self.bless {
            bless.insert(key.to_string(), actual);
            return true;
        }
        let ok = self.expected.get(key) == Some(&actual);
        if !ok {
            let shown = match std::str::from_utf8(bytes) {
                Ok(s) if s.len() <= 120 => format!(" ({s})"),
                _ => String::new(),
            };
            self.errors.push(format!(
                "{} {key}: digest {actual}{shown}, expected {}",
                self.workload,
                self.expected.get(key).map_or("none", String::as_str)
            ));
        }
        let kind = key.split('.').next().unwrap_or(key).to_string();
        if ok && !bytes.is_empty() && !self.self_tested.contains(&kind) {
            let at = bytes.len() / 2;
            bytes[at] ^= 0x01;
            if self.expected.get(key) == Some(&format!("{:016x}", digest(bytes))) {
                self.errors.push(format!(
                    "self-test: a one-byte change to {} {key} went unnoticed",
                    self.workload
                ));
            }
            bytes[at] ^= 0x01;
            self.self_tested.push(kind);
        }
        ok
    }

    /// A workload's committed count (`count.<name>`).
    pub fn count_of(workload: &str, name: &str) -> Option<f64> {
        EXPECTED.lines().find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(workload) && parts.next() == Some(&format!("count.{name}")))
                .then(|| parts.next()?.parse().ok())
                .flatten()
        })
    }

    /// Records a count in bless mode; otherwise checks it against the
    /// committed value.
    pub fn expect_count(&mut self, name: &str, actual: f64) {
        if let Some(bless) = &mut self.bless {
            bless.insert(format!("count.{name}"), actual.to_string());
        } else {
            let expected = Self::count_of(self.workload, name);
            if expected != Some(actual) {
                self.errors.push(format!(
                    "{} count.{name}: {actual}, expected {expected:?}",
                    self.workload
                ));
            }
        }
    }

    /// The recorded expectations in `expected.txt` format (bless mode).
    pub fn blessed(&self) -> Option<String> {
        self.bless.as_ref().map(|b| {
            b.iter()
                .map(|(k, v)| format!("{} {k} {v}\n", self.workload))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::digest;

    #[test]
    fn every_single_byte_change_moves_the_digest() {
        let text = b"{\"name\": \"harmony-pp\", \"sim_secs\": 1.25, \"samples\": 40}";
        let base = digest(text);
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut t = text.to_vec();
                t[at] ^= 1 << bit;
                assert_ne!(digest(&t), base, "byte {at} bit {bit}");
            }
        }
        assert_ne!(digest(&text[..text.len() - 1]), base);
    }
}
