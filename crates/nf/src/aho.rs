//! Aho–Corasick multi-pattern matcher, from scratch, backing the IDS
//! ("a simple NF similar to the core signature matching component of the
//! Snort intrusion detection system with 100 signature inspection rules",
//! §6.1).

use std::collections::VecDeque;

/// A compiled multi-pattern automaton.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// goto function: 256 transitions per state (dense; signature sets are
    /// small and lookup speed matters on the datapath).
    goto_fn: Vec<[u32; 256]>,
    /// Pattern indices terminating at each state.
    output: Vec<Vec<u32>>,
}

/// A single match occurrence.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Match {
    /// Index of the matched pattern (insertion order).
    pattern: u32,
    /// Byte offset one past the end of the match in the haystack.
    end: usize,
}

impl AhoCorasick {
    /// Compile an automaton over the given patterns. Empty patterns are
    /// ignored.
    pub fn new<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let mut goto_fn: Vec<[u32; 256]> = vec![[0u32; 256]];
        let mut output: Vec<Vec<u32>> = vec![Vec::new()];
        let mut filled: Vec<[bool; 256]> = vec![[false; 256]];
        for (pi, pat) in patterns.into_iter().enumerate() {
            let pat = pat.as_ref();
            if pat.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &b in pat {
                let b = b as usize;
                if filled[state][b] {
                    state = goto_fn[state][b] as usize;
                } else {
                    let next = goto_fn.len() as u32;
                    goto_fn.push([0u32; 256]);
                    output.push(Vec::new());
                    filled.push([false; 256]);
                    goto_fn[state][b] = next;
                    filled[state][b] = true;
                    state = next as usize;
                }
            }
            output[state].push(pi as u32);
        }
        // BFS to build failure links and complete the goto function into a
        // full DFA (unfilled transitions follow failure links).
        let mut fail = vec![0u32; goto_fn.len()];
        let mut queue = VecDeque::new();
        for b in 0..256 {
            if filled[0][b] {
                queue.push_back(goto_fn[0][b]);
            }
        }
        while let Some(s) = queue.pop_front() {
            let s = s as usize;
            for b in 0..256 {
                if filled[s][b] {
                    let t = goto_fn[s][b];
                    fail[t as usize] = goto_fn[fail[s] as usize][b];
                    let inherited = output[fail[t as usize] as usize].clone();
                    output[t as usize].extend(inherited);
                    queue.push_back(t);
                } else {
                    goto_fn[s][b] = goto_fn[fail[s] as usize][b];
                }
            }
        }
        Self { goto_fn, output }
    }

    /// Number of patterns compiled in.
    #[cfg(test)]
    pub(crate) fn pattern_count(&self) -> usize {
        let ids: std::collections::HashSet<_> = self.output.iter().flatten().collect();
        ids.len()
    }

    /// Number of automaton states (diagnostics).
    #[cfg(test)]
    fn state_count(&self) -> usize {
        self.goto_fn.len()
    }

    /// Find all matches in `haystack`.
    #[cfg(test)]
    fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut state = 0usize;
        for (i, &b) in haystack.iter().enumerate() {
            state = self.goto_fn[state][b as usize] as usize;
            for &p in &self.output[state] {
                out.push(Match {
                    pattern: p,
                    end: i + 1,
                });
            }
        }
        out
    }

    /// True when any pattern occurs in `haystack` — the IDS datapath check
    /// (stops at the first hit).
    pub fn any_match(&self, haystack: &[u8]) -> bool {
        let mut state = 0usize;
        for &b in haystack {
            state = self.goto_fn[state][b as usize] as usize;
            if !self.output[state].is_empty() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_example() {
        // The canonical he/she/his/hers example from the original paper.
        let ac = AhoCorasick::new(["he", "she", "his", "hers"]);
        let matches = ac.find_all(b"ushers");
        let set: Vec<(u32, usize)> = matches.iter().map(|m| (m.pattern, m.end)).collect();
        assert!(set.contains(&(1, 4))); // she @ 4
        assert!(set.contains(&(0, 4))); // he  @ 4
        assert!(set.contains(&(3, 6))); // hers @ 6
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn overlapping_and_nested() {
        let ac = AhoCorasick::new(["aa", "aaa"]);
        let m = ac.find_all(b"aaaa");
        let aa = m.iter().filter(|m| m.pattern == 0).count();
        let aaa = m.iter().filter(|m| m.pattern == 1).count();
        assert_eq!(aa, 3);
        assert_eq!(aaa, 2);
    }

    #[test]
    fn any_match_short_circuits_and_agrees() {
        let ac = AhoCorasick::new(["attack", "exploit", "GET /admin"]);
        assert!(ac.any_match(b"GET /admin HTTP/1.1"));
        assert!(!ac.any_match(b"GET /index.html HTTP/1.1"));
        assert!(ac.any_match(b"prefix attack suffix"));
    }

    #[test]
    fn empty_patterns_ignored() {
        let ac = AhoCorasick::new(["", "x", ""]);
        assert_eq!(ac.pattern_count(), 1);
        assert!(ac.any_match(b"x"));
        assert!(!ac.any_match(b""));
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new([&[0x00u8, 0xff, 0x00][..], &[0xde, 0xad][..]]);
        assert!(ac.any_match(&[1, 2, 0x00, 0xff, 0x00, 3]));
        assert!(ac.any_match(&[0xde, 0xad]));
        assert!(!ac.any_match(&[0xff, 0x00, 0xff]));
    }

    #[test]
    fn hundred_signatures_like_the_paper() {
        let sigs: Vec<String> = (0..100).map(|i| format!("SIG{i:04}PATTERN")).collect();
        let ac = AhoCorasick::new(&sigs);
        assert_eq!(ac.pattern_count(), 100);
        assert!(ac.state_count() >= 100);
        let payload = "junk SIG0042PATTERN junk".to_string();
        let m = ac.find_all(payload.as_bytes());
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].pattern, 42);
        assert!(!ac.any_match(b"SIG9999PATTERN-NOT-THERE... SIG01"));
    }
}
