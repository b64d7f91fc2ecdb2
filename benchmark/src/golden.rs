//! Golden digests: what the simulated outputs must be, bit for bit.
//!
//! `golden/goldens.tsv` is compiled in, so a run reads no file for them.
//! `paxbench bless` rewrites it, and is allowed only in a change that
//! alters the modelled design on purpose: a change meant to make the
//! simulator faster must leave every line of it alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use paxsim_core::hash::fnv1a;

const COMMITTED: &str = include_str!("../golden/goldens.tsv");

pub fn file_path() -> std::path::PathBuf {
    crate::host::bench_dir().join("golden/goldens.tsv")
}

/// FNV-1a of a text output.
pub fn digest(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

pub struct Goldens {
    map: BTreeMap<String, u64>,
    bless: bool,
}

impl Goldens {
    /// The committed goldens, for checking.
    pub fn committed() -> Goldens {
        Goldens {
            map: parse(COMMITTED),
            bless: false,
        }
    }

    /// An empty table that accepts and records whatever it is shown.
    pub fn blessing() -> Goldens {
        Goldens {
            map: BTreeMap::new(),
            bless: true,
        }
    }

    /// Does `digest` match the golden under `key`? A key the file lacks
    /// is a mismatch. While blessing, records it and says yes.
    pub fn check(&mut self, key: &str, digest: u64) -> bool {
        if self.bless {
            self.map.insert(key.to_string(), digest);
            return true;
        }
        self.map.get(key) == Some(&digest)
    }

    /// A golden number (a deterministic simulated statistic), compared
    /// by its exact bits.
    pub fn check_value(&mut self, key: &str, value: f64) -> bool {
        self.check(key, value.to_bits())
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# paxbench goldens: key <TAB> FNV-1a digest (or f64 bits) in hex.\n\
             # Regenerate with `paxbench bless`, only when a change alters the modelled design on purpose.\n",
        );
        for (k, v) in &self.map {
            let _ = writeln!(out, "{k}\t{v:016x}");
        }
        out
    }
}

fn parse(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (k, v) = l.split_once('\t')?;
            Some((k.to_string(), u64::from_str_radix(v.trim(), 16).ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_compares_and_blessing_records() {
        let mut g = Goldens {
            map: parse("# c\nengine:x\t00000000000000ff\n"),
            bless: false,
        };
        assert!(g.check("engine:x", 0xff));
        assert!(!g.check("engine:x", 0xfe));
        assert!(!g.check("engine:missing", 0xff));

        let mut b = Goldens::blessing();
        assert!(b.check("k", 7));
        assert!(b.check_value("v", 0.1124));
        let round = parse(&b.render());
        assert_eq!(round["k"], 7);
        assert_eq!(f64::from_bits(round["v"]), 0.1124);
    }

    #[test]
    fn committed_goldens_parse() {
        let g = Goldens::committed();
        assert!(g.len() > 50, "only {} committed goldens", g.len());
    }
}
