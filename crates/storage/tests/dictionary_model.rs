//! A dictionary against a model: random interns and lookups must agree
//! with a vector of strings in code order plus a map from string to code.

use pdsm_storage::Dictionary;
use proptest::prelude::*;
use std::collections::HashMap;

/// String `i` of the test vocabulary: the empty string, stems that are
/// prefixes of one another, multi-byte UTF-8, and a counter that makes
/// most of the 1 000 draws distinct.
fn word(i: usize) -> String {
    let stem = ["", "pre", "prefix", "日本", "naïve"][i % 5];
    match i / 5 {
        0 => stem.to_owned(),
        n => format!("{stem}{n}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hundreds of distinct strings, so the code index grows several
    /// times within one case.
    #[test]
    fn agrees_with_a_vec_and_map_model(
        ops in proptest::collection::vec((0u8..4, 0usize..1000), 1..1500),
    ) {
        let mut d = Dictionary::new();
        let mut strings: Vec<String> = Vec::new();
        let mut codes: HashMap<String, u32> = HashMap::new();
        for (op, i) in ops {
            let w = word(i);
            match op {
                0 | 1 => {
                    let want = *codes.entry(w.clone()).or_insert_with(|| {
                        strings.push(w.clone());
                        strings.len() as u32 - 1
                    });
                    prop_assert_eq!(d.intern(&w), want);
                }
                2 => prop_assert_eq!(d.code_of(&w), codes.get(&w).copied()),
                _ => {
                    if !strings.is_empty() {
                        let c = i % strings.len();
                        prop_assert_eq!(d.decode(c as u32), strings[c].as_str());
                    }
                }
            }
        }
        prop_assert_eq!(d.len(), strings.len());
        prop_assert_eq!(d.is_empty(), strings.is_empty());
        let pairs: Vec<(u32, &str)> = d.iter().collect();
        let want: Vec<(u32, &str)> =
            (strings.iter().enumerate()).map(|(c, s)| (c as u32, s.as_str())).collect();
        prop_assert_eq!(pairs, want);
        let pre = |s: &str| s.starts_with("pre");
        let want: Vec<u32> =
            (0..strings.len() as u32).filter(|&c| pre(&strings[c as usize])).collect();
        prop_assert_eq!(d.codes_matching(pre), want);
    }
}
