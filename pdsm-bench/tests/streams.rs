//! The statement stream is a pure function of the seed.

use pdsm_perfbench::workload::{Class, Dataset, Scale, Stmt, Stream, Workload};

fn stream(w: Workload, seed: u64, conn: usize, n: usize) -> Vec<Stmt> {
    let ds = Dataset::generate(w, Scale::Smoke, seed);
    let mut s = Stream::new(seed, conn);
    (0..n).map(|_| s.next_stmt(&ds)).collect()
}

#[test]
fn same_seed_same_bytes_different_seed_different_bytes() {
    for w in Workload::ALL {
        let a = stream(w, 7, 0, 400);
        // A second data set and stream from the same seed: byte-identical
        // SQL, expectations and model effects.
        assert_eq!(a, stream(w, 7, 0, 400), "{}", w.name());
        let sql = |s: &[Stmt]| s.iter().map(|x| x.sql.clone()).collect::<Vec<_>>();
        assert_ne!(sql(&a), sql(&stream(w, 8, 0, 400)), "{} seed", w.name());
        assert_ne!(
            sql(&a),
            sql(&stream(w, 7, 1, 400)),
            "{} connection",
            w.name()
        );
    }
}

#[test]
fn every_workload_reads_and_writes() {
    for w in Workload::ALL {
        let s = stream(w, 1, 0, 2000);
        let writes = s.iter().filter(|x| x.class == Class::Write).count();
        assert!(
            writes > 0 && writes < s.len() / 2,
            "{}: {writes} writes",
            w.name()
        );
    }
}

#[test]
fn connections_write_disjoint_keys() {
    // The model adds up per connection only if no two connections ever
    // touch the same key: every write names a key of its own range.
    for w in Workload::ALL {
        let keys = |conn: usize| -> Vec<String> {
            stream(w, 3, conn, 600)
                .into_iter()
                .filter(|x| x.class == Class::Write)
                .map(|x| {
                    let digits: String = x
                        .sql
                        .split(|c: char| !c.is_ascii_digit())
                        .find(|t| t.len() == 8)
                        .expect("an own key is eight digits")
                        .to_string();
                    digits
                })
                .collect()
        };
        let (a, b) = (keys(0), keys(1));
        assert!(a.iter().all(|k| k.starts_with('1')), "{}", w.name());
        assert!(b.iter().all(|k| k.starts_with('2')), "{}", w.name());
    }
}

#[test]
fn probes_are_sixteen_fixed_reads() {
    for w in Workload::ALL {
        let ds = Dataset::generate(w, Scale::Smoke, 5);
        let probes = ds.probes();
        assert_eq!(probes.len(), 16);
        assert_eq!(probes, ds.probes());
        assert!(
            probes.iter().all(|p| p.starts_with("SELECT")),
            "{}",
            w.name()
        );
    }
}
