//! The cost model and the cache simulator must agree on *rankings* — the
//! property the layout optimizer actually relies on. Absolute miss counts
//! are checked in Fig. 6's harness; here we assert order agreement on the
//! decisions the paper's system makes.

use mrdb::cachesim::{run_atom, trace, SimConfig};
use mrdb::cost::{cost, misses::atom_misses, Atom, Hierarchy, Pattern};

#[test]
fn model_and_sim_agree_sequential_beats_random() {
    let hw = Hierarchy::nehalem();
    let n = 500_000u64;
    let seq_cost = cost::estimate(&Pattern::atom(Atom::s_trav(n, 8)), &hw).total_cycles;
    let rnd_cost = cost::estimate(&Pattern::atom(Atom::r_trav(n, 8)), &hw).total_cycles;
    assert!(seq_cost < rnd_cost);
    let seq_sim = run_atom(&Atom::s_trav(n, 8), SimConfig::nehalem(), 1);
    let rnd_sim = run_atom(&Atom::r_trav(n, 8), SimConfig::nehalem(), 1);
    assert!(
        seq_sim.paper_random() < rnd_sim.paper_random(),
        "simulator must also see fewer demand misses for the sequential scan"
    );
}

#[test]
fn model_and_sim_agree_on_layout_ranking_for_selective_projection() {
    // The PDSM question: reading 16 payload bytes at s=10% from 16-byte
    // fragments (hybrid) vs from 64-byte fragments (row). Both referees
    // must prefer the hybrid.
    let hw = Hierarchy::nehalem();
    let llc = hw.llc().clone();
    let n = 400_000u64;
    let s = 0.1;
    let hybrid_pred = atom_misses(&Atom::s_trav_cr(n, 16, 16, s), &llc, 1.0);
    let row_pred = atom_misses(&Atom::s_trav_cr(n, 64, 16, s), &llc, 1.0);
    assert!(hybrid_pred.total() < row_pred.total());

    let (hybrid_sim, _) = trace::run_selective_projection(n, 16, s, SimConfig::nehalem(), 7);
    let (row_sim, _) = trace::run_selective_projection(n, 64, s, SimConfig::nehalem(), 7);
    let total = |st: &trace::AtomTraceStats| st.paper_sequential() + st.paper_random();
    assert!(
        total(&hybrid_sim) < total(&row_sim),
        "simulated misses must also favour the narrow fragments: {} vs {}",
        total(&hybrid_sim),
        total(&row_sim)
    );
}

#[test]
fn prediction_tracks_simulation_across_selectivities() {
    // Pointwise agreement within a tolerance band over the sweep —
    // the quantitative core of Fig. 6.
    let hw = Hierarchy::nehalem();
    let llc = hw.llc().clone();
    let n = 300_000u64;
    let w = 16u64;
    let lines = (n * w) as f64 / llc.block as f64;
    for s in [0.01, 0.05, 0.1, 0.3, 0.5, 0.8] {
        let pred = atom_misses(&Atom::s_trav_cr(n, w, w, s), &llc, 1.0);
        let (sim, _) = trace::run_selective_projection(n, w, s, SimConfig::nehalem(), 11);
        let pred_frac = pred.total() / lines;
        let sim_frac = (sim.paper_sequential() + sim.paper_random()) as f64 / lines;
        assert!(
            (pred_frac - sim_frac).abs() < 0.08,
            "s={s}: predicted {pred_frac:.3} vs simulated {sim_frac:.3}"
        );
        let pred_rand = pred.random / lines;
        let sim_rand = sim.paper_random() as f64 / lines;
        assert!(
            (pred_rand - sim_rand).abs() < 0.08,
            "s={s}: predicted random {pred_rand:.3} vs simulated {sim_rand:.3}"
        );
    }
}

#[test]
fn rr_acc_model_underestimates_selective_projection() {
    // The motivating defect of §IV-C1: pricing a selective projection as
    // rr_acc loses misses relative to both s_trav_cr and the simulator.
    let hw = Hierarchy::nehalem();
    let llc = hw.llc().clone();
    let n = 300_000u64;
    let s = 0.6;
    let cr = atom_misses(&Atom::s_trav_cr(n, 16, 16, s), &llc, 1.0);
    let rr = atom_misses(&Atom::rr_acc(n, 16, (s * n as f64) as u64), &llc, 1.0);
    assert!(rr.total() < cr.total(), "rr_acc must underestimate");
    assert_eq!(rr.sequential, 0.0, "rr_acc cannot model prefetched misses");
    assert!(cr.sequential > 0.0);
}

#[test]
fn prefetch_hiding_only_helps_sequential_patterns() {
    let hw = Hierarchy::nehalem();
    let n = 2_000_000u64;
    let seq = Pattern::atom(Atom::s_trav(n, 8));
    let rnd = Pattern::atom(Atom::r_trav(n, 8));
    let seq_gain =
        cost::estimate_flat(&seq, &hw).total_cycles - cost::estimate(&seq, &hw).total_cycles;
    let rnd_gain =
        cost::estimate_flat(&rnd, &hw).total_cycles - cost::estimate(&rnd, &hw).total_cycles;
    assert!(seq_gain > 0.0, "scans benefit from prefetch hiding");
    assert_eq!(rnd_gain, 0.0, "random traversals cannot hide latency");
}

#[test]
fn model_and_sim_rank_one_full_walk_below_a_walk_per_column() {
    // Sealing a checkpoint of VBAP's shape (299 487 rows of 104 bytes,
    // twenty 8-byte-or-narrower fields): one walk that reads every byte
    // of each row once, against one walk per column that reads 8 bytes of
    // every row each time. Both referees must price the twenty partial
    // walks above the one full walk, as the zone map built per column
    // paid them.
    let hw = Hierarchy::nehalem();
    let (n, w, cols) = (299_487u64, 104u64, 20u32);
    let full = Atom::s_trav(n, w);
    let column = Atom::s_trav_partial(n, w, 8);
    let full_cost = cost::estimate(&Pattern::atom(full.clone()), &hw).total_cycles;
    let column_cost = cost::estimate(&Pattern::atom(column.clone()), &hw).total_cycles;
    assert!(
        full_cost < f64::from(cols) * column_cost,
        "model: one walk {full_cost} vs {cols} column walks of {column_cost}"
    );
    // The table is far larger than the simulated LLC, so no column walk
    // finds the previous one's lines: twenty cost twenty times one.
    let touched = |a: &Atom| run_atom(a, SimConfig::nehalem(), 3).llc_accesses;
    let (full_sim, column_sim) = (touched(&full), touched(&column));
    assert!(
        full_sim < u64::from(cols) * column_sim,
        "simulator: one walk {full_sim} LLC accesses vs {cols} column walks of {column_sim}"
    );
}
