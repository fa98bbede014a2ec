//! Shared helpers for the workspace-level test suites.

use mrdb::exec::TableProvider;
use mrdb::prelude::*;

/// Run `plan` on every engine `EngineKind::all()` lists, assert each agrees
/// with the [`EngineKind::Volcano`] oracle (up to row order), and return
/// the oracle's output for content assertions. Iterating `all()` means a
/// newly registered engine is covered by every suite that calls this,
/// without editing any test.
pub fn assert_engines_agree(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    ctx: &str,
) -> QueryOutput {
    let run = |kind: EngineKind| {
        kind.engine()
            .execute(plan, provider)
            .unwrap_or_else(|e| panic!("{ctx}: {kind:?} failed: {e}"))
    };
    let oracle = run(EngineKind::Volcano);
    for kind in EngineKind::all() {
        if kind != EngineKind::Volcano {
            oracle.assert_same(&run(kind), &format!("{ctx}: Volcano vs {kind:?}"));
        }
    }
    oracle
}
