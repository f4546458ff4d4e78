//! Regression replay of the checked-in fuzz corpus.
//!
//! `fuzz/corpus/` holds golden seed kernels — generated sweep entries
//! plus minimized reproducers from past (injected) bugs — in the
//! replayable `fastsim-kernel/v1` format. Every entry must keep passing
//! the full differential oracle matrix: all hierarchy presets × GC
//! policies × replay strategies (node-at-a-time vs eagerly and
//! adaptively trace-compiled), the determinism rerun, and the batch
//! freeze/thaw/merge lifecycle.

use fastsim_fuzz::{check, corpus, OracleConfig};
use std::path::Path;

#[test]
fn corpus_replays_clean_through_the_full_matrix() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let entries = corpus::load_dir(&dir).expect("fuzz/corpus loads");
    assert!(
        entries.len() >= 20,
        "expected the 20 checked-in golden seeds, found {}",
        entries.len()
    );

    let cfg = OracleConfig::thorough();
    for (path, spec) in &entries {
        if let Err(failure) = check(spec, &cfg) {
            panic!("corpus regression in {}: {failure}", path.display());
        }
    }

    // The corpus is not all alike: it must cover stores, loops, and
    // branches somewhere (the ingredients past bugs were made of).
    let all_text: String =
        entries.iter().map(|(_, s)| s.to_text()).collect::<Vec<_>>().join("\n");
    for needle in ["store", "loop", "branch"] {
        assert!(all_text.contains(needle), "no corpus entry exercises `{needle}`");
    }
}
