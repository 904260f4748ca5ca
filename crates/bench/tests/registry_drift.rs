//! Drift test: the experiment registry and the `table_all` suite must stay
//! in sync, so every registered experiment is printed exactly once.

#[test]
fn suite_output_lists_every_registry_id_exactly_once() {
    // `suite::all` maps the registry in order, so its emitted ids are
    // exactly `suite_ids()` — assert that list matches the registry and
    // holds no duplicates.
    let suite_ids = bci_bench::suite::suite_ids();
    let registry_ids: Vec<&str> = bci_core::experiments::registry::registry()
        .iter()
        .map(|e| e.id())
        .collect();
    assert_eq!(suite_ids, registry_ids);
    let mut seen = std::collections::BTreeSet::new();
    for id in &suite_ids {
        assert!(seen.insert(*id), "{id} appears twice in the suite output");
    }
}
