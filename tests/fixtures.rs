//! The panic-site ratchet of `lint_policy.rs`, run over small source
//! snippets: what counts as a site, where a site may not sit, and that each
//! crate is held to its own budget.

mod panic_sites;

use panic_sites::{check_budget, file_sites};

#[test]
fn panic_budget_ratchets_per_crate() {
    // dolos-nvm's budget is 3: one more site is a new panic path, and one
    // fewer must lower the budget rather than leave slack for the next.
    assert!(check_budget("dolos-nvm", 3).is_ok());
    let over = check_budget("dolos-nvm", 4).expect_err("over budget");
    assert!(
        over.contains("dolos-nvm") && over.contains("exceed"),
        "{over}"
    );
    let under = check_budget("dolos-nvm", 2).expect_err("under budget");
    assert!(under.contains("lower its entry"), "{under}");
    // An unlisted crate has budget 0.
    assert!(check_budget("dolos-sim", 0).is_ok());
    assert!(check_budget("dolos-sim", 1).is_err());
}

#[test]
fn panic_budget_is_counted_per_crate_not_globally() {
    // dolos-core's 8 and dolos-nvm's 3 do not pool: 11 sites fit the sum
    // of the two budgets, never one crate's.
    assert!(check_budget("dolos-core", 8).is_ok());
    assert!(check_budget("dolos-core", 11).is_err());
    assert!(check_budget("dolos-nvm", 11).is_err());
}

#[test]
fn panic_sites_in_test_modules_are_free() {
    let src = "fn f() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   //! Panics by design.\n\
               \x20   #![expect(clippy::unwrap_used, clippy::panic, reason = \"tests\")]\n\
               }\n";
    assert_eq!(
        file_sites("dolos-sim", "crates/dolos-sim/src/a.rs", src),
        Ok(0)
    );
    // A whole test file may opt out the same way.
    let src = "#![expect(clippy::expect_used, reason = \"helpers\")]\n";
    assert_eq!(
        file_sites("dolos-sim", "crates/dolos-sim/tests/cli.rs", src),
        Ok(0)
    );
    // Shipped code may not: a module-level expect would hide every site.
    let src = "#![expect(clippy::unwrap_used, reason = \"all of it\")]\n";
    assert!(file_sites("dolos-sim", "crates/dolos-sim/src/a.rs", src).is_err());
    let src = "mod inner {\n    #![expect(clippy::unwrap_used, reason = \"x\")]\n}\n";
    assert!(file_sites("dolos-sim", "crates/dolos-sim/src/a.rs", src).is_err());
}

#[test]
fn panic_sites_ignore_comments_and_strings() {
    let src = "// #[expect(clippy::unwrap_used, reason = \"a comment\")]\n\
               /// #[expect(clippy::panic, reason = \"a doc example\")]\n\
               fn f() { let s = \"#[expect(clippy::unreachable)]\"; }\n";
    assert_eq!(
        file_sites("dolos-sim", "crates/dolos-sim/src/a.rs", src),
        Ok(0)
    );
}

#[test]
fn unwrap_like_identifiers_are_not_panic_sites() {
    let src = "#[expect(clippy::panic_in_result_fn, reason = \"x\")]\n\
               #[expect(clippy::unwrap_or_default, clippy::expect_fun_call, reason = \"x\")]\n\
               fn f() {}\n";
    assert_eq!(
        file_sites("dolos-sim", "crates/dolos-sim/src/a.rs", src),
        Ok(0)
    );
    // Each panic lint an attribute names is one site, even when it wraps.
    let src =
        "#[expect(\n    clippy::unwrap_used,\n    clippy::expect_used,\n    reason = \"x\"\n)]\n\
               fn f() {}\n";
    assert_eq!(
        file_sites("dolos-sim", "crates/dolos-sim/src/a.rs", src),
        Ok(2)
    );
    // ... unless the module is strict.
    assert!(file_sites("dolos-core", "crates/dolos-core/src/masu.rs", src).is_err());
}
