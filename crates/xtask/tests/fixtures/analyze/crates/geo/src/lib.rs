//! Seeded GT-AN-003 violations: pub items nobody references. Layering is
//! GT-LINT-006's, on manifests, so the upward import is not a finding.

use geotopo_core::Engine;

pub fn touch() -> Engine {
    Engine
}

pub fn orphan_api() {}
