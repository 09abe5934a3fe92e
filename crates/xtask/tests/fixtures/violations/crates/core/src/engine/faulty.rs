// Seeded GT-LINT-003 violation: an unjustified `.unwrap()` on a
// supervised execution path (the engine must degrade, never abort).

pub fn resume_checkpoint(artifact: Option<u32>) -> u32 {
    artifact.unwrap()
}
