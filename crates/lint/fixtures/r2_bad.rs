// Fixture (never compiled): unsafe in a module outside the kernel
// whitelist — R2 must fire even though the site carries a SAFETY comment.
pub fn sneaky(p: *const u8) -> u8 {
    // SAFETY: documented, but in the wrong place.
    unsafe { *p }
}
