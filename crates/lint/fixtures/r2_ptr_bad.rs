// Fixture (never compiled): raw-pointer surgery outside the whitelist —
// the pointer offset and `from_raw_parts` need the `unsafe` R2 rejects.
pub fn view(p: *const u8, len: usize, off: usize) -> u8 {
    // SAFETY: documented, but this file is not a whitelisted kernel.
    unsafe {
        let shifted = p.add(off);
        let s = std::slice::from_raw_parts(shifted, len - off);
        s[0]
    }
}
