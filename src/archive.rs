//! File-level erasure-coded archives: the adoption surface of the
//! functional library.
//!
//! A file is split into `k` equal data shards (zero-padded), `m` parity
//! shards are computed with the DIALGA coder, and a plain-text manifest
//! records the geometry. Any `m` lost or corrupted shard files can be
//! rebuilt; the original file is reassembled from the data shards.
//!
//! Shards are named `<stem>.s000 … <stem>.s<k+m-1>` (data first, then
//! parity) next to the manifest `<stem>.dialga`.

use dialga::encoder::Dialga;
use dialga::pool::EncodePool;
use std::ffi::OsStr;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Errors from archive operations.
#[derive(Debug)]
pub enum ArchiveError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Coding-layer failure.
    Ec(dialga_ec::EcError),
    /// Manifest is malformed or inconsistent.
    Manifest(String),
    /// More shards are missing/corrupt than the code can repair.
    Unrecoverable {
        /// Number of unusable shards.
        lost: usize,
        /// Fault tolerance m.
        tolerance: usize,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "i/o error: {e}"),
            ArchiveError::Ec(e) => write!(f, "coding error: {e}"),
            ArchiveError::Manifest(m) => write!(f, "bad manifest: {m}"),
            ArchiveError::Unrecoverable { lost, tolerance } => {
                write!(f, "{lost} shards unusable, tolerance is {tolerance}")
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<io::Error> for ArchiveError {
    fn from(e: io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl From<dialga_ec::EcError> for ArchiveError {
    fn from(e: dialga_ec::EcError) -> Self {
        ArchiveError::Ec(e)
    }
}

/// Archive geometry and provenance, stored as `<stem>.dialga`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Data shards.
    pub k: usize,
    /// Parity shards.
    pub m: usize,
    /// Original file length in bytes.
    pub file_len: u64,
    /// Bytes per shard (file_len padded up to a multiple of 64·k, / k).
    pub shard_len: u64,
    /// Original file name (for restore).
    pub file_name: String,
}

impl Manifest {
    fn to_text(&self) -> String {
        format!(
            "dialga-archive v1\nk={}\nm={}\nfile_len={}\nshard_len={}\nfile_name={}\n",
            self.k, self.m, self.file_len, self.shard_len, self.file_name
        )
    }

    fn from_text(text: &str) -> Result<Manifest, ArchiveError> {
        let mut lines = text.lines();
        if lines.next() != Some("dialga-archive v1") {
            return Err(ArchiveError::Manifest("missing header".into()));
        }
        let mut k = None;
        let mut m = None;
        let mut file_len = None;
        let mut shard_len = None;
        let mut file_name = None;
        for line in lines {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key {
                "k" => k = value.parse().ok(),
                "m" => m = value.parse().ok(),
                "file_len" => file_len = value.parse().ok(),
                "shard_len" => shard_len = value.parse().ok(),
                "file_name" => file_name = Some(value.to_string()),
                _ => {}
            }
        }
        let manifest = Manifest {
            k: k.ok_or_else(|| ArchiveError::Manifest("missing k".into()))?,
            m: m.ok_or_else(|| ArchiveError::Manifest("missing m".into()))?,
            file_len: file_len.ok_or_else(|| ArchiveError::Manifest("missing file_len".into()))?,
            shard_len: shard_len
                .ok_or_else(|| ArchiveError::Manifest("missing shard_len".into()))?,
            file_name: file_name
                .ok_or_else(|| ArchiveError::Manifest("missing file_name".into()))?,
        };
        if manifest.k == 0 || manifest.m == 0 || manifest.k + manifest.m > 255 {
            return Err(ArchiveError::Manifest("invalid geometry".into()));
        }
        // `restore` writes next to the manifest under this name: anything
        // but one plain component (`..`, a separator, an absolute path)
        // would let a manifest choose where the file lands.
        if Path::new(&manifest.file_name).file_name() != Some(OsStr::new(&manifest.file_name)) {
            return Err(ArchiveError::Manifest(
                "file_name is not a plain file name".into(),
            ));
        }
        // The file is the first `file_len` bytes of the `k` data shards.
        match (manifest.k as u64).checked_mul(manifest.shard_len) {
            None => Err(ArchiveError::Manifest("k x shard_len overflows".into())),
            Some(capacity) if manifest.file_len > capacity => Err(ArchiveError::Manifest(
                "file_len exceeds k x shard_len".into(),
            )),
            Some(_) => Ok(manifest),
        }
    }

    /// Path of shard `i` (0..k+m) next to the manifest.
    pub fn shard_path(&self, manifest_path: &Path, i: usize) -> PathBuf {
        let stem = manifest_path.with_extension("");
        stem.with_extension(format!("s{i:03}"))
    }

    /// Load from disk.
    pub fn load(path: &Path) -> Result<Manifest, ArchiveError> {
        Manifest::from_text(&fs::read_to_string(path)?)
    }
}

/// Read and zero-pad `input` so it splits into `k` equal 64 B-aligned
/// shards; returns `(padded_bytes, file_len, shard_len)`.
fn read_padded(input: &Path, k: usize) -> Result<(Vec<u8>, u64, u64), ArchiveError> {
    let bytes = fs::read(input)?;
    let file_len = bytes.len() as u64;
    // Shards are 64 B-aligned so the kernels stay on full rows.
    let shard_len = (file_len.div_ceil(k as u64)).next_multiple_of(64).max(64);
    let mut padded = bytes;
    padded.resize((shard_len * k as u64) as usize, 0);
    Ok((padded, file_len, shard_len))
}

/// The manifest describing `input` encoded at the given geometry.
fn manifest_for(input: &Path, k: usize, m: usize, file_len: u64, shard_len: u64) -> Manifest {
    Manifest {
        k,
        m,
        file_len,
        shard_len,
        file_name: input
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("archive")
            .to_string(),
    }
}

/// Write `bytes` to `path` atomically: write a sibling `.tmp` file, then
/// `rename` over the target (atomic on POSIX). A failure at any point
/// removes the temp, so a crashed or failed write never leaves a
/// partially-written file under the real name.
fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Write all data and parity shard files, then the manifest; returns the
/// manifest path.
///
/// Commit ordering mirrors the stripe store: every shard lands (each one
/// atomically, temp + rename) *before* the manifest appears, and the
/// manifest itself is the atomic commit record — a reader either sees a
/// complete archive or no archive. Any failure rolls the already-written
/// shards back, so a failed encode leaves the output directory as it
/// found it instead of a truncated archive a later read would trust.
fn write_archive(
    out_dir: &Path,
    manifest: &Manifest,
    data: &[&[u8]],
    parity: &[Vec<u8>],
) -> Result<PathBuf, ArchiveError> {
    fs::create_dir_all(out_dir)?;
    let stem = Path::new(&manifest.file_name)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("archive");
    let manifest_path = out_dir.join(format!("{stem}.dialga"));
    let shard_files: Vec<(PathBuf, &[u8])> = data
        .iter()
        .copied()
        .chain(parity.iter().map(|p| p.as_slice()))
        .enumerate()
        .map(|(i, bytes)| (manifest.shard_path(&manifest_path, i), bytes))
        .collect();
    let mut written: Vec<&Path> = Vec::with_capacity(shard_files.len());
    let mut failure: Option<io::Error> = None;
    for (path, bytes) in &shard_files {
        match write_file_atomic(path, bytes) {
            Ok(()) => written.push(path),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    if failure.is_none() {
        failure = write_file_atomic(&manifest_path, manifest.to_text().as_bytes()).err();
    }
    if let Some(e) = failure {
        for path in written {
            let _ = fs::remove_file(path);
        }
        return Err(e.into());
    }
    Ok(manifest_path)
}

/// Encode `input` into `k`+`m` shards in `out_dir`; returns the manifest
/// path. The stripe is split over a pool of `threads` executors (this
/// thread included, so `threads` ≤ 1 encodes in place).
pub fn encode_file(
    input: &Path,
    out_dir: &Path,
    k: usize,
    m: usize,
    threads: usize,
) -> Result<PathBuf, ArchiveError> {
    let (padded, file_len, shard_len) = read_padded(input, k)?;
    let data: Vec<&[u8]> = padded.chunks(shard_len as usize).collect();
    let coder = Dialga::new(k, m)?;
    let parity = EncodePool::new(threads).encode_vec(&coder, &data)?;
    write_archive(
        out_dir,
        &manifest_for(input, k, m, file_len, shard_len),
        &data,
        &parity,
    )
}

/// Read all shards; missing or wrong-length files become `None`.
fn read_shards(
    manifest: &Manifest,
    manifest_path: &Path,
) -> Result<Vec<Option<Vec<u8>>>, ArchiveError> {
    let n = manifest.k + manifest.m;
    let mut shards = Vec::with_capacity(n);
    for i in 0..n {
        let path = manifest.shard_path(manifest_path, i);
        match fs::read(&path) {
            Ok(bytes) if bytes.len() as u64 == manifest.shard_len => shards.push(Some(bytes)),
            Ok(_) => shards.push(None), // truncated/corrupt size
            Err(e) if e.kind() == io::ErrorKind::NotFound => shards.push(None),
            Err(e) => return Err(e.into()),
        }
    }
    Ok(shards)
}

/// Status of an archive on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveStatus {
    /// Indices of missing or wrong-sized shard files.
    pub missing: Vec<usize>,
    /// Indices present but scrubbed as byte-corrupted.
    pub corrupt: Vec<usize>,
    /// Parity detected corruption the code cannot pin to specific
    /// shards (too many altered shards, or no spare parity constraint
    /// left next to the missing ones).
    pub unlocalized: bool,
}

impl ArchiveStatus {
    /// True when every shard is present and consistent.
    pub fn healthy(&self) -> bool {
        self.missing.is_empty() && self.corrupt.is_empty() && !self.unlocalized
    }
}

/// Every shard of a decoded stripe, borrowed.
fn stripe_refs(shards: &[Option<Vec<u8>>]) -> Result<Vec<&[u8]>, dialga_ec::EcError> {
    (0..shards.len())
        .map(|i| dialga_ec::present_shard(shards, i, "archive shard absent after decode"))
        .map(|s| s.map(Vec::as_slice))
        .collect()
}

/// Decode the `missing` shards in place, then name the corrupt survivors
/// with [`Dialga::locate`], the rebuilt shards as forced erasures.
/// `Err(Corrupt)` when parity cannot pin the corruption down.
fn decode_and_locate(
    coder: &Dialga,
    shards: &mut [Option<Vec<u8>>],
    missing: &[usize],
) -> Result<Vec<usize>, dialga_ec::EcError> {
    coder.decode(shards)?;
    coder.locate(&stripe_refs(shards)?, missing)
}

/// Verify an archive: all shards present and parity consistent.
///
/// Recoverable missing shards are decoded first, then `Dialga::locate`
/// names every corrupt shard — data *or* parity, next to missing ones as
/// well — up to `m - 1` shards unusable in all; corruption beyond that is
/// reported as `unlocalized`.
pub fn verify(manifest_path: &Path) -> Result<ArchiveStatus, ArchiveError> {
    let manifest = Manifest::load(manifest_path)?;
    let mut shards = read_shards(&manifest, manifest_path)?;
    let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
    let mut status = ArchiveStatus {
        missing,
        corrupt: Vec::new(),
        unlocalized: false,
    };
    if status.missing.len() <= manifest.m {
        let coder = Dialga::new(manifest.k, manifest.m)?;
        match decode_and_locate(&coder, &mut shards, &status.missing) {
            Ok(bad) => status.corrupt = bad,
            Err(dialga_ec::EcError::Corrupt { .. }) => status.unlocalized = true,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(status)
}

/// Rebuild missing shard files — and, where parity can localize them,
/// byte-corrupted shard files — in place; returns how many were
/// rewritten.
///
/// Decode the missing shards, locate the corrupt survivors, decode again
/// with both erased, verify once and only then write: corruption the
/// code cannot pin down surfaces as [`dialga_ec::EcError::Corrupt`] and
/// leaves the archive untouched, rather than silently folding bad bytes
/// into the rebuilt shards.
pub fn repair(manifest_path: &Path) -> Result<usize, ArchiveError> {
    let manifest = Manifest::load(manifest_path)?;
    let mut shards = read_shards(&manifest, manifest_path)?;
    let (k, m) = (manifest.k, manifest.m);
    let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
    if missing.len() > m {
        return Err(ArchiveError::Unrecoverable {
            lost: missing.len(),
            tolerance: m,
        });
    }
    let coder = Dialga::new(k, m)?;
    let named = decode_and_locate(&coder, &mut shards, &missing)?;
    let mut rebuilt: Vec<usize> = missing.into_iter().chain(named.iter().copied()).collect();
    if rebuilt.is_empty() {
        return Ok(0);
    }
    if !named.is_empty() {
        // The first decode read the corrupt survivors: redo it without.
        rebuilt.sort_unstable();
        for &i in &rebuilt {
            shards[i] = None;
        }
        coder.decode(&mut shards)?;
    }
    let refs = stripe_refs(&shards)?;
    coder.verify(&refs[..k], &refs[k..])?;
    // Each shard lands atomically (temp + rename): an interrupted repair
    // can corrupt no shard it did not fully rebuild.
    for &i in &rebuilt {
        write_file_atomic(&manifest.shard_path(manifest_path, i), refs[i])?;
    }
    Ok(rebuilt.len())
}

/// Reassemble the original file (repairing first if needed) into
/// `output`, or next to the manifest under the original name.
pub fn restore(manifest_path: &Path, output: Option<&Path>) -> Result<PathBuf, ArchiveError> {
    let manifest = Manifest::load(manifest_path)?;
    repair(manifest_path)?;
    let shards = read_shards(&manifest, manifest_path)?;
    let mut bytes = Vec::with_capacity((manifest.shard_len * manifest.k as u64) as usize);
    for s in shards.iter().take(manifest.k) {
        bytes.extend_from_slice(
            s.as_ref()
                .ok_or_else(|| ArchiveError::Manifest("shard vanished during restore".into()))?,
        );
    }
    bytes.truncate(manifest.file_len as usize);
    let out = output
        .map(Path::to_path_buf)
        .unwrap_or_else(|| manifest_path.with_file_name(&manifest.file_name));
    fs::write(&out, bytes)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("dialga-archive-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_file(dir: &Path, len: usize) -> PathBuf {
        let p = dir.join("sample.bin");
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        fs::write(&p, bytes).unwrap();
        p
    }

    #[test]
    fn encode_verify_restore_roundtrip() {
        // `threads` executors, the encoding thread included: 0 and 1 both
        // encode in place, 4 splits the stripe over three workers as well.
        let mut parity = Vec::new();
        for threads in [0usize, 1, 4] {
            let dir = tmpdir(&format!("roundtrip-{threads}"));
            let input = sample_file(&dir, 100_000);
            let manifest = encode_file(&input, &dir, 6, 3, threads).unwrap();
            assert!(verify(&manifest).unwrap().healthy());
            let out = restore(&manifest, Some(&dir.join("restored.bin"))).unwrap();
            assert_eq!(fs::read(&input).unwrap(), fs::read(out).unwrap());
            let layout = Manifest::load(&manifest).unwrap();
            parity.push(fs::read(layout.shard_path(&manifest, 8)).unwrap());
        }
        assert!(parity.windows(2).all(|w| w[0] == w[1]), "same bytes");
    }

    #[test]
    fn repair_rebuilds_missing_shards() {
        let dir = tmpdir("repair");
        let input = sample_file(&dir, 50_000);
        let manifest_path = encode_file(&input, &dir, 5, 2, 1).unwrap();
        let manifest = Manifest::load(&manifest_path).unwrap();
        // Delete one data + one parity shard.
        fs::remove_file(manifest.shard_path(&manifest_path, 1)).unwrap();
        fs::remove_file(manifest.shard_path(&manifest_path, 6)).unwrap();
        let status = verify(&manifest_path).unwrap();
        assert_eq!(status.missing, vec![1, 6]);
        assert_eq!(repair(&manifest_path).unwrap(), 2);
        assert!(verify(&manifest_path).unwrap().healthy());
        let out = restore(&manifest_path, Some(&dir.join("r.bin"))).unwrap();
        assert_eq!(fs::read(&input).unwrap(), fs::read(out).unwrap());
    }

    #[test]
    fn too_many_losses_is_unrecoverable() {
        let dir = tmpdir("unrecoverable");
        let input = sample_file(&dir, 10_000);
        let manifest_path = encode_file(&input, &dir, 4, 2, 1).unwrap();
        let manifest = Manifest::load(&manifest_path).unwrap();
        for i in [0usize, 1, 2] {
            fs::remove_file(manifest.shard_path(&manifest_path, i)).unwrap();
        }
        assert!(matches!(
            repair(&manifest_path),
            Err(ArchiveError::Unrecoverable {
                lost: 3,
                tolerance: 2
            })
        ));
    }

    #[test]
    fn truncated_shard_detected_and_repaired() {
        let dir = tmpdir("truncated");
        let input = sample_file(&dir, 20_000);
        let manifest_path = encode_file(&input, &dir, 4, 2, 1).unwrap();
        let manifest = Manifest::load(&manifest_path).unwrap();
        let victim = manifest.shard_path(&manifest_path, 2);
        fs::write(&victim, b"short").unwrap();
        let status = verify(&manifest_path).unwrap();
        assert_eq!(status.missing, vec![2]);
        repair(&manifest_path).unwrap();
        assert!(verify(&manifest_path).unwrap().healthy());
    }

    #[test]
    fn corrupt_parity_detected() {
        let dir = tmpdir("corrupt");
        let input = sample_file(&dir, 30_000);
        let manifest_path = encode_file(&input, &dir, 4, 2, 1).unwrap();
        let manifest = Manifest::load(&manifest_path).unwrap();
        let victim = manifest.shard_path(&manifest_path, 5); // parity 1
        let mut bytes = fs::read(&victim).unwrap();
        bytes[100] ^= 0xFF;
        fs::write(&victim, bytes).unwrap();
        let status = verify(&manifest_path).unwrap();
        assert_eq!(status.corrupt, vec![5]);
        assert!(!status.healthy());
    }

    #[test]
    fn corrupt_data_shard_localized_and_repaired_in_place() {
        let dir = tmpdir("corrupt-data");
        let input = sample_file(&dir, 40_000);
        let manifest_path = encode_file(&input, &dir, 6, 3, 1).unwrap();
        let manifest = Manifest::load(&manifest_path).unwrap();
        let victim = manifest.shard_path(&manifest_path, 2); // data shard
        let mut bytes = fs::read(&victim).unwrap();
        bytes[3000] ^= 0x40;
        fs::write(&victim, bytes).unwrap();
        // Scrub names the data shard itself, not the parity rows it trips.
        let status = verify(&manifest_path).unwrap();
        assert_eq!(status.corrupt, vec![2]);
        assert!(!status.unlocalized);
        // Repair heals it in place and the restored file is bit-exact.
        assert_eq!(repair(&manifest_path).unwrap(), 1);
        assert!(verify(&manifest_path).unwrap().healthy());
        let out = restore(&manifest_path, Some(&dir.join("r.bin"))).unwrap();
        assert_eq!(fs::read(&input).unwrap(), fs::read(out).unwrap());
    }

    #[test]
    fn corrupt_survivor_next_to_missing_shard_is_repaired() {
        let dir = tmpdir("corrupt-survivor");
        let input = sample_file(&dir, 60_000);
        let manifest_path = encode_file(&input, &dir, 6, 3, 1).unwrap();
        let manifest = Manifest::load(&manifest_path).unwrap();
        fs::remove_file(manifest.shard_path(&manifest_path, 1)).unwrap();
        let victim = manifest.shard_path(&manifest_path, 4);
        let mut bytes = fs::read(&victim).unwrap();
        bytes[10] ^= 0x08;
        fs::write(&victim, bytes).unwrap();
        // With missing + 1 < m a spare parity constraint is left: verify
        // names the corrupt survivor and repair rebuilds both shards.
        let status = verify(&manifest_path).unwrap();
        assert_eq!(status.missing, vec![1]);
        assert_eq!(status.corrupt, vec![4]);
        assert!(!status.unlocalized);
        assert_eq!(repair(&manifest_path).unwrap(), 2);
        assert!(verify(&manifest_path).unwrap().healthy());
        let out = restore(&manifest_path, Some(&dir.join("r.bin"))).unwrap();
        assert_eq!(fs::read(&input).unwrap(), fs::read(out).unwrap());
    }

    #[test]
    fn unlocalizable_corruption_refuses_instead_of_writing_bad_shards() {
        let dir = tmpdir("refuse");
        let input = sample_file(&dir, 30_000);
        let manifest_path = encode_file(&input, &dir, 4, 2, 1).unwrap();
        let manifest = Manifest::load(&manifest_path).unwrap();
        // One missing + one corrupt survivor with m = 2: no spare parity
        // constraint, so localization is impossible.
        fs::remove_file(manifest.shard_path(&manifest_path, 0)).unwrap();
        let victim = manifest.shard_path(&manifest_path, 3);
        let before = fs::read(&victim).unwrap();
        let mut bytes = before.clone();
        bytes[42] ^= 0x01;
        fs::write(&victim, &bytes).unwrap();
        assert!(verify(&manifest_path).unwrap().unlocalized);
        assert!(matches!(
            repair(&manifest_path),
            Err(ArchiveError::Ec(dialga_ec::EcError::Corrupt { .. }))
        ));
        // The corrupt shard is untouched and nothing was rebuilt.
        assert_eq!(fs::read(&victim).unwrap(), bytes);
        assert!(!manifest.shard_path(&manifest_path, 0).exists());
        // restore flows through repair, so it refuses too.
        assert!(restore(&manifest_path, Some(&dir.join("r.bin"))).is_err());
    }

    /// Regression for the partial-output hazard: a mid-write failure used
    /// to leave a manifest pointing at missing/truncated shards, which a
    /// later `verify`/`restore` treated as a real (degraded) archive. Now
    /// the manifest is written last and every file goes temp-then-rename,
    /// so a failed encode leaves no visible archive at all.
    #[test]
    fn failed_encode_leaves_no_visible_archive() {
        let dir = tmpdir("atomic");
        let input = sample_file(&dir, 10_000);
        // Occupy a shard target with a directory: the rename onto it
        // must fail partway through the shard sequence.
        fs::create_dir_all(dir.join("sample.s002")).unwrap();
        assert!(encode_file(&input, &dir, 4, 2, 1).is_err());
        assert!(
            !dir.join("sample.dialga").exists(),
            "failed encode must not publish a manifest"
        );
        // No half-written shards or stray temp files either.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(
                name == "sample.bin" || name == "sample.s002",
                "leftover file after failed encode: {name}"
            );
        }
        // With the obstruction gone the same encode succeeds cleanly.
        fs::remove_dir_all(dir.join("sample.s002")).unwrap();
        let manifest = encode_file(&input, &dir, 4, 2, 1).unwrap();
        assert!(verify(&manifest).unwrap().healthy());
    }

    #[test]
    fn tiny_and_empty_files() {
        let dir = tmpdir("tiny");
        for len in [0usize, 1, 63, 64, 65] {
            let p = dir.join(format!("f{len}.bin"));
            fs::write(&p, vec![7u8; len]).unwrap();
            let manifest = encode_file(&p, &dir, 3, 2, 1).unwrap();
            let out = restore(&manifest, Some(&dir.join(format!("o{len}.bin")))).unwrap();
            assert_eq!(fs::read(&p).unwrap(), fs::read(out).unwrap(), "len={len}");
        }
    }

    /// Everything under `dir`, sorted, with file lengths.
    fn listing(dir: &Path) -> Vec<(PathBuf, u64)> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(listing(&path));
            } else {
                out.push((path.clone(), fs::metadata(&path).unwrap().len()));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn hostile_manifest_is_refused_and_nothing_is_written() {
        let root = tmpdir("hostile");
        let dir = root.join("in").join("sub");
        fs::create_dir_all(&dir).unwrap();
        let manifest_path = encode_file(&sample_file(&dir, 5_000), &dir, 4, 2, 1).unwrap();
        let good = fs::read_to_string(&manifest_path).unwrap();
        let honest = Manifest::load(&manifest_path).unwrap();
        let capacity = honest.k as u64 * honest.shard_len;
        assert!(honest.file_len < capacity, "padding exists to forge into");

        let mut hostile: Vec<String> = ["../../escaped.bin", "/abs/x", "a/b", "a/", "..", ".", ""]
            .iter()
            .map(|name| good.replace("file_name=sample.bin", &format!("file_name={name}")))
            .collect();
        let len_line = format!("file_len={}", honest.file_len);
        hostile.push(good.replace(&len_line, &format!("file_len={}", capacity + 1)));
        hostile.push(good.replace(&len_line, "file_len=999999"));
        // A forged shard_len whose product with k overflows u64.
        hostile.push(good.replace(
            &format!("shard_len={}", honest.shard_len),
            &format!("shard_len={}", u64::MAX / 2),
        ));

        for text in hostile {
            assert_ne!(text, good, "the forgery must change the manifest");
            fs::write(&manifest_path, &text).unwrap();
            let before = listing(&root);
            assert!(
                matches!(
                    Manifest::load(&manifest_path),
                    Err(ArchiveError::Manifest(_))
                ),
                "{text}"
            );
            assert!(matches!(
                verify(&manifest_path),
                Err(ArchiveError::Manifest(_))
            ));
            assert!(matches!(
                repair(&manifest_path),
                Err(ArchiveError::Manifest(_))
            ));
            assert!(matches!(
                restore(&manifest_path, None),
                Err(ArchiveError::Manifest(_))
            ));
            assert_eq!(listing(&root), before, "{text}");
        }

        // The honest upper bound — a file that fills its shards — loads.
        let full = good.replace(&len_line, &format!("file_len={capacity}"));
        assert!(Manifest::from_text(&full).is_ok());
    }

    #[test]
    fn manifest_text_roundtrip() {
        let m = Manifest {
            k: 12,
            m: 4,
            file_len: 123456,
            shard_len: 10304,
            file_name: "video.mp4".into(),
        };
        assert_eq!(Manifest::from_text(&m.to_text()).unwrap(), m);
        assert!(Manifest::from_text("garbage").is_err());
    }
}
