//! Versioned on-disk persistence of generic start bundles.
//!
//! A [`pieri_core::StartBundle`] is a deterministic function of
//! `(seed, shape)` — the poset and the generic instance regenerate from
//! the seed, so only the tracked root coefficients (the part that took a
//! whole Pieri-tree run to find) need to survive on disk. The store
//! writes one JSON file per shape,
//! `bundle-v1-<m>-<p>-<q>.json`, holding
//!
//! ```json
//! {"version": 1, "m": 2, "p": 2, "q": 1,
//!  "seed": "<hex u64>", "build_ms": 41.3,
//!  "coeffs": [[[re, im], ...], ...], "checksum": "<hex fnv1a>"}
//! ```
//!
//! `seed` and `checksum` are hex *strings*: both are full-width `u64`s
//! and the wire's JSON numbers only carry 53 bits exactly.
//!
//! Failure policy: **every** defect — unreadable directory, truncated
//! file, bad JSON, version or shape mismatch, checksum mismatch,
//! malformed coefficients — degrades to "no stored bundle", never to an
//! error and never to a panic. The cache then rebuilds from scratch,
//! exactly as if the store were cold; a corrupt store costs one tree
//! run, not an outage. Semantic validation (root count, chart
//! dimension, residuals against the regenerated generic instance) is
//! one level up in [`pieri_core::StartBundle::restore`].
//!
//! Writes are crash-atomic: the new bundle is written to a temp file
//! and fsynced *before* it replaces the primary, and the previous
//! primary is kept as a `.json.bak` fallback until the next save — a
//! crash at any instruction leaves either the old durable bundle, the
//! new durable bundle, or both. [`BundleStore::load`] falls back to the
//! `.bak` when the primary is missing or defective (repairing the
//! primary from it, best-effort) and counts each such rescue in
//! [`BundleStore::recovered`], surfaced as `cache.store_recovered` in
//! `/v1/stats`.

use crate::wire;
use minijson::{object, Value};
use pieri_core::Shape;
use pieri_num::Complex64;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// On-disk format version; bumped on any incompatible layout change.
/// Files carrying a different version are ignored (→ rebuild).
const VERSION: u64 = 1;

/// A directory of per-shape bundle files.
#[derive(Debug)]
pub struct BundleStore {
    dir: PathBuf,
    /// Loads rescued from the `.bak` fallback after a defective (torn,
    /// corrupt, missing) primary.
    recovered: AtomicUsize,
}

/// The persisted part of a bundle: the build seed, the tracked generic
/// root coefficients and the original build time (reported by
/// `/v1/stats` as the cost a warm start avoided).
#[derive(Debug, Clone)]
pub struct StoredBundle {
    /// Seed the bundle was originally built with; replaying it through
    /// `seeded_rng` regenerates the identical poset + generic instance.
    pub seed: u64,
    /// Root-pattern coefficient vectors of the generic solutions.
    pub coeffs: Vec<Vec<Complex64>>,
    /// Wall-clock time of the original build.
    pub build_time: Duration,
}

impl BundleStore {
    /// Opens (creating if needed) the store directory. Returns `None`
    /// when the directory cannot be created — the cache then simply
    /// runs storeless.
    pub fn open(dir: &Path) -> Option<BundleStore> {
        fs::create_dir_all(dir).ok()?;
        Some(BundleStore {
            dir: dir.to_path_buf(),
            recovered: AtomicUsize::new(0),
        })
    }

    fn path_for(&self, shape: &Shape) -> PathBuf {
        self.dir.join(format!(
            "bundle-v{VERSION}-{}-{}-{}.json",
            shape.m(),
            shape.p(),
            shape.q()
        ))
    }

    /// Loads rescued from the `.bak` fallback so far.
    pub fn recovered(&self) -> usize {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Persists a freshly built bundle, best-effort: I/O errors are
    /// swallowed (the bundle still serves from memory; only the next
    /// restart loses the warm start).
    pub fn save(&self, shape: &Shape, seed: u64, coeffs: &[Vec<Complex64>], build_time: Duration) {
        let coeffs_json = Value::Array(
            coeffs
                .iter()
                .map(|x| wire::complex_vec_to_json(x))
                .collect(),
        );
        let checksum = fnv1a(coeffs_json.serialize().as_bytes());
        let doc = object([
            ("version", Value::from(VERSION as usize)),
            ("m", Value::from(shape.m())),
            ("p", Value::from(shape.p())),
            ("q", Value::from(shape.q())),
            ("seed", Value::String(format!("{seed:016x}"))),
            ("build_ms", Value::Number(build_time.as_secs_f64() * 1e3)),
            ("coeffs", coeffs_json),
            ("checksum", Value::String(format!("{checksum:016x}"))),
        ]);
        let mut bytes = doc.serialize().into_bytes();
        let path = self.path_for(shape);
        let tmp = path.with_extension("json.tmp");
        let bak = path.with_extension("json.bak");
        // chaos: the disk is full — the save silently does not happen,
        // exactly like a real ENOSPC under the best-effort policy.
        if crate::chaos::fires("store.write.enospc").is_some() {
            return;
        }
        // chaos: a crash mid-write — half the payload lands in the temp
        // file and the rename never runs. The primary (and `.bak`)
        // from before the "crash" must stay intact.
        if crate::chaos::fires("store.write.torn").is_some() {
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return;
        }
        // chaos: silent payload corruption after the checksum was
        // computed — the load-side checksum must catch it.
        if crate::chaos::fires("store.corrupt").is_some() {
            let mid = bytes.len() / 2;
            bytes[mid] = bytes[mid].wrapping_add(1);
        }
        if write_durable(&tmp, &bytes).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        // Keep the previous bundle until the new one is durable: the
        // old primary rotates to the `.bak` fallback (a rename, so the
        // window with neither primary nor fallback is empty), then the
        // fsynced temp file becomes the new primary.
        if path.exists() {
            let _ = fs::rename(&path, &bak);
        }
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            // Best-effort: put the old primary back so readers that
            // don't know about the fallback still see a bundle.
            if !path.exists() {
                let _ = fs::rename(&bak, &path);
            }
            return;
        }
        // Make the renames themselves durable.
        let _ = fs::File::open(&self.dir).and_then(|d| d.sync_all());
    }

    /// Loads the stored bundle for one shape, or `None` on any defect.
    /// A missing or defective primary falls back to the `.bak` kept
    /// from before the last save; a successful rescue repairs the
    /// primary (best-effort) and counts in [`BundleStore::recovered`].
    pub fn load(&self, shape: &Shape) -> Option<StoredBundle> {
        let path = self.path_for(shape);
        if let Some(stored) = fs::read_to_string(&path)
            .ok()
            .and_then(|text| decode(shape, &text))
        {
            return Some(stored);
        }
        let bak = path.with_extension("json.bak");
        let text = fs::read_to_string(&bak).ok()?;
        let stored = decode(shape, &text)?;
        self.recovered.fetch_add(1, Ordering::Relaxed);
        let _ = fs::copy(&bak, &path);
        Some(stored)
    }

    /// Every decodable `(shape, bundle)` pair in the directory —
    /// startup preloading. Unparseable filenames and defective files
    /// are skipped silently.
    pub fn load_all(&self) -> Vec<(Shape, StoredBundle)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(shape) = shape_from_filename(&name.to_string_lossy()) else {
                continue;
            };
            if let Some(stored) = self.load(&shape) {
                out.push((shape, stored));
            }
        }
        out.sort_by_key(|(s, _)| (s.m(), s.p(), s.q()));
        out
    }
}

/// Writes `bytes` and fsyncs before returning, so a later rename
/// publishes only durable content.
fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// `bundle-v1-<m>-<p>-<q>.json → Shape` (current version only).
fn shape_from_filename(name: &str) -> Option<Shape> {
    let dims = name
        .strip_prefix(&format!("bundle-v{VERSION}-"))?
        .strip_suffix(".json")?;
    let mut it = dims.split('-').map(|d| d.parse::<usize>().ok());
    let (m, p, q) = (it.next()??, it.next()??, it.next()??);
    if it.next().is_some() || m == 0 || p == 0 {
        return None;
    }
    Some(Shape::new(m, p, q))
}

fn decode(shape: &Shape, text: &str) -> Option<StoredBundle> {
    let v = minijson::parse(text).ok()?;
    if v.get("version")?.as_u64()? != VERSION {
        return None;
    }
    let same_shape = v.get("m")?.as_usize()? == shape.m()
        && v.get("p")?.as_usize()? == shape.p()
        && v.get("q")?.as_usize()? == shape.q();
    if !same_shape {
        return None;
    }
    let seed = u64::from_str_radix(v.get("seed")?.as_str()?, 16).ok()?;
    let checksum = u64::from_str_radix(v.get("checksum")?.as_str()?, 16).ok()?;
    let coeffs_json = v.get("coeffs")?;
    // The checksum covers the canonical re-serialization of the coeffs
    // array: bit flips inside any number, brace or sign change it.
    if fnv1a(coeffs_json.serialize().as_bytes()) != checksum {
        return None;
    }
    let coeffs = coeffs_json
        .as_array()?
        .iter()
        .map(|x| wire::complex_vec_from_json(x, "stored coeffs").ok())
        .collect::<Option<Vec<_>>>()?;
    let build_ms = v.get("build_ms")?.as_f64()?;
    if !(0.0..=1e15).contains(&build_ms) {
        return None;
    }
    Some(StoredBundle {
        seed,
        coeffs,
        build_time: Duration::from_secs_f64(build_ms / 1e3),
    })
}

/// FNV-1a over bytes — same family the cache's shape tag uses; this is
/// a torn-write tripwire, not a cryptographic seal.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::Complex64;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pieri-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_coeffs() -> Vec<Vec<Complex64>> {
        vec![
            vec![Complex64::new(1.25, -0.5), Complex64::new(0.0, 3.0)],
            vec![Complex64::new(-2.0, 0.125), Complex64::new(7.5, -1.0)],
        ]
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let dir = tmp_dir("roundtrip");
        let store = BundleStore::open(&dir).unwrap();
        let shape = Shape::new(2, 2, 0);
        let coeffs = sample_coeffs();
        let seed = 0xdead_beef_cafe_f00d_u64; // deliberately above 2^53
        store.save(&shape, seed, &coeffs, Duration::from_millis(41));
        let stored = store.load(&shape).expect("load what was saved");
        assert_eq!(stored.seed, seed, "full-width seeds survive");
        assert_eq!(stored.coeffs, coeffs, "coefficients survive bitwise");
        assert_eq!(stored.build_time, Duration::from_millis(41));
        let all = store.load_all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, shape);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_version_mismatch_degrade_to_none() {
        let dir = tmp_dir("corrupt");
        let store = BundleStore::open(&dir).unwrap();
        let shape = Shape::new(2, 2, 0);
        store.save(&shape, 7, &sample_coeffs(), Duration::ZERO);
        let path = store.path_for(&shape);
        let good = fs::read_to_string(&path).unwrap();

        // Truncation, garbage, and a flipped digit inside the payload
        // (which the checksum catches) all read back as None.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(store.load(&shape).is_none(), "truncated");
        fs::write(&path, "not json at all").unwrap();
        assert!(store.load(&shape).is_none(), "garbage");
        fs::write(&path, good.replacen("1.25", "1.26", 1)).unwrap();
        assert!(store.load(&shape).is_none(), "checksum catches bit rot");

        // A future format version is ignored, not misread.
        fs::write(&path, good.replacen("\"version\":1", "\"version\":2", 1)).unwrap();
        assert!(store.load(&shape).is_none(), "version mismatch");

        // A file claiming a different shape than its name is ignored.
        fs::write(&path, good.replacen("\"m\":2", "\"m\":3", 1)).unwrap();
        assert!(store.load(&shape).is_none(), "shape mismatch");

        // And the happy path still works after restoring the bytes.
        fs::write(&path, &good).unwrap();
        assert!(store.load(&shape).is_some());
        assert_eq!(store.load_all().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn filename_parsing_is_strict() {
        assert_eq!(
            shape_from_filename("bundle-v1-2-2-1.json"),
            Some(Shape::new(2, 2, 1))
        );
        for bad in [
            "bundle-v2-2-2-1.json",
            "bundle-v1-2-2.json",
            "bundle-v1-2-2-1-9.json",
            "bundle-v1-0-2-1.json",
            "bundle-v1-2-2-1.json.tmp",
            "bundle-v1-2-2-1.json.bak",
            "notes.txt",
        ] {
            assert_eq!(shape_from_filename(bad), None, "{bad}");
        }
    }

    /// The crash-atomicity guarantee: a save keeps the previous bundle
    /// as a `.bak` until the new primary is durable, and a defective
    /// primary is rescued from it (repairing the primary, counting the
    /// rescue).
    #[test]
    fn bak_fallback_rescues_a_torn_primary() {
        let dir = tmp_dir("bak");
        let store = BundleStore::open(&dir).unwrap();
        let shape = Shape::new(2, 2, 0);
        let old = sample_coeffs();
        store.save(&shape, 7, &old, Duration::from_millis(5));
        let path = store.path_for(&shape);
        let bak = path.with_extension("json.bak");
        assert!(!bak.exists(), "no fallback until a second save");

        let mut new = sample_coeffs();
        new[0][0] = Complex64::new(9.75, -4.5);
        store.save(&shape, 7, &new, Duration::from_millis(6));
        assert!(bak.exists(), "second save rotates the old primary to .bak");
        assert_eq!(store.load(&shape).unwrap().coeffs, new);
        assert_eq!(store.recovered(), 0, "healthy primary needs no rescue");

        // Tear the primary: load falls back to the previous bundle,
        // counts the rescue, and repairs the primary in place.
        let good = fs::read_to_string(&path).unwrap();
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        let rescued = store.load(&shape).expect("rescued from .bak");
        assert_eq!(rescued.coeffs, old, "fallback holds the previous bundle");
        assert_eq!(store.recovered(), 1);
        let again = store.load(&shape).expect("repaired primary");
        assert_eq!(again.coeffs, old);
        assert_eq!(store.recovered(), 1, "repair means no second rescue");

        // A primary deleted outright is also rescued.
        fs::remove_file(&path).unwrap();
        assert!(store.load(&shape).is_some());
        assert_eq!(store.recovered(), 2);

        // load_all sees exactly one bundle per shape (.bak/.tmp skipped).
        assert_eq!(store.load_all().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A stray torn temp file (the artifact of a crash mid-save) never
    /// disturbs the durable primary.
    #[test]
    fn torn_tmp_file_is_inert() {
        let dir = tmp_dir("torntmp");
        let store = BundleStore::open(&dir).unwrap();
        let shape = Shape::new(2, 2, 0);
        store.save(&shape, 11, &sample_coeffs(), Duration::ZERO);
        let tmp = store.path_for(&shape).with_extension("json.tmp");
        fs::write(&tmp, "{\"version\":1,\"m\":2,\"p\":2,\"q\":0,\"se").unwrap();
        assert_eq!(store.load(&shape).unwrap().coeffs, sample_coeffs());
        assert_eq!(store.load_all().len(), 1);
        assert_eq!(store.recovered(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
