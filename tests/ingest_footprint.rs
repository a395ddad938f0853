//! The heap a corpus load needs beyond the dataset it returns.
//!
//! Ingest keeps metadata-sized state: certificates are parsed, classified
//! and reduced a bounded chunk at a time, and scan rows go straight into
//! the observation table. So the peak live heap during
//! `load_dataset_with` exceeds what the returned `Dataset` keeps by at
//! most twice the size of `certs.pem`. A counting global allocator
//! measures it; this file is a test binary of its own, so the allocator
//! sees this one load and nothing else.

use silentcert::core::ingest::{load_dataset_with, IngestOptions};
use silentcert::sim::{export_corpus, ScaleConfig};
use silentcert::validate::{TrustStore, Validator};
use silentcert::x509::pem::pem_decode_all;
use silentcert::x509::Certificate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A moved block holds old and new at once: count the new size
            // before releasing the old one.
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn ingest_peak_exceeds_the_dataset_by_at_most_twice_certs_pem() {
    let dir = std::env::temp_dir().join(format!("silentcert-footprint-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    export_corpus(&ScaleConfig::tiny(), &dir).expect("export");
    let roots_pem = fs::read_to_string(dir.join("roots.pem")).unwrap();
    let roots: Vec<Certificate> = pem_decode_all("CERTIFICATE", &roots_pem)
        .unwrap()
        .iter()
        .map(|der| Certificate::from_der(der).unwrap())
        .collect();
    let mut validator = Validator::new(TrustStore::from_roots(roots));
    let opts = IngestOptions {
        threads: 1,
        ..IngestOptions::default()
    };

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (dataset, report) = load_dataset_with(&dir, &mut validator, &opts).expect("ingest");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    drop(report);
    let with_dataset = LIVE.load(Ordering::Relaxed);
    assert!(dataset.len() > 10_000, "{} observations", dataset.len());
    drop(dataset);
    let kept = with_dataset - LIVE.load(Ordering::Relaxed);
    let pem = fs::metadata(dir.join("certs.pem")).unwrap().len() as usize;
    let _ = fs::remove_dir_all(&dir);

    let excess = peak.saturating_sub(kept);
    eprintln!(
        "ingest footprint: peak {peak} B, dataset {kept} B, certs.pem {pem} B, \
         excess {:.2}x certs.pem",
        excess as f64 / pem as f64
    );
    assert!(
        excess <= 2 * pem,
        "peak {peak} B exceeds the dataset's {kept} B by {excess} B, \
         more than twice certs.pem ({pem} B)"
    );
}
