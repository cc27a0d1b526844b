//! Host speed gauge: wall times scaled to the reference host's speed.
//!
//! The reference host is a 2-vCPU share of a machine that other tenants
//! use, and the speed of its caches and memory drifts with theirs: within
//! minutes, one replay of a `login_rush` tape took anywhere from 2.4 to
//! 6.1 s, while a loop that keeps everything in registers held within a
//! few per cent. Left as they were, the end-to-end times of runs of one
//! build spread by up to half their median.
//!
//! So a replay takes a reading of the benchmark's own `ReferencePass`
//! every `INTERVAL` of wall time, between operations, and divides each
//! wall time by the readings around it: a time reads as it would on the
//! reference host in a quiet phase. The pass is the benchmark's own code
//! and data, the same whatever the program does: a slower program reads
//! slower, a slower host does not. The pass runs outside every timed
//! operation, and its time is taken out of the replay's wall time.
//!
//! The pass was chosen by how well it followed the program. Over 67
//! replays, the spread of single replays' wall times (interquartile range
//! over the median) was 0.15 on `login_rush` and 0.21 on `fairshare_storm`
//! as measured. Divided by a clone of a map of accounts it was 0.11 and
//! 0.07, by a copy of a block larger than a core's cache 0.07 and 0.10,
//! and by the geometric mean of the two 0.07 and 0.05. Passes that chase
//! pointers through memory or never leave the registers followed it
//! less well. The scaling is not perfect: how much an operation slows down
//! with the host differs from one operation to the next, and what is left
//! of the drift is what the bounds have to hold. The raw wall times are
//! printed next to the scaled ones. See `perfbench/README.md`, "Noise".

use crate::stats::median;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds the accounts half of a `ReferencePass` takes on the
/// reference host in a quiet phase. With `COPY_REFERENCE_NS` it fixes
/// what "the reference host's speed" means: changing either changes every
/// reported time.
const ACCOUNTS_REFERENCE_NS: f64 = 500_000.0;

/// The same for the block copy half.
const COPY_REFERENCE_NS: f64 = 1_100_000.0;

/// Wall time between readings. A reading takes 2.5-3.5 ms, so the gauge
/// costs a replay 5-7 % of its wall time, which is not counted in it.
const INTERVAL: Duration = Duration::from_millis(50);

/// Accounts in the reference pass.
const ACCOUNTS: u32 = 2048;

/// Words in each of the two blocks the pass copies between (8 MiB each).
const BLOCK_WORDS: usize = 1 << 20;

/// Bytes of the pass's two blocks, which stay resident for the whole run
/// once the first reading is taken.
pub const BLOCK_BYTES: usize = 2 * BLOCK_WORDS * 8;

/// A fixed piece of work in two halves shaped like the program's. The
/// accounts half clones a map of accounts (allocation and copying), looks
/// every account up in the clone and fills a hash table; the copy half
/// copies an 8 MiB block, larger than a core's cache, as a clone of the
/// program's biggest tables does.
struct ReferencePass {
    accounts: BTreeMap<String, Vec<u32>>,
    keys: Vec<String>,
    block: Vec<u64>,
    copy: Vec<u64>,
}

impl ReferencePass {
    /// The pass's data: the same in every process.
    fn new() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut accounts = BTreeMap::new();
        let mut keys = Vec::new();
        for i in 0..ACCOUNTS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = format!("user{:08x}", x as u32);
            accounts.insert(
                key.clone(),
                vec![i, i ^ 7, i.rotate_left(3), (x >> 32) as u32],
            );
            keys.push(key);
        }
        ReferencePass {
            accounts,
            keys,
            block: (0..BLOCK_WORDS as u64).collect(),
            copy: vec![0; BLOCK_WORDS],
        }
    }

    /// The accounts half; returns a checksum so that nothing is optimised
    /// away.
    fn accounts(&self) -> u64 {
        let clone = black_box(&self.accounts).clone();
        let mut table: HashMap<u32, u64> = HashMap::with_capacity(1024);
        let mut acc = 0u64;
        for (i, key) in self.keys.iter().enumerate() {
            if let Some(v) = clone.get(key.as_str()) {
                acc = acc.wrapping_mul(31).wrapping_add(u64::from(v[i % 4]));
                table.insert(v[0] & 2047, acc);
            }
        }
        black_box(acc ^ table.len() as u64)
    }

    /// The copy half.
    fn copy_block(&mut self) -> u64 {
        self.copy.copy_from_slice(black_box(&self.block));
        black_box(self.copy[BLOCK_WORDS / 2])
    }
}

/// One reading: how much longer than on the reference host a
/// `ReferencePass` took, as the geometric mean over its two halves.
/// The accounts half runs twice and the second run is timed, so its
/// allocations reuse what the first freed.
pub fn reading() -> f64 {
    thread_local! {
        static PASS: RefCell<ReferencePass> = RefCell::new(ReferencePass::new());
    }
    PASS.with_borrow_mut(|pass| {
        pass.accounts();
        let t0 = Instant::now();
        pass.accounts();
        let accounts_ns = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        pass.copy_block();
        let copy_ns = t0.elapsed().as_nanos() as f64;
        (accounts_ns / ACCOUNTS_REFERENCE_NS * copy_ns / COPY_REFERENCE_NS).sqrt()
    })
}

/// The factor that scales a wall time taken among `readings` to the
/// reference host's speed.
pub fn scale(readings: &[f64]) -> f64 {
    1.0 / median(readings)
}

/// Readings taken through one replay. The replay is cut into segments at
/// the readings; a segment's wall time, and every sample taken in it, is
/// scaled by the median of the two readings on either side of it.
pub struct Gauge {
    readings: Vec<f64>,
    segments_ns: Vec<f64>,
    opened: Instant,
}

/// What a [`Gauge`] measured over one replay.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    /// Scale factor of each segment.
    pub factors: Vec<f64>,
    /// Wall time of the segments, readings excluded.
    pub wall_s: f64,
    /// The same at the reference host's speed.
    pub ref_wall_s: f64,
    /// Median reading: above 1, a host slower than the reference.
    pub slowness: f64,
}

impl Gauge {
    /// Take the first reading and open the first segment.
    pub fn start() -> Gauge {
        Gauge {
            readings: vec![reading()],
            segments_ns: Vec::new(),
            opened: Instant::now(),
        }
    }

    /// Index of the open segment.
    pub fn segment(&self) -> usize {
        self.segments_ns.len()
    }

    /// Between operations: take a reading once `INTERVAL` has passed.
    pub fn tick(&mut self) {
        if self.opened.elapsed() >= INTERVAL {
            self.close();
        }
    }

    fn close(&mut self) {
        self.segments_ns
            .push(self.opened.elapsed().as_nanos() as f64);
        self.readings.push(reading());
        self.opened = Instant::now();
    }

    /// Close the open segment with a last reading.
    pub fn finish(&mut self) -> Speed {
        self.close();
        let last = self.readings.len() - 1;
        let factors: Vec<f64> = (0..self.segments_ns.len())
            .map(|k| scale(&self.readings[k.saturating_sub(1)..=(k + 2).min(last)]))
            .collect();
        let ns = |scaled: bool| -> f64 {
            self.segments_ns
                .iter()
                .zip(&factors)
                .map(|(w, f)| if scaled { w * f } else { *w })
                .sum()
        };
        Speed {
            wall_s: ns(false) / 1e9,
            ref_wall_s: ns(true) / 1e9,
            slowness: median(&self.readings),
            factors,
        }
    }
}
