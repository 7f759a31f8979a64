//! Exactness of the on-disk block-table image.
//!
//! The driver persists the block table after every block it moves
//! (§4.1.3). These tests drive fixed sequences of moves, dirtying
//! writes, faults and power cuts through one tiny rearranged disk and
//! pin the Fletcher-64 of the table region at every crash boundary, so
//! any change in *when* or *how* the region's bytes are produced shows
//! up as a changed literal. They also check that a torn table write on
//! the first, second or last move of a pass recovers to exactly the
//! table the driver kept in memory.

use abr::disk::fault::{DiskFault, FaultInjector, FaultPlan};
use abr::disk::image::fletcher64;
use abr::disk::{models, Disk, DiskLabel, SECTOR_SIZE};
use abr::driver::request::IoRequest;
use abr::driver::{AdaptiveDriver, BlockTable, DriverConfig, DriverError, Ioctl, SchedulerKind};
use abr::sim::{SimRng, SimTime};
use std::sync::Arc;

const BLOCK: usize = 4096;
const SPB: u64 = (BLOCK / SECTOR_SIZE) as u64;

fn t(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn config() -> DriverConfig {
    DriverConfig {
        block_size: BLOCK as u32,
        scheduler: SchedulerKind::Scan,
        monitor_capacity: 4096,
        table_max_entries: 64,
        ..DriverConfig::default()
    }
}

fn fresh_driver() -> AdaptiveDriver {
    let model = models::tiny_test_disk();
    let label = DiskLabel::rearranged_aligned(model.geometry, 10, SPB as u32);
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config());
    AdaptiveDriver::attach(disk, config()).expect("attach")
}

fn pattern(block: u64, version: u64) -> Arc<[u8]> {
    let mut buf = vec![0u8; BLOCK];
    for (s, chunk) in buf.chunks_mut(SECTOR_SIZE).enumerate() {
        chunk.fill((block.wrapping_mul(31) ^ version.wrapping_mul(7) ^ s as u64) as u8);
    }
    buf.into()
}

fn write(d: &mut AdaptiveDriver, block: u64, version: u64, at: u64) {
    d.submit(
        IoRequest::write(0, block * SPB, SPB as u32, pattern(block, version)),
        t(at),
    )
    .expect("submit");
    assert!(d.drain().iter().all(|c| c.is_ok()));
}

fn read(d: &mut AdaptiveDriver, block: u64, at: u64) -> Arc<[u8]> {
    d.submit(IoRequest::read(0, block * SPB, SPB as u32), t(at))
        .expect("submit");
    let done = d.drain();
    assert!(done[0].is_ok());
    done[0].data.clone()
}

/// Original physical sector of virtual block `block` (the table key).
fn orig(d: &AdaptiveDriver, block: u64) -> u64 {
    d.label().virtual_to_physical(block * SPB)
}

fn bcopy(d: &mut AdaptiveDriver, block: u64, slot: u32, at: u64) -> Result<(), DriverError> {
    d.ioctl(Ioctl::BCopy { block, slot }, t(at)).map(|_| ())
}

/// The raw bytes of the table region.
fn region(disk: &Disk, d_layout: &abr::driver::ReservedLayout) -> Vec<u8> {
    let mut buf = vec![0u8; d_layout.table_sectors as usize * SECTOR_SIZE];
    disk.store().read(d_layout.start_sector, &mut buf);
    buf
}

/// Sorted `(orig, slot, dirty)` triples of a table.
fn entries(t: &BlockTable) -> Vec<(u64, u32, bool)> {
    let mut v: Vec<_> = t.iter().map(|(o, e)| (o, e.slot, e.dirty)).collect();
    v.sort_unstable();
    v
}

/// Crash, record the region's checksum, drop any injector (the machine
/// reboots with a healthy disk) and re-attach.
fn crash_boundary(d: AdaptiveDriver, sums: &mut Vec<u64>) -> AdaptiveDriver {
    let layout = *d.layout().expect("rearranged");
    let mut disk = d.crash();
    sums.push(fletcher64(&region(&disk, &layout)));
    disk.set_injector(None);
    AdaptiveDriver::attach(disk, config()).expect("attach")
}

fn torn_plan() -> FaultPlan {
    FaultPlan {
        torn_write: 0.5,
        ..FaultPlan::none()
    }
}

/// Blocks already resident when a torn pass starts: enough that the
/// table record spans several sectors, so a torn prefix can leave copy
/// A half-new (and so undecodable) rather than wholly new.
const PREFILL: u64 = 56;
/// The blocks a torn pass moves, into slots `PREFILL..`.
const PASS: [u64; 4] = [100, 101, 102, 103];

/// Fill slots `0..PREFILL` fault-free, then run a BCopy pass of [`PASS`]
/// under a torn-write plan seeded with `seed`, stopping at the first
/// failure. Returns the driver and the 1-based index of the failed move
/// with its error, if any move failed.
fn torn_pass(seed: u64) -> (AdaptiveDriver, Option<(usize, DriverError)>) {
    let mut d = fresh_driver();
    for b in 1..=PREFILL {
        write(&mut d, b, 0, b);
    }
    for (i, &b) in PASS.iter().enumerate() {
        write(&mut d, b, 0, 100 + i as u64);
    }
    for b in 1..=PREFILL {
        bcopy(&mut d, b, (b - 1) as u32, 200 + b).expect("fault-free prefill");
    }
    d.disk_mut().set_injector(Some(FaultInjector::new(
        torn_plan(),
        SimRng::new(seed).substream("faults"),
    )));
    for (i, &b) in PASS.iter().enumerate() {
        if let Err(e) = bcopy(&mut d, b, PREFILL as u32 + i as u32, 300 + i as u64) {
            return (d, Some((i + 1, e)));
        }
    }
    (d, None)
}

fn is_torn_table_write(e: &DriverError, d: &AdaptiveDriver) -> bool {
    let table = d.layout().expect("rearranged").start_sector;
    matches!(e, DriverError::Disk { fault: DiskFault::TornWrite, sector } if *sector == table)
}

/// Crash right after the failed move, check a torn prefix really landed
/// in copy A, and re-attach: recovery must yield exactly the table the
/// driver rolled back to, conservatively all dirty. Returns the region
/// checksum.
fn crash_after_torn_write(d: AdaptiveDriver) -> u64 {
    let layout = *d.layout().expect("rearranged");
    let mut expected = d.block_table().clone();
    expected.mark_all_dirty();
    let disk = d.crash();
    let bytes = region(&disk, &layout);
    let half = bytes.len() / 2;
    assert!(
        bytes[..SECTOR_SIZE] != bytes[half..half + SECTOR_SIZE],
        "no torn prefix reached copy A"
    );
    let back = AdaptiveDriver::attach(disk, config()).expect("attach");
    assert!(!back.is_degraded());
    assert_eq!(entries(back.block_table()), entries(&expected));
    fletcher64(&bytes)
}

/// A torn table write on the first, second and last move of a pass,
/// each after `PREFILL` resident blocks. The seeds are chosen so the
/// region write tears on every retry at move `k` (and nowhere earlier),
/// leaving a prefix of one or two sectors: copy A is then half-new and
/// recovery falls back to copy B.
#[test]
fn torn_table_write_recovers_in_memory_table() {
    let cases: [(usize, u64, u64); 4] = [
        (1, 8, 0x3539_ebd2_8ace_f447),
        (2, 67, 0xbd25_9b5c_afe2_e599),
        (PASS.len(), 24, 0x9a10_f46c_6fc5_b075),
        (PASS.len(), 32, 0x4f1f_67a5_3a7b_78ae),
    ];
    let mut sums = Vec::new();
    for (k, seed, _) in cases {
        let (d, failed) = torn_pass(seed);
        let (at, e) = failed.expect("the pass must fail");
        assert_eq!(at, k, "seed {seed} failed at move {at}");
        assert!(is_torn_table_write(&e, &d), "seed {seed}: {e:?}");
        assert_eq!(d.block_table().len(), PREFILL as usize + k - 1);
        sums.push(crash_after_torn_write(d));
    }
    let pinned: Vec<u64> = cases.iter().map(|c| c.2).collect();
    assert_eq!(sums, pinned);
}

/// One fixed sequence through every path that writes the table region:
/// a BCopy pass, dirtying writes, online moves and evictions between
/// requests, a torn table write on the second move of a pass, a power
/// cut in the middle of a Clean pass and a complete Clean pass. The
/// region's checksum is pinned at each crash boundary, and every block
/// reads back its latest version at the end.
#[test]
fn table_region_bytes_are_pinned() {
    let mut d = fresh_driver();
    let mut sums = Vec::new();
    // Latest version written to each block.
    let mut version = vec![0u64; 48];
    for b in 1..48 {
        write(&mut d, b, 0, b);
    }

    // A BCopy pass of 32 blocks, then dirtying writes to three of them.
    for b in 1..=32u64 {
        bcopy(&mut d, b, (b - 1) as u32, 100 + b).expect("bcopy");
    }
    for (i, b) in [3u64, 7, 20].into_iter().enumerate() {
        version[b as usize] = 1;
        write(&mut d, b, 1, 200 + i as u64);
    }

    // Online moves interleaved with requests; the first BCopy persists
    // the dirty bits, the evictions free slots 4 (clean) and 2 (dirty,
    // copied home) and slot 4 is reused at once.
    bcopy(&mut d, 33, 32, 300).expect("bcopy");
    version[33] = 1;
    write(&mut d, 33, 1, 301);
    assert_eq!(read(&mut d, 7, 302), pattern(7, 1));
    bcopy(&mut d, 34, 33, 303).expect("bcopy");
    version[1] = 1;
    write(&mut d, 1, 1, 304);
    let five = orig(&d, 5);
    d.ioctl(Ioctl::BEvict { orig: five }, t(305))
        .expect("bevict");
    let three = orig(&d, 3);
    d.ioctl(Ioctl::BEvict { orig: three }, t(306))
        .expect("bevict");
    bcopy(&mut d, 35, 4, 307).expect("bcopy");
    // A write that dirties a resident block right after the moves: the
    // region must hold the table as of the last move, not this bit.
    version[35] = 1;
    write(&mut d, 35, 1, 308);
    assert_eq!(d.block_table().len(), 33);
    let mut d = crash_boundary(d, &mut sums);

    // A pass whose second table write tears on every retry.
    d.disk_mut().set_injector(Some(FaultInjector::new(
        torn_plan(),
        SimRng::new(67).substream("faults"),
    )));
    bcopy(&mut d, 36, 34, 400).expect("first move of the torn pass");
    let e = bcopy(&mut d, 37, 35, 401).expect_err("second move tears");
    assert!(is_torn_table_write(&e, &d), "{e:?}");
    assert_eq!(d.block_table().len(), 34);
    let mut expected = d.block_table().clone();
    expected.mark_all_dirty();
    let mut d = crash_boundary(d, &mut sums);
    assert_eq!(entries(d.block_table()), entries(&expected));

    // Power cut in the middle of a Clean pass: every entry is dirty after
    // the re-attach, so each costs a read, a write home and a table
    // write; the cut lands on the third block's write home.
    version[10] = 2;
    write(&mut d, 10, 2, 500);
    d.disk_mut().set_injector(Some(FaultInjector::new(
        FaultPlan {
            power_cut_after_ops: Some(7),
            ..FaultPlan::none()
        },
        SimRng::new(1).substream("faults"),
    )));
    let e = d.ioctl(Ioctl::Clean, t(501)).expect_err("power cut");
    assert!(matches!(
        e,
        DriverError::Disk {
            fault: DiskFault::PowerLoss,
            ..
        }
    ));
    assert_eq!(d.block_table().len(), 32);
    let mut d = crash_boundary(d, &mut sums);

    // Fresh clean moves next to the dirty survivors, then a complete
    // Clean pass.
    bcopy(&mut d, 40, 40, 600).expect("bcopy");
    bcopy(&mut d, 41, 41, 601).expect("bcopy");
    version[41] = 1;
    write(&mut d, 41, 1, 602);
    d.ioctl(Ioctl::Clean, t(603)).expect("clean");
    assert!(d.block_table().is_empty());
    let mut d = crash_boundary(d, &mut sums);

    for b in 1..48u64 {
        assert_eq!(
            read(&mut d, b, 700 + b),
            pattern(b, version[b as usize]),
            "block {b}"
        );
    }
    assert_eq!(
        sums,
        [
            0xf687_589e_9dd2_5908,
            0xbb17_3338_bafe_35a1,
            0xed8c_8300_0199_e7c0,
            0xa994_61f0_9bb2_ca84,
        ]
    );
}
