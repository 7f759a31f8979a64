//! Sanitize-feature tests: prove the invariant checks actually trip on
//! corrupted state (a sanitizer that never fires is worse than none).
//!
//! Run with `cargo test -p abr-driver --features sanitize`; the whole
//! file compiles away otherwise.

#![cfg(feature = "sanitize")]

use abr_driver::blocktable::BlockTable;

fn table() -> BlockTable {
    let mut t = BlockTable::new();
    t.insert(100, 0);
    t.insert(200, 1);
    t.insert(300, 2);
    t
}

#[test]
fn intact_table_passes() {
    let t = table();
    assert!(t.check_bijection().is_ok());
    t.assert_bijection(); // must not panic
    assert!(
        BlockTable::new().check_bijection().is_ok(),
        "empty table is a (trivial) bijection"
    );
}

#[test]
fn dangling_reverse_entry_is_caught() {
    // Reverse map claims slot 3 holds sector 400, but the forward map
    // has no entry for sector 400.
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(3, 400);
    assert!(t.check_bijection().is_err());
}

#[test]
fn two_slots_claiming_one_sector_is_caught() {
    // Reverse map says slots 1 and 3 both hold sector 200.
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(3, 200);
    assert!(t.check_bijection().is_err());
}

#[test]
fn mismatched_forward_and_reverse_is_caught() {
    // Slot 1's occupant overwritten: forward says 200 -> slot 1, reverse
    // now says slot 1 -> 999.
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(1, 999);
    assert!(t.check_bijection().is_err());
}

#[test]
#[should_panic(expected = "block table bijection")]
fn assert_bijection_panics_on_corruption() {
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(3, 400);
    t.assert_bijection();
}

#[test]
fn normal_operations_preserve_the_invariant() {
    let mut t = table();
    t.mark_dirty(200);
    t.assert_bijection();
    t.remove(100);
    t.assert_bijection();
    t.insert(400, 0);
    t.assert_bijection();
}

fn layout() -> abr_driver::ReservedLayout {
    let g = abr_disk::models::toshiba_mk156f().geometry;
    let label = abr_disk::DiskLabel::rearranged(g, 48);
    abr_driver::ReservedLayout::for_label(&label, 8192, 1020).expect("rearranged")
}

#[test]
fn region_image_check_accepts_the_tables_own_image() {
    let mut t = table();
    t.mark_dirty(200);
    let image = t.encode_region(&layout()).expect("fits");
    assert!(t.check_region_image(&image).is_ok());
    t.assert_region_image(&image); // must not panic
}

#[test]
fn region_image_check_catches_a_different_table() {
    let t = table();
    let mut dirtier = table();
    dirtier.mark_dirty(300);
    let image = dirtier.encode_region(&layout()).expect("fits");
    assert!(t.check_region_image(&image).is_err(), "dirty bit ignored");
    let mut shorter = table();
    shorter.remove(100);
    let image = shorter.encode_region(&layout()).expect("fits");
    assert!(t.check_region_image(&image).is_err(), "entry ignored");
}

#[test]
#[should_panic(expected = "block table image mismatch")]
fn region_image_check_catches_a_desynchronized_reverse_map() {
    // The image is written from the reverse map: a dangling reverse
    // entry yields an image that cannot match the forward map.
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(3, 400);
    let image = t.encode_region(&layout()).expect("fits");
    t.assert_region_image(&image);
}

#[test]
fn driver_materializes_checked_images() {
    // Every path that writes the table region runs the image check:
    // moves, a dirtying write (submit materializes), a clean pass and a
    // crash.
    use abr_driver::request::IoRequest;
    use abr_driver::{AdaptiveDriver, DriverConfig, Ioctl};
    use abr_sim::SimTime;
    let config = DriverConfig {
        block_size: 4096,
        table_max_entries: 64,
        ..DriverConfig::default()
    };
    let model = abr_disk::models::tiny_test_disk();
    let label = abr_disk::DiskLabel::rearranged_aligned(model.geometry, 10, 8);
    let mut disk = abr_disk::Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config);
    let mut d = AdaptiveDriver::attach(disk, config).expect("attach");
    let at = |s: u64| SimTime::from_micros(s * 1_000_000);
    for (i, block) in [3u64, 5, 9].into_iter().enumerate() {
        d.ioctl(
            Ioctl::BCopy {
                block,
                slot: i as u32,
            },
            at(i as u64),
        )
        .expect("bcopy");
    }
    d.submit(IoRequest::write(0, 5 * 8, 8, vec![7u8; 4096]), at(10))
        .expect("submit");
    d.drain();
    d.ioctl(Ioctl::BCopy { block: 11, slot: 3 }, at(20))
        .expect("bcopy");
    let _ = d.disk_mut();
    d.ioctl(Ioctl::Clean, at(30)).expect("clean");
    let back = AdaptiveDriver::attach(d.crash(), config).expect("attach");
    assert!(back.block_table().is_empty());
}
