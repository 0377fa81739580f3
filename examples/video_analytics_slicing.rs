//! The prototype data path, end to end, without DRL: two video-analytics
//! slices (paper Sec. VII-A) served through the radio / transport /
//! computing managers (Sec. V), exercising the mechanisms the paper built —
//! IMSI extraction from S1AP, make-before-break meter reconfiguration, and
//! the kernel-split GPU occupancy bound.
//!
//! Run with: `cargo run --release --example video_analytics_slicing`

use edgeslice::{RaId, ResourceKind, ResourceManagers, SliceAllocation, SliceId};
use edgeslice_netsim::compute::{split_kernel, Kernel};
use edgeslice_netsim::radio::{extract_imsi, EnodeB, Imsi, LteBand, S1apMessage, UserEquipment};
use edgeslice_netsim::transport::IpAddr;
use edgeslice_netsim::{service_time_seconds, AppProfile, DomainShares};

fn main() {
    // --- Radio attach: the manager learns user↔slice associations from
    // S1AP without touching the UE side.
    let mut enb = EnodeB::prototype(LteBand::Band7);
    let users = [
        (Imsi(310170000000001), SliceId(0), IpAddr([10, 0, 0, 1])),
        (Imsi(310170000000002), SliceId(1), IpAddr([10, 0, 0, 2])),
    ];
    for (imsi, slice, ip) in users {
        let msg: S1apMessage = enb
            .attach(UserEquipment {
                imsi,
                band: LteBand::Band7,
            })
            .expect("UE searches band 7");
        let learned = extract_imsi(&msg).expect("attach carries the IMSI");
        enb.associate(learned, slice.0);
        println!("attached {learned} -> {slice} (ip {ip})");
    }

    // --- The two applications: traffic-heavy vs compute-heavy.
    let apps = [AppProfile::traffic_heavy(), AppProfile::compute_heavy()];
    for (i, app) in apps.iter().enumerate() {
        println!(
            "slice {}: {:.2} Mb/frame upload, {:.1} GFLOP/frame inference",
            i + 1,
            app.radio_bits() / 1e6,
            app.compute_gflops()
        );
    }

    // --- Apply an end-to-end allocation through the manager stack.
    let mut managers = ResourceManagers::prototype(RaId(0), 2);
    let allocation = [
        SliceAllocation {
            slice: SliceId(0),
            shares: DomainShares::new(0.72, 0.6, 0.25),
        },
        SliceAllocation {
            slice: SliceId(1),
            shares: DomainShares::new(0.2, 0.3, 0.7),
        },
    ];
    let rates = managers.apply(&allocation).expect("both slices are served");
    println!("\nachieved rates:");
    for (i, r) in rates.iter().enumerate() {
        let service =
            service_time_seconds(&apps[i], r.radio_mbps, r.transport_mbps, r.compute_gflops_s);
        println!(
            "  slice {}: radio {:.1} Mb/s | transport {:.1} Mb/s | GPU {:.0} GFLOPs/s -> {:.1} ms/frame ({:.1} fps)",
            i + 1,
            r.radio_mbps,
            r.transport_mbps,
            r.compute_gflops_s,
            service * 1e3,
            1.0 / service
        );
    }
    assert_eq!(
        managers.rate_of(SliceId(0), ResourceKind::Transport),
        Some(rates[0].transport_mbps)
    );

    // --- Kernel split: a YOLO-608 inference kernel under slice 2's budget.
    let budget = (0.7 * 51_200.0) as u32;
    let parts = split_kernel(Kernel::new(51_200, apps[1].compute_gflops()), budget);
    println!(
        "\nkernel-split: 51200-thread YOLO-608 kernel under a {budget}-thread budget -> {} consecutive kernels (max {} threads)",
        parts.len(),
        parts.iter().map(|k| k.threads).max().unwrap_or(0)
    );

    // --- Reconfigure bandwidth at runtime; make-before-break keeps the
    // path alive (the manager's headline mechanism).
    println!(
        "\ntransport outage after reallocation: {:.2} s (make-before-break)",
        managers.substrates().transport().outage_seconds()
    );
    println!("done: the full Sec. V data path is exercised without any learning in the loop");
}
