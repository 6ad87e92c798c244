//! Table 4 — Size and power of top-5 trackers (Space-Saving CAM vs
//! CM-Sketch SRAM) at 7 nm under the 400 MHz timing constraint.
//!
//! Prints the paper's published synthesis numbers next to this repo's
//! calibrated analytic model, plus the FPGA/ASIC maximum-N timing limits.

use m5_bench::banner;
use m5_trackers::cost::{
    area_um2, max_entries_at_400mhz, power_mw, Technology, TrackerKind, TABLE4_PUBLISHED,
};

fn main() {
    banner(
        "Table 4",
        "size and power of top-5 trackers (published vs model)",
    );
    println!(
        "{:>8} | {:>12} {:>12} | {:>12} {:>12} | {:>10} {:>10} | {:>10} {:>10}",
        "N",
        "SS um2(pub)",
        "SS um2(mod)",
        "CM um2(pub)",
        "CM um2(mod)",
        "SS mW(pub)",
        "SS mW(mod)",
        "CM mW(pub)",
        "CM mW(mod)"
    );
    println!("{:-<112}", "");
    for row in TABLE4_PUBLISHED {
        let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.0}"));
        let fmt_opt1 = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        let ss_model = row
            .ss_area_um2
            .map(|_| area_um2(TrackerKind::SpaceSaving, row.n));
        let ss_pow_model = row
            .ss_power_mw
            .map(|_| power_mw(TrackerKind::SpaceSaving, row.n));
        println!(
            "{:>8} | {:>12} {:>12} | {:>12.0} {:>12.0} | {:>10} {:>10} | {:>10.1} {:>10.1}",
            row.n,
            fmt_opt(row.ss_area_um2),
            fmt_opt(ss_model),
            row.cm_area_um2,
            area_um2(TrackerKind::CmSketch, row.n),
            fmt_opt1(row.ss_power_mw),
            fmt_opt1(ss_pow_model),
            row.cm_power_mw,
            power_mw(TrackerKind::CmSketch, row.n),
        );
    }
    println!("{:-<112}", "");
    let ratio_row = TABLE4_PUBLISHED.iter().find(|r| r.n == 2048).unwrap();
    println!(
        "at N = 2K: Space-Saving costs {:.1}x the area and {:.1}x the power of CM-Sketch",
        ratio_row.ss_area_um2.unwrap() / ratio_row.cm_area_um2,
        ratio_row.ss_power_mw.unwrap() / ratio_row.cm_power_mw
    );
    println!("400 MHz timing limits on N:");
    for (kind, name) in [
        (TrackerKind::SpaceSaving, "Space-Saving"),
        (TrackerKind::CmSketch, "CM-Sketch"),
    ] {
        println!(
            "  {:>12}: FPGA {:>7}, 7nm ASIC {:>7}",
            name,
            max_entries_at_400mhz(kind, Technology::Fpga),
            max_entries_at_400mhz(kind, Technology::Asic7nm)
        );
    }
    println!(
        "paper anchors: SS synthesizable to 50 (FPGA) / 2K (ASIC); CM to 128K; at N=2K\n\
         SS costs 33.6x area and 7.6x power of CM."
    );
}
