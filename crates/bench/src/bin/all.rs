//! Runs every table and figure harness in sequence (the full
//! evaluation), echoing to stdout and archiving each report under
//! `results/`.

use std::process::Command;

fn main() {
    let bins = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "ext_fusion",
        "ext_scaling",
        "ext_legacy",
        "ext_selection",
    ];
    let results_dir = std::path::Path::new("results");
    std::fs::create_dir_all(results_dir).expect("create results/");
    for bin in bins {
        println!("\n==================== {bin} ====================\n");
        let output = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin))
            .output()
            .expect("run sibling harness binary");
        assert!(output.status.success(), "{bin} failed");
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        std::fs::write(results_dir.join(format!("{bin}.md")), text.as_bytes())
            .expect("write report");
    }
    println!("\nreports archived under results/");
}
