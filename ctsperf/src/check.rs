//! Output checks written from the paper's definitions, not from the code
//! under test: structural invariants of a synthesized tree and the
//! C1–C5 preset quality recorded in `expected_quality.json`.

use dscts_core::{DsCts, SynthesizedTree, TreeMetrics};
use dscts_netlist::BenchmarkSpec;
use dscts_telemetry::parse_json;

/// The C1–C5 default-pipeline quality, copied from `BENCH_baseline.json`.
const EXPECTED: &str = include_str!("../expected_quality.json");

/// Invariants every reported metric vector must satisfy on its own.
pub fn check_metrics(m: &TreeMetrics, sinks: usize) -> Result<(), String> {
    if m.arrivals.len() != sinks {
        return Err(format!("{} arrivals for {sinks} sinks", m.arrivals.len()));
    }
    let max = m.arrivals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = m.arrivals.iter().copied().fold(f64::INFINITY, f64::min);
    if m.latency_ps != max {
        return Err(format!(
            "latency {} is not the max arrival {max}",
            m.latency_ps
        ));
    }
    if m.skew_ps != max - min {
        return Err(format!(
            "skew {} is not max - min arrival {}",
            m.skew_ps,
            max - min
        ));
    }
    Ok(())
}

/// Invariants tying a synthesized tree to the metrics reported for it.
pub fn check_tree(tree: &SynthesizedTree, m: &TreeMetrics, sinks: usize) -> Result<(), String> {
    check_metrics(m, sinks)?;
    let topo = &tree.topo;
    if topo.sink_pos.len() != sinks {
        return Err(format!(
            "tree holds {} sinks, design {sinks}",
            topo.sink_pos.len()
        ));
    }
    let mut seen = vec![0u32; sinks];
    for star in &topo.stars {
        if star.sinks.len() != star.branch_len.len() {
            return Err(format!("star at node {} misaligns branches", star.node));
        }
        for &s in &star.sinks {
            match seen.get_mut(s as usize) {
                Some(c) => *c += 1,
                None => return Err(format!("star names sink {s} beyond the design")),
            }
        }
    }
    if let Some(s) = seen.iter().position(|&c| c != 1) {
        return Err(format!("sink {s} appears in {} leaf stars", seen[s]));
    }
    let roots: Vec<usize> = (0..topo.nodes.len())
        .filter(|&v| topo.nodes[v].parent.is_none())
        .collect();
    if roots != [0] {
        return Err(format!("trunk roots {roots:?}, want exactly node 0"));
    }
    if topo
        .nodes
        .iter()
        .any(|n| n.parent.is_some_and(|p| p as usize >= topo.nodes.len()))
    {
        return Err("trunk edge names a missing parent".into());
    }
    let edge_sum: i64 = topo.nodes.iter().map(|n| n.edge_len).sum();
    if m.trunk_wirelength_nm != edge_sum {
        return Err(format!(
            "trunk wirelength {} is not the edge-length sum {edge_sum}",
            m.trunk_wirelength_nm
        ));
    }
    let branch_sum: i64 = topo.stars.iter().flat_map(|s| s.branch_len.iter()).sum();
    if m.wirelength_nm != edge_sum + branch_sum {
        return Err(format!(
            "wirelength {} is not trunk + branches {}",
            m.wirelength_nm,
            edge_sum + branch_sum
        ));
    }
    if m.buffers != 1 + tree.inserted_buffers() {
        return Err(format!(
            "{} buffers, but 1 root buffer + {} inserted",
            m.buffers,
            tree.inserted_buffers()
        ));
    }
    if m.ntsvs != tree.inserted_ntsvs() {
        return Err(format!(
            "{} nTSVs, but {} inserted",
            m.ntsvs,
            tree.inserted_ntsvs()
        ));
    }
    Ok(())
}

/// One preset's default-pipeline quality as recorded in the expected file.
#[derive(Debug, Clone)]
pub struct Expected {
    pub design: String,
    pub latency_ps: f64,
    pub skew_ps: f64,
    pub buffers: u32,
    pub ntsvs: u32,
    pub wirelength_nm: i64,
}

/// Parses the expected file: a `designs` array of C1–C5 rows.
pub fn load_expected(text: &str) -> Result<Vec<Expected>, String> {
    let doc = parse_json(text).map_err(|e| format!("expected file: {e}"))?;
    let rows = doc
        .get("designs")
        .and_then(|d| d.as_array())
        .ok_or("expected file has no designs array")?;
    rows.iter()
        .map(|r| {
            let num = |k: &str| {
                r.get(k)
                    .and_then(|v| v.as_f64())
                    .ok_or(format!("row lacks {k}"))
            };
            let int = |k: &str| {
                r.get(k)
                    .and_then(|v| v.as_u64())
                    .ok_or(format!("row lacks {k}"))
            };
            Ok(Expected {
                design: r
                    .get("design")
                    .and_then(|v| v.as_str())
                    .ok_or("row lacks design")?
                    .to_owned(),
                latency_ps: num("latency_ps")?,
                skew_ps: num("skew_ps")?,
                buffers: u32::try_from(int("buffers")?).map_err(|e| e.to_string())?,
                ntsvs: u32::try_from(int("ntsvs")?).map_err(|e| e.to_string())?,
                wirelength_nm: i64::try_from(int("wirelength_nm")?).map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// Compares metrics against the expected row. The file keeps six
/// decimals, so latency and skew compare after rounding to six decimals;
/// counts and wirelength compare exactly.
pub fn check_expected(m: &TreeMetrics, want: &Expected) -> Result<(), String> {
    let six = |x: f64| format!("{x:.6}");
    let ok = six(m.latency_ps) == six(want.latency_ps)
        && six(m.skew_ps) == six(want.skew_ps)
        && m.buffers == want.buffers
        && m.ntsvs == want.ntsvs
        && m.wirelength_nm == want.wirelength_nm;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: got {:.6} ps / {:.6} ps / {} buffers / {} nTSVs / {} nm, expected {:.6} / {:.6} / {} / {} / {}",
            want.design,
            m.latency_ps,
            m.skew_ps,
            m.buffers,
            m.ntsvs,
            m.wirelength_nm,
            want.latency_ps,
            want.skew_ps,
            want.buffers,
            want.ntsvs,
            want.wirelength_nm
        ))
    }
}

/// Runs the default pipeline on the C1–C5 presets and checks each result
/// against the expected file and the tree invariants. Returns the
/// failures found.
pub fn check_presets(pipe: &DsCts) -> Vec<String> {
    let expected = match expected_presets() {
        Ok(rows) => rows,
        Err(e) => return vec![e],
    };
    let specs = BenchmarkSpec::all();
    if specs.len() != expected.len() {
        return vec![format!(
            "expected file holds {} presets, not {}",
            expected.len(),
            specs.len()
        )];
    }
    let mut errors = Vec::new();
    for (spec, want) in specs.iter().zip(&expected) {
        let design = spec.generate();
        match pipe.try_run(&design) {
            Ok(out) => {
                let tree_ok = check_tree(&out.tree, &out.metrics, design.sinks.len());
                if let Err(e) = tree_ok.and_then(|()| check_expected(&out.metrics, want)) {
                    errors.push(format!("preset {}: {e}", want.design));
                }
            }
            Err(e) => errors.push(format!("preset {}: {e}", want.design)),
        }
    }
    errors
}

/// The expected row of every preset, in C1–C5 order.
pub fn expected_presets() -> Result<Vec<Expected>, String> {
    load_expected(EXPECTED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscts_tech::Technology;

    fn c4() -> (SynthesizedTree, TreeMetrics, usize) {
        let design = BenchmarkSpec::c4_riscv32i().generate();
        let out = DsCts::new(Technology::asap7())
            .try_run(&design)
            .expect("C4 synthesizes");
        (out.tree, out.metrics, design.sinks.len())
    }

    #[test]
    fn accepts_a_real_tree() {
        let (tree, m, n) = c4();
        check_tree(&tree, &m, n).unwrap();
    }

    #[test]
    fn rejects_a_dropped_sink() {
        let (mut tree, m, n) = c4();
        let star = tree
            .topo
            .stars
            .iter_mut()
            .find(|s| s.sinks.len() > 1)
            .unwrap();
        star.sinks.pop();
        star.branch_len.pop();
        let err = check_tree(&tree, &m, n).unwrap_err();
        assert!(err.contains("appears in 0 leaf stars"), "{err}");
    }

    #[test]
    fn rejects_a_doubled_star() {
        let (mut tree, m, n) = c4();
        let dup = tree.topo.stars[0].clone();
        tree.topo.stars.push(dup);
        let err = check_tree(&tree, &m, n).unwrap_err();
        assert!(err.contains("appears in 2 leaf stars"), "{err}");
    }

    #[test]
    fn rejects_metrics_that_disagree_with_arrivals() {
        let (tree, mut m, n) = c4();
        m.skew_ps += 1e-9;
        assert!(check_tree(&tree, &m, n).is_err());
        let (_, mut m, _) = c4();
        m.arrivals.pop();
        assert!(check_metrics(&m, n).is_err());
    }

    #[test]
    fn expected_file_matches_the_presets() {
        let rows = expected_presets().unwrap();
        assert_eq!(rows.len(), 5);
        let c4 = rows.iter().find(|r| r.design == "C4").unwrap();
        assert_eq!((c4.buffers, c4.ntsvs), (54, 43));
        let (_, m, _) = super::tests::c4();
        check_expected(&m, c4).unwrap();
        let mut off = m.clone();
        off.ntsvs += 1;
        assert!(check_expected(&off, c4).is_err());
    }
}
