//! The benchmark's own verdict oracle and decision digest.
//!
//! Every instance is checked twice: the program's verdict must hold, and an
//! independent check written here must agree — termination (every honest
//! process decided), agreement (decisions within the workload's tolerance
//! in L∞) and validity (each decision inside the convex hull of the honest
//! inputs, by a planar hull computed here, not by the program's LP).

use bvc_core::RunReport;
use bvc_geometry::Point;

/// Slack for the planar hull test: the program's decisions come out of an
/// LP and may sit on a hull edge up to round-off.
const HULL_SLACK: f64 = 1e-7;

/// FNV-1a over every coordinate of an instance's decisions, in order.
pub fn decision_digest(decisions: &[Point]) -> u64 {
    let words = std::iter::once(decisions.len() as u64).chain(
        decisions
            .iter()
            .flat_map(|p| p.coords().iter().map(|c| c.to_bits())),
    );
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in words.flat_map(u64::to_le_bytes) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

/// Both the program's own verdict and the independent check hold.
pub fn instance_ok(report: &RunReport, tolerance: f64) -> bool {
    report.verdict().all_hold()
        && independent_check(report.decisions(), report.honest_inputs(), tolerance)
}

/// Termination, agreement within `tolerance` and planar hull validity.
pub fn independent_check(decisions: &[Point], inputs: &[Point], tolerance: f64) -> bool {
    if decisions.len() != inputs.len() {
        return false;
    }
    let agreement = decisions.iter().enumerate().all(|(i, a)| {
        decisions[i + 1..]
            .iter()
            .all(|b| a.linf_distance(b) <= tolerance)
    });
    let hull = planar_hull(inputs);
    agreement && decisions.iter().all(|p| in_hull(&hull, p))
}

/// Counter-clockwise convex hull of planar points (Andrew's monotone chain).
fn planar_hull(points: &[Point]) -> Vec<(f64, f64)> {
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| {
            assert_eq!(p.dim(), 2, "the benchmark's workloads are planar");
            (p.coord(0), p.coord(1))
        })
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    pts.dedup();
    if pts.len() < 3 {
        return pts;
    }
    let cross = |o: (f64, f64), a: (f64, f64), b: (f64, f64)| {
        (a.0 - o.0) * (b.1 - o.1) - (a.1 - o.1) * (b.0 - o.0)
    };
    let mut hull: Vec<(f64, f64)> = Vec::with_capacity(2 * pts.len());
    for pass in [pts.clone(), pts.iter().rev().copied().collect()] {
        let start = hull.len();
        for p in pass {
            while hull.len() >= start + 2
                && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0
            {
                hull.pop();
            }
            hull.push(p);
        }
        hull.pop();
    }
    hull
}

/// Whether `p` lies in the hull (within `HULL_SLACK` of every edge), or
/// within `HULL_SLACK` of a degenerate hull's points or segment.
fn in_hull(hull: &[(f64, f64)], p: &Point) -> bool {
    let (x, y) = (p.coord(0), p.coord(1));
    match hull.len() {
        0 => false,
        1 => (hull[0].0 - x).abs().max((hull[0].1 - y).abs()) <= HULL_SLACK,
        2 => segment_distance(hull[0], hull[1], (x, y)) <= HULL_SLACK,
        len => (0..len).all(|i| {
            let (a, b) = (hull[i], hull[(i + 1) % len]);
            let (ex, ey) = (b.0 - a.0, b.1 - a.1);
            let cross = ex * (y - a.1) - ey * (x - a.0);
            cross >= -HULL_SLACK * ex.hypot(ey)
        }),
    }
}

fn segment_distance(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> f64 {
    let (ex, ey) = (b.0 - a.0, b.1 - a.1);
    let t = (((p.0 - a.0) * ex + (p.1 - a.1) * ey) / (ex * ex + ey * ey)).clamp(0.0, 1.0);
    (a.0 + t * ex - p.0).hypot(a.1 + t * ey - p.1)
}

/// Checks one service verdict line: the expected instance number, all three
/// conditions true, and a pairwise distance within `tolerance`.
pub fn service_line_ok(line: &str, instance: usize, tolerance: f64) -> bool {
    fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
        let start = text.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &text[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
    // The line names the validity *mode* before the verdict object; the
    // verdict's own fields are looked up inside that object.
    let Some(verdict) = line.find("\"verdict\": {").map(|at| &line[at..]) else {
        return false;
    };
    let distance_ok = field(verdict, "max_pairwise_distance")
        .and_then(|v| v.parse::<f64>().ok())
        .is_some_and(|v| v <= tolerance);
    field(line, "instance") == Some(instance.to_string().as_str())
        && field(verdict, "agreement") == Some("true")
        && field(verdict, "validity") == Some("true")
        && field(verdict, "termination") == Some("true")
        && distance_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    #[test]
    fn hull_check_accepts_inside_and_rejects_outside() {
        let inputs = [p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0), p(0.2, 0.2)];
        assert!(independent_check(&vec![p(0.25, 0.25); 4], &inputs, 0.0));
        assert!(independent_check(&vec![p(0.5, 0.5); 4], &inputs, 0.0));
        assert!(!independent_check(&vec![p(0.6, 0.6); 4], &inputs, 0.0));
        // Agreement and termination.
        assert!(!independent_check(
            &[p(0.1, 0.1), p(0.3, 0.1), p(0.1, 0.1), p(0.1, 0.1)],
            &inputs,
            0.1
        ));
        assert!(!independent_check(&vec![p(0.1, 0.1); 3], &inputs, 0.1));
    }

    #[test]
    fn service_line_fields_are_checked() {
        let good = "{\"service\": \"s\", \"instance\": 3, \"validity\": \"strict\", \
                    \"verdict\": {\"agreement\": true, \"validity\": true, \"termination\": true, \
                    \"max_pairwise_distance\": 0.05}, \"rounds\": 4}";
        assert!(service_line_ok(good, 3, 0.1));
        assert!(!service_line_ok(good, 4, 0.1));
        assert!(!service_line_ok(good, 3, 0.01));
        assert!(!service_line_ok(
            &good.replace("validity\": true", "validity\": false"),
            3,
            0.1
        ));
    }
}
