//! Correctness oracle: every run's output is checked before it counts.
//!
//! Engine results arrive as `(vertex id, value)` pairs sorted by id; the
//! reference is a dense vector indexed by vertex id from
//! `vertexica_algorithms::reference`.

use vertexica_common::VertexId;

/// Largest absolute per-vertex difference accepted against the reference.
pub const TOLERANCE: f64 = 1e-9;

/// Checks `got` against `want` within `tol` per vertex. Every vertex must be
/// present exactly once, in id order; an infinite reference value (an
/// unreachable SSSP vertex) must be matched by an infinite result of the
/// same sign, and NaN never matches.
pub fn check_close(got: &[(VertexId, f64)], want: &[f64], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} vertex values, expected {}", got.len(), want.len()));
    }
    for (i, (&(id, g), &w)) in got.iter().zip(want).enumerate() {
        if id != i as VertexId {
            return Err(format!("position {i} holds vertex {id}"));
        }
        let ok = if w.is_infinite() { g == w } else { (g - w).abs() <= tol };
        if !ok {
            return Err(format!("vertex {id}: got {g}, reference {w}"));
        }
    }
    Ok(())
}

/// Checks that two readbacks of the same state are bit-for-bit equal.
pub fn check_bitwise(got: &[(VertexId, f64)], want: &[(VertexId, f64)]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} vertex values after reopen, {} before", got.len(), want.len()));
    }
    for (&(gid, g), &(wid, w)) in got.iter().zip(want) {
        if gid != wid || g.to_bits() != w.to_bits() {
            return Err(format!("after reopen vertex {gid} = {g}, before vertex {wid} = {w}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(values: &[f64]) -> Vec<(VertexId, f64)> {
        values.iter().enumerate().map(|(i, v)| (i as VertexId, *v)).collect()
    }

    #[test]
    fn exact_and_near_results_pass() {
        let want = [0.25, 0.5, f64::INFINITY];
        assert!(check_close(&pairs(&want), &want, TOLERANCE).is_ok());
        assert!(check_close(&pairs(&[0.25 + 1e-12, 0.5, f64::INFINITY]), &want, TOLERANCE).is_ok());
    }

    #[test]
    fn perturbed_result_fails() {
        let want = [0.25, 0.5, 0.25];
        let mut got = pairs(&want);
        got[1].1 += 1e-6;
        let err = check_close(&got, &want, TOLERANCE).unwrap_err();
        assert!(err.contains("vertex 1"), "{err}");
    }

    #[test]
    fn infinity_must_match_infinity() {
        let want = [0.0, f64::INFINITY];
        assert!(check_close(&pairs(&[0.0, 1e300]), &want, TOLERANCE).is_err());
        assert!(check_close(&pairs(&[0.0, f64::NEG_INFINITY]), &want, TOLERANCE).is_err());
        assert!(check_close(&pairs(&[f64::INFINITY, f64::INFINITY]), &want, TOLERANCE).is_err());
        assert!(check_close(&pairs(&[f64::NAN, f64::INFINITY]), &want, TOLERANCE).is_err());
    }

    #[test]
    fn missing_or_misplaced_vertices_fail() {
        let want = [0.1, 0.2, 0.3];
        assert!(check_close(&pairs(&want[..2]), &want, TOLERANCE).is_err());
        let swapped = vec![(1, 0.1), (0, 0.2), (2, 0.3)];
        assert!(check_close(&swapped, &want, 1.0).is_err());
    }

    #[test]
    fn bitwise_check_catches_one_ulp() {
        let before = pairs(&[0.1, 0.2]);
        assert!(check_bitwise(&before, &before.clone()).is_ok());
        let mut after = before.clone();
        after[0].1 = f64::from_bits(after[0].1.to_bits() + 1);
        assert!(check_bitwise(&after, &before).is_err());
        assert!(check_bitwise(&after[..1], &before).is_err());
    }
}
