//! Plain-text serialization of network traces.
//!
//! Traces captured from a training run can be saved and re-simulated later
//! (or shared) without re-running training. The format is a line-oriented
//! text format — human-inspectable, dependency-free, and stable:
//!
//! ```text
//! sparsetrain-trace v1
//! model <name>
//! dataset <name>
//! conv <name> <k> <stride> <pad> <filters> <C> <H> <W> <needs_input_grad>
//! row <nnz> <off:val> <off:val> ...     # C*H input rows
//! dout <F> <Ho> <Wo>
//! row <nnz> ...                          # F*Ho gradient rows
//! fc <name> <in> <out> <in_nnz> <dout_nnz> <mask_nnz> <needs_input_grad>
//! end
//! ```
//!
//! Masks are not stored separately: they are reconstructed from the input
//! rows' offsets (which is exactly how the hardware treats them).

use super::trace::{ConvLayerTrace, FcLayerTrace, LayerTrace, NetworkTrace};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::SparseRow;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor3;
use std::fmt::Write as _;

/// Serializes a trace to the text format.
pub fn to_text(trace: &NetworkTrace) -> String {
    let mut out = String::new();
    out.push_str("sparsetrain-trace v1\n");
    let _ = writeln!(out, "model {}", trace.model);
    let _ = writeln!(out, "dataset {}", trace.dataset);
    for layer in &trace.layers {
        match layer {
            LayerTrace::Conv(c) => {
                let _ = writeln!(
                    out,
                    "conv {} {} {} {} {} {} {} {} {}",
                    c.name,
                    c.geom.kernel,
                    c.geom.stride,
                    c.geom.pad,
                    c.filters,
                    c.input.channels(),
                    c.input.height(),
                    c.input.width(),
                    c.needs_input_grad as u8
                );
                for ci in 0..c.input.channels() {
                    for y in 0..c.input.height() {
                        write_row(&mut out, c.input.row(ci, y));
                    }
                }
                let _ = writeln!(
                    out,
                    "dout {} {} {}",
                    c.dout.channels(),
                    c.dout.height(),
                    c.dout.width()
                );
                for fi in 0..c.dout.channels() {
                    for y in 0..c.dout.height() {
                        write_row(&mut out, c.dout.row(fi, y));
                    }
                }
            }
            LayerTrace::Fc(f) => {
                let _ = writeln!(
                    out,
                    "fc {} {} {} {} {} {} {}",
                    f.name,
                    f.in_features,
                    f.out_features,
                    f.input_nnz,
                    f.dout_nnz,
                    f.mask_nnz,
                    f.needs_input_grad as u8
                );
            }
        }
    }
    out.push_str("end\n");
    out
}

fn write_row(out: &mut String, row: SparseRow<'_>) {
    let _ = write!(out, "row {}", row.nnz());
    for (o, v) in row.iter() {
        let _ = write!(out, " {o}:{v}");
    }
    out.push('\n');
}

/// Parses a trace from the text format.
///
/// # Errors
///
/// Returns a message describing the first malformed line.
pub fn from_text(text: &str) -> Result<NetworkTrace, String> {
    let mut lines = text.lines().peekable();
    let header = lines.next().ok_or("empty input")?;
    if header != "sparsetrain-trace v1" {
        return Err(format!("unrecognized header: {header}"));
    }
    let model = parse_kv(lines.next(), "model")?;
    let dataset = parse_kv(lines.next(), "dataset")?;
    let mut trace = NetworkTrace::new(model, dataset);

    while let Some(line) = lines.next() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("end") => return Ok(trace),
            Some("conv") => {
                let name = parts.next().ok_or("conv: missing name")?.to_string();
                let nums: Vec<usize> = parts
                    .map(|p| p.parse().map_err(|_| format!("conv: bad number {p}")))
                    .collect::<Result<_, _>>()?;
                if nums.len() != 8 {
                    return Err(format!("conv {name}: expected 8 numbers, got {}", nums.len()));
                }
                let [k, stride, pad, filters, c, h, w, nig] = [
                    nums[0], nums[1], nums[2], nums[3], nums[4], nums[5], nums[6], nums[7],
                ];
                let input = read_map(&mut lines, c, h, w)?;
                let dout_header = lines.next().ok_or("missing dout header")?;
                let mut dp = dout_header.split_whitespace();
                if dp.next() != Some("dout") {
                    return Err(format!("expected dout header, got {dout_header}"));
                }
                let dnums: Vec<usize> = dp
                    .map(|p| p.parse().map_err(|_| format!("dout: bad number {p}")))
                    .collect::<Result<_, _>>()?;
                if dnums.len() != 3 {
                    return Err("dout: expected 3 numbers".to_string());
                }
                let dout = read_map(&mut lines, dnums[0], dnums[1], dnums[2])?;
                let needs_input_grad = nig != 0;
                let input_masks = if needs_input_grad {
                    input.masks()
                } else {
                    Vec::new()
                };
                trace.layers.push(LayerTrace::Conv(ConvLayerTrace {
                    name,
                    geom: ConvGeometry::new(k, stride, pad),
                    filters,
                    input,
                    input_masks,
                    dout,
                    needs_input_grad,
                }));
            }
            Some("fc") => {
                let name = parts.next().ok_or("fc: missing name")?.to_string();
                let nums: Vec<usize> = parts
                    .map(|p| p.parse().map_err(|_| format!("fc: bad number {p}")))
                    .collect::<Result<_, _>>()?;
                if nums.len() != 6 {
                    return Err(format!("fc {name}: expected 6 numbers"));
                }
                trace.layers.push(LayerTrace::Fc(FcLayerTrace {
                    name,
                    in_features: nums[0],
                    out_features: nums[1],
                    input_nnz: nums[2],
                    dout_nnz: nums[3],
                    mask_nnz: nums[4],
                    needs_input_grad: nums[5] != 0,
                }));
            }
            Some(other) => return Err(format!("unexpected directive: {other}")),
            None => continue,
        }
    }
    Err("missing end directive".to_string())
}

fn parse_kv(line: Option<&str>, key: &str) -> Result<String, String> {
    let line = line.ok_or_else(|| format!("missing {key} line"))?;
    line.strip_prefix(key)
        .map(|rest| rest.trim().to_string())
        .ok_or_else(|| format!("expected {key} line, got: {line}"))
}

fn read_map<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
    c: usize,
    h: usize,
    w: usize,
) -> Result<SparseFeatureMap, String> {
    let mut dense = Tensor3::zeros(c, h, w);
    for ci in 0..c {
        for y in 0..h {
            let line = lines.next().ok_or("unexpected end of rows")?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some("row") {
                return Err(format!("expected row line, got: {line}"));
            }
            let nnz: usize = parts
                .next()
                .ok_or("row: missing nnz")?
                .parse()
                .map_err(|_| "row: bad nnz".to_string())?;
            let mut seen = 0usize;
            for pair in parts {
                let (o, v) = pair.split_once(':').ok_or_else(|| format!("bad pair {pair}"))?;
                let o: usize = o.parse().map_err(|_| format!("bad offset {o}"))?;
                let v: f32 = v.parse().map_err(|_| format!("bad value {v}"))?;
                if o >= w {
                    return Err(format!("offset {o} out of range {w}"));
                }
                dense.set(ci, y, o, v);
                seen += 1;
            }
            if seen != nnz {
                return Err(format!("row declared {nnz} non-zeros but listed {seen}"));
            }
        }
    }
    Ok(SparseFeatureMap::from_tensor(&dense))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> NetworkTrace {
        let input = Tensor3::from_fn(2, 3, 4, |c, y, x| {
            if (c + y + x) % 2 == 0 {
                (c + y) as f32 + 0.5
            } else {
                0.0
            }
        });
        let dout = Tensor3::from_fn(2, 3, 4, |c, y, x| if (c * y + x) % 3 == 0 { -1.25 } else { 0.0 });
        let fm = SparseFeatureMap::from_tensor(&input);
        let masks = fm.masks();
        let mut t = NetworkTrace::new("testnet", "testdata");
        t.layers.push(LayerTrace::Conv(ConvLayerTrace {
            name: "c1".into(),
            geom: ConvGeometry::new(3, 1, 1),
            filters: 2,
            input: fm,
            input_masks: masks,
            dout: SparseFeatureMap::from_tensor(&dout),
            needs_input_grad: true,
        }));
        t.layers.push(LayerTrace::Fc(FcLayerTrace {
            name: "fc".into(),
            in_features: 24,
            out_features: 10,
            input_nnz: 12,
            dout_nnz: 10,
            mask_nnz: 12,
            needs_input_grad: true,
        }));
        t
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let orig = sample_trace();
        let text = to_text(&orig);
        let parsed = from_text(&text).expect("parse");
        assert_eq!(parsed.model, orig.model);
        assert_eq!(parsed.dataset, orig.dataset);
        assert_eq!(parsed.layers.len(), orig.layers.len());
        assert_eq!(parsed.dense_macs(), orig.dense_macs());
        assert!(parsed.validate().is_ok());
        // Round-trip again: text form must be stable.
        assert_eq!(to_text(&parsed), text);
    }

    #[test]
    fn roundtrip_preserves_sparsity_exactly() {
        let orig = sample_trace();
        let parsed = from_text(&to_text(&orig)).unwrap();
        let (LayerTrace::Conv(a), LayerTrace::Conv(b)) = (&orig.layers[0], &parsed.layers[0]) else {
            panic!("expected conv layers");
        };
        assert_eq!(a.input.nnz(), b.input.nnz());
        assert_eq!(a.dout.nnz(), b.dout.nnz());
        assert_eq!(a.input.to_tensor(), b.input.to_tensor());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(from_text("not-a-trace\n").is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let text = to_text(&sample_trace());
        let truncated = &text[..text.len() / 2];
        assert!(from_text(truncated).is_err());
    }

    #[test]
    fn rejects_nnz_mismatch() {
        let text = "sparsetrain-trace v1\nmodel m\ndataset d\nconv c 1 1 0 1 1 1 2 1\nrow 2 0:1.0\ndout 1 1 2\nrow 0\nrow 0\nend\n";
        let err = from_text(text).unwrap_err();
        assert!(err.contains("declared"), "unexpected error: {err}");
    }

    #[test]
    fn empty_network_roundtrips() {
        let t = NetworkTrace::new("empty", "none");
        let parsed = from_text(&to_text(&t)).unwrap();
        assert!(parsed.layers.is_empty());
    }
}
