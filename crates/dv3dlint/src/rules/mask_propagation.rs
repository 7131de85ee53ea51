//! R2 `mask_propagation`: a CDAT kernel that reads the raw `.data()` /
//! `.data_mut()` buffers of a masked array must also consult the mask —
//! otherwise missing values silently flow into means, regressions and
//! regridded fields as real numbers. A function is compliant when it also
//! references the mask (any identifier containing `mask`), uses a
//! mask-aware helper (`iter_valid`, `get_valid`, `to_filled`, …), or is
//! itself a `masked_*` helper. Escape hatch:
//! `// dv3dlint: allow(mask_propagation) -- <why the mask is irrelevant>`.

use super::Rule;
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::model::{FileModel, Item, ItemKind};
use crate::workspace::{CrateModel, Workspace};

/// Method names that count as raw buffer access.
const RAW_MARKERS: &[&str] = &["data", "data_mut"];
/// Identifiers that show mask awareness (besides any containing `mask`).
const MASK_MARKERS: &[&str] = &[
    "iter_valid",
    "get_valid",
    "to_filled",
    "valid_count",
    "valid_fraction",
    "from_filled_data",
];

#[derive(Debug)]
pub struct MaskPropagation;

impl Rule for MaskPropagation {
    fn id(&self) -> &'static str {
        "mask_propagation"
    }

    fn describe(&self) -> &'static str {
        "kernels reading raw .data() of a masked array must also consult the mask"
    }

    fn check_crate(
        &self,
        krate: &CrateModel,
        _ws: &Workspace,
        cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        if !cfg.mask_enabled || !krate.in_scope(&cfg.mask_crates) {
            return;
        }
        for file in &krate.files {
            for item in &file.items {
                if item.kind != ItemKind::Fn || item.in_test {
                    continue;
                }
                check_fn(self.id(), file, item, out);
            }
        }
    }
}

fn check_fn(
    rule: &'static str,
    file: &FileModel,
    f: &Item,
    out: &mut Vec<Diagnostic>,
) {
    let Some((open, close)) = f.body else { return };
    if f.name.starts_with("masked_") {
        return;
    }
    let toks = &file.lexed.tokens;
    let mut first_raw: Option<u32> = None;
    let mut mask_aware = false;
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        if let Tok::Ident(name) = &toks[i].tok {
            if name.contains("mask") || MASK_MARKERS.contains(&name.as_str()) {
                mask_aware = true;
            }
            if RAW_MARKERS.contains(&name.as_str())
                && matches!(toks.get(i.wrapping_sub(1)).map(|t| &t.tok), Some(Tok::Punct('.')))
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
            {
                first_raw.get_or_insert(toks[i].line);
            }
        }
    }
    if let (Some(line), false) = (first_raw, mask_aware) {
        let suppressed = file.is_allowed(rule, line) || file.is_allowed(rule, f.line);
        out.push(Diagnostic {
            file: file.path.clone(),
            line,
            rule,
            message: format!(
                "`{}` reads raw masked-array data but never consults a mask: iterate \
                 `iter_valid()`, check `.mask()`, or use a `masked_*` helper",
                f.name
            ),
            hint: Some("iterate `iter_valid()` or branch on `.mask()` before reading".into()),
            suppressed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::{cfg, lines, run_on};

    const FIXTURE: &str = r#"
pub fn leaky_mean(a: &MaskedArray) -> f32 {
    let mut s = 0.0;
    for v in a.data() {
        s += v;
    }
    s / a.len() as f32
}

pub fn careful_mean(a: &MaskedArray) -> f32 {
    let mut s = 0.0;
    let mut n = 0;
    for (i, v) in a.data().iter().enumerate() {
        if !a.mask()[i] {
            s += v;
            n += 1;
        }
    }
    s / n as f32
}

pub fn via_helper(a: &MaskedArray) -> f32 {
    a.iter_valid().map(|(_, v)| v).sum::<f32>() / a.data().len() as f32
}

pub fn masked_fill(a: &MaskedArray) -> Vec<f32> {
    a.data().to_vec()
}

pub fn no_raw_access(a: &MaskedArray) -> usize {
    a.len()
}

// dv3dlint: allow(mask_propagation) -- operates on an unmasked weights buffer
pub fn weights_only(w: &MaskedArray) -> f32 {
    w.data().iter().sum()
}
"#;

    #[test]
    fn only_the_leaky_kernel_is_flagged() {
        let diags = run_on(&MaskPropagation, "cdat", "crates/cdat/src/k.rs", FIXTURE, &cfg());
        assert_eq!(lines(&diags), vec![4], "{diags:?}");
        assert_eq!(diags.iter().filter(|d| d.suppressed).count(), 1);
    }

    #[test]
    fn scoped_to_configured_crates() {
        let diags = run_on(&MaskPropagation, "rvtk", "x.rs", FIXTURE, &cfg());
        assert!(diags.is_empty());
    }
}
