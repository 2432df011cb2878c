//! # ntc-json-derive
//!
//! `#[derive(ToJson)]` for `ntc-json`, written against bare
//! `proc_macro`. It accepts only the three shapes the reports use:
//!
//! * a struct with named fields, written as an object with the fields in
//!   declaration order;
//! * a tuple struct with one field, written as that field's value;
//! * an enum whose variants are all units, written as the variant name.
//!
//! Two field attributes exist: `#[json(skip)]` leaves a field out of the
//! object, `#[json(skip_if_none)]` an `Option` field while it is `None`.
//! Generics, a `where` clause, unit or multi-field tuple structs, unions,
//! variants with data or discriminants, and any other `#[json(..)]` are
//! compile errors. The `ntc-json` crate docs show each case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `ntc_json::ToJson`; see the crate docs for the accepted
/// shapes.
#[proc_macro_derive(ToJson, attributes(json))]
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    let code = match expand(input) {
        Ok(code) => code,
        Err(msg) => format!("::core::compile_error!({msg:?});"),
    };
    code.parse().expect("generated code is valid Rust")
}

const FIELDS_ONLY: &str = "ToJson: `#[json(..)]` applies to named fields only";
const KNOWN: &str = "only `#[json(skip)]` and `#[json(skip_if_none)]` exist";

/// A named field's `#[json(..)]` attribute.
enum Attr {
    Skip,
    SkipIfNone,
}

fn expand(input: TokenStream) -> Result<String, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    if skip_attributes(&tokens, &mut i)?.is_some() {
        return Err(FIELDS_ONLY.to_string());
    }
    skip_visibility(&tokens, &mut i);
    let kind = ident_at(&tokens, i).unwrap_or_default();
    let name = ident_at(&tokens, i + 1).unwrap_or_default();
    let shape = || {
        format!(
            "ToJson: `{name}` must be a struct with named fields, a one-field tuple struct \
             or a unit-only enum, without generics or a `where` clause"
        )
    };
    let body = match (tokens.get(i + 2), tokens.get(i + 3)) {
        (Some(TokenTree::Group(g)), None) => g,
        (Some(TokenTree::Group(g)), Some(TokenTree::Punct(p))) if p.as_char() == ';' => g,
        _ => return Err(shape()),
    };
    let write = match (kind.as_str(), body.delimiter()) {
        ("struct", Delimiter::Brace) => {
            let mut code = String::from("let mut o = ::ntc_json::Object::begin(out, depth);");
            for (field, attr) in named_fields(body.stream())? {
                let write = format!("o.field({field:?}, &self.{field});");
                code += &match attr {
                    None => write,
                    Some(Attr::Skip) => continue,
                    Some(Attr::SkipIfNone) => format!("if self.{field}.is_some() {{ {write} }}"),
                };
            }
            code + "o.end();"
        }
        ("struct", Delimiter::Parenthesis) => {
            let fields = split_top_level(body.stream());
            if fields.len() != 1 {
                return Err(shape());
            }
            if skip_attributes(&fields[0], &mut 0)?.is_some() {
                return Err(FIELDS_ONLY.to_string());
            }
            "::ntc_json::ToJson::write_json(&self.0, out, depth);".to_string()
        }
        ("enum", Delimiter::Brace) => {
            let mut arms = String::new();
            for v in unit_variants(body.stream(), &name)? {
                arms += &format!("{name}::{v} => {:?},", format!("\"{v}\""));
            }
            format!("let _ = depth; out.push_str(match self {{ {arms} }});")
        }
        _ => return Err(shape()),
    };
    Ok(format!(
        "impl ::ntc_json::ToJson for {name} {{ \
             fn write_json(&self, out: &mut ::std::string::String, depth: usize) {{ {write} }} \
         }}"
    ))
}

fn ident_at(tokens: &[TokenTree], i: usize) -> Option<String> {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

/// Steps over `#[...]` attributes; returns the `#[json(..)]` one among
/// them. One other than `skip` and `skip_if_none` is an error.
fn skip_attributes(tokens: &[TokenTree], i: &mut usize) -> Result<Option<Attr>, String> {
    let mut found = None;
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        let Some(TokenTree::Group(attr)) = tokens.get(*i + 1) else { break };
        let inner: Vec<TokenTree> = attr.stream().into_iter().collect();
        if matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "json") {
            let args = match inner.get(1) {
                Some(TokenTree::Group(g)) if inner.len() == 2 => g.stream().to_string(),
                _ => String::new(),
            };
            found = Some(match args.trim() {
                "skip" => Attr::Skip,
                "skip_if_none" => Attr::SkipIfNone,
                _ => {
                    return Err(format!(
                        "ToJson: unknown attribute `#[{}]`; {KNOWN}",
                        attr.stream()
                    ))
                }
            });
        }
        *i += 2;
    }
    Ok(found)
}

/// Steps over `pub`, `pub(crate)` and the like.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if ident_at(tokens, *i).as_deref() == Some("pub") {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Parenthesis {
                *i += 1;
            }
        }
    }
}

/// Splits a field or variant list at its top-level commas. Commas inside
/// a group are never top level; commas between `<` and `>` of a generic
/// type are not either.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut items = vec![Vec::new()];
    let mut angle = 0usize;
    for t in stream {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle = angle.saturating_sub(1),
                ',' if angle == 0 => {
                    items.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        items.last_mut().expect("never empty").push(t);
    }
    items.retain(|item| !item.is_empty());
    items
}

/// Each named field with its `#[json(..)]` attribute.
fn named_fields(stream: TokenStream) -> Result<Vec<(String, Option<Attr>)>, String> {
    split_top_level(stream)
        .iter()
        .map(|tokens| {
            let mut i = 0;
            let attr = skip_attributes(tokens, &mut i)?;
            skip_visibility(tokens, &mut i);
            let name = ident_at(tokens, i).ok_or("ToJson: expected a field name")?;
            Ok((name, attr))
        })
        .collect()
}

fn unit_variants(stream: TokenStream, name: &str) -> Result<Vec<String>, String> {
    split_top_level(stream)
        .iter()
        .map(|tokens| {
            let mut i = 0;
            if skip_attributes(tokens, &mut i)?.is_some() {
                return Err(FIELDS_ONLY.to_string());
            }
            match (ident_at(tokens, i), tokens.len() == i + 1) {
                (Some(v), true) => Ok(v),
                (Some(v), false) => Err(format!(
                    "ToJson: variant `{name}::{v}` carries data or a discriminant; \
                     only unit variants are written"
                )),
                (None, _) => Err(format!("ToJson: expected a variant of `{name}`")),
            }
        })
        .collect()
}
