//! Derive macros for the offline `serde` shim.
//!
//! Implemented directly on `proc_macro` token streams (the environment has
//! no `syn`/`quote`). Supports the shapes this workspace uses: non-generic
//! structs (named, tuple, unit) and enums (unit, tuple and struct variants),
//! plus the field attributes `#[serde(default)]` and
//! `#[serde(with = "path")]`.
//!
//! The generated code streams: `Serialize` makes one typed call per value
//! (a struct is a record of its fields by name, a tuple struct a sequence,
//! an enum variant its name followed by its payload), and `Deserialize`
//! hands the deserializer a visitor that matches each incoming field name
//! against the type's `&'static str` field names, skips unknown and
//! repeated fields (the first occurrence wins), and fills in
//! `#[serde(default)]` fields that are absent.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

#[derive(Debug, Default, Clone)]
struct FieldAttrs {
    default: bool,
    with: Option<String>,
}

#[derive(Debug)]
struct Field {
    /// The field's name (named fields) or position (tuple fields).
    name: String,
    /// The field's type, as source text.
    ty: String,
    attrs: FieldAttrs,
}

#[derive(Debug)]
enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Input {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

type Iter = Peekable<proc_macro::token_stream::IntoIter>;

fn skip_attrs_collect(iter: &mut Iter) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.next() {
                    parse_attr_group(g.stream(), &mut attrs);
                }
            }
            _ => return attrs,
        }
    }
}

fn parse_attr_group(stream: TokenStream, attrs: &mut FieldAttrs) {
    let mut it = stream.into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return,
    }
    let Some(TokenTree::Group(inner)) = it.next() else {
        return;
    };
    let mut it = inner.stream().into_iter().peekable();
    while let Some(tt) = it.next() {
        if let TokenTree::Ident(id) = tt {
            match id.to_string().as_str() {
                // `default = "path"` is read as plain `default`: an absent
                // field takes its type's `Default::default()`.
                "default" => attrs.default = true,
                "with" => {
                    // with = "path"
                    if let Some(TokenTree::Punct(p)) = it.next() {
                        if p.as_char() == '=' {
                            if let Some(TokenTree::Literal(lit)) = it.next() {
                                let s = lit.to_string();
                                attrs.with = Some(s.trim_matches('"').to_string());
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn skip_visibility(iter: &mut Iter) {
    if let Some(TokenTree::Ident(id)) = iter.peek() {
        if id.to_string() == "pub" {
            iter.next();
            if let Some(TokenTree::Group(g)) = iter.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    iter.next();
                }
            }
        }
    }
}

/// Consume the tokens of one type, stopping at a top-level comma (angle-
/// bracket depth aware; parens/brackets/braces arrive as opaque groups), and
/// return them as source text.
fn take_type(iter: &mut Iter) -> String {
    let mut depth = 0i32;
    let mut tokens = Vec::new();
    while let Some(tt) = iter.peek() {
        if let TokenTree::Punct(p) = tt {
            let c = p.as_char();
            if c == ',' && depth == 0 {
                break;
            }
            if c == '<' {
                depth += 1;
            }
            if c == '>' {
                depth -= 1;
            }
        }
        tokens.extend(iter.next());
    }
    tokens.into_iter().collect::<TokenStream>().to_string()
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut iter = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = skip_attrs_collect(&mut iter);
        skip_visibility(&mut iter);
        let Some(TokenTree::Ident(name)) = iter.next() else {
            break;
        };
        // expect ':'
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => break,
        }
        let ty = take_type(&mut iter);
        // consume the comma, if any
        if let Some(TokenTree::Punct(p)) = iter.peek() {
            if p.as_char() == ',' {
                iter.next();
            }
        }
        fields.push(Field {
            name: name.to_string(),
            ty,
            attrs,
        });
    }
    fields
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    let mut iter = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = skip_attrs_collect(&mut iter);
        skip_visibility(&mut iter);
        if iter.peek().is_none() {
            break;
        }
        let ty = take_type(&mut iter);
        fields.push(Field {
            name: fields.len().to_string(),
            ty,
            attrs,
        });
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => continue,
            _ => break,
        }
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut iter = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let _ = skip_attrs_collect(&mut iter);
        let Some(TokenTree::Ident(name)) = iter.next() else {
            break;
        };
        let shape = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.stream();
                iter.next();
                Shape::Tuple(parse_tuple_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.stream();
                iter.next();
                Shape::Named(parse_named_fields(g))
            }
            _ => Shape::Unit,
        };
        // skip an optional discriminant `= expr` up to the comma
        while let Some(tt) = iter.peek() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    iter.next();
                    break;
                }
                _ => {
                    iter.next();
                }
            }
        }
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let mut iter = input.into_iter().peekable();
    let _ = skip_attrs_collect(&mut iter);
    skip_visibility(&mut iter);
    let kw = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported (type `{name}`)");
        }
    }
    match kw.as_str() {
        "struct" => {
            let shape = match iter.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(parse_tuple_fields(g.stream()))
                }
                _ => Shape::Unit,
            };
            Input::Struct { name, shape }
        }
        "enum" => {
            let variants = match iter.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    parse_variants(g.stream())
                }
                other => panic!("serde shim derive: expected enum body, got {other:?}"),
            };
            Input::Enum { name, variants }
        }
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

// ---------------------------------------------------------------------------
// Code generation. Generated code names everything by absolute path and
// prefixes its own identifiers with `__`.
// ---------------------------------------------------------------------------

const RESULT: &str = "::core::result::Result";

/// `"a", "b"` — a field or variant name list for a `&'static [&'static str]`.
fn name_list<'a>(names: impl Iterator<Item = &'a str>) -> String {
    names
        .map(|n| format!("\"{n}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Declarations of `Serialize` wrappers for `with` fields, and the
/// expression serialising each field (given the expression of a reference
/// to it).
fn ser_field_exprs(fields: &[Field], refs: &[String], decls: &mut Vec<String>) -> Vec<String> {
    fields
        .iter()
        .zip(refs)
        .map(|(f, r)| match &f.attrs.with {
            None => r.clone(),
            Some(path) => {
                let wrapper = format!("__SerializeWith{}", decls.len());
                decls.push(format!(
                    "struct {wrapper}<'__a>(&'__a {ty});\n\
                     impl ::serde::Serialize for {wrapper}<'_> {{\n\
                     fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
                     -> {RESULT}<__S::Ok, __S::Error> {{ {path}::serialize(self.0, __s) }}\n}}\n",
                    ty = f.ty
                ));
                format!("&{wrapper}({r})")
            }
        })
        .collect()
}

/// Statements writing a shape through the serializer `__s`, given the
/// expression of a reference to each field.
fn ser_shape(shape: &Shape, refs: &[String], decls: &mut Vec<String>) -> String {
    match shape {
        Shape::Unit => "::serde::Serializer::serialize_unit(__s)".to_string(),
        Shape::Tuple(fields) => {
            let exprs = ser_field_exprs(fields, refs, decls);
            let mut out = format!(
                "let mut __seq = ::serde::Serializer::serialize_seq(__s, {})?;\n",
                fields.len()
            );
            for e in exprs {
                out.push_str(&format!(
                    "::serde::ser::SerializeSeq::serialize_element(&mut __seq, {e})?;\n"
                ));
            }
            out.push_str("::serde::ser::SerializeSeq::end(__seq)");
            out
        }
        Shape::Named(fields) => {
            let exprs = ser_field_exprs(fields, refs, decls);
            let mut out = format!(
                "let mut __record = ::serde::Serializer::serialize_record(__s, {})?;\n",
                fields.len()
            );
            for (f, e) in fields.iter().zip(exprs) {
                out.push_str(&format!(
                    "::serde::ser::SerializeRecord::serialize_field(&mut __record, \"{}\", {e})?;\n",
                    f.name
                ));
            }
            out.push_str("::serde::ser::SerializeRecord::end(__record)");
            out
        }
    }
}

fn gen_serialize(input: &Input) -> String {
    let mut decls = Vec::new();
    let (name, body) = match input {
        Input::Struct { name, shape } => {
            let refs: Vec<String> = match shape {
                Shape::Unit => Vec::new(),
                Shape::Tuple(fields) | Shape::Named(fields) => {
                    fields.iter().map(|f| format!("&self.{}", f.name)).collect()
                }
            };
            (name, ser_shape(shape, &refs, &mut decls))
        }
        Input::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, refs) = match &v.shape {
                    Shape::Unit => (String::new(), Vec::new()),
                    Shape::Tuple(fields) => {
                        let binders: Vec<String> =
                            (0..fields.len()).map(|i| format!("__f{i}")).collect();
                        (format!("({})", binders.join(", ")), binders)
                    }
                    Shape::Named(fields) => {
                        let binders: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        (format!(" {{ {} }}", binders.join(", ")), binders)
                    }
                };
                arms.push_str(&format!(
                    "{name}::{vn}{pattern} => {{\n\
                     let __s = ::serde::Serializer::serialize_variant(__s, \"{vn}\")?;\n\
                     {}\n}}\n",
                    ser_shape(&v.shape, &refs, &mut decls)
                ));
            }
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
         -> {RESULT}<__S::Ok, __S::Error> {{\n\
         {}{body}\n}}\n}}\n",
        decls.concat()
    )
}

/// The error `__A::Error` (or another error type) built from a serde error.
fn de_error(error_ty: &str, error: &str) -> String {
    format!("<{error_ty} as ::core::convert::From<::serde::Error>>::from(::serde::Error::{error})")
}

/// Declarations of a visitor `vis` building `ctor` (a struct or a variant
/// path) of type `ty` from a tuple of `fields.len()` elements.
fn de_tuple_visitor(vis: &str, ty: &str, ctor: &str, fields: &[Field]) -> String {
    let elements: Vec<&str> = fields
        .iter()
        .map(|_| "::serde::de::SeqAccess::element(__seq)?")
        .collect();
    format!(
        "struct {vis};\n\
         impl<'de> ::serde::de::SeqVisitor<'de> for {vis} {{\n\
         type Value = {ty};\n\
         #[allow(unused_variables)]\n\
         fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, __seq: &mut __A) \
         -> {RESULT}<{ty}, __A::Error> {{\n\
         {RESULT}::Ok({ctor}({}))\n}}\n}}\n",
        elements.join(", ")
    )
}

/// Declarations of a visitor `vis` building `ctor` (a struct or a variant
/// path) of type `ty` from a record with the given named fields.
fn de_record_visitor(vis: &str, ty: &str, ctor: &str, fields: &[Field]) -> String {
    let mut decls = String::new();
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        let (fname, fty) = (&f.name, &f.ty);
        slots.push_str(&format!(
            "let mut __v{i}: ::core::option::Option<{fty}> = ::core::option::Option::None;\n"
        ));
        let read = match &f.attrs.with {
            None => "::serde::de::RecordAccess::field_value(__record)?".to_string(),
            Some(path) => {
                let wrapper = format!("{vis}With{i}");
                decls.push_str(&format!(
                    "struct {wrapper}({fty});\n\
                     impl<'de> ::serde::Deserialize<'de> for {wrapper} {{\n\
                     fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
                     -> {RESULT}<Self, __D::Error> {{ {path}::deserialize(__d).map({wrapper}) }}\n}}\n"
                ));
                format!("::serde::de::RecordAccess::field_value::<{wrapper}>(__record)?.0")
            }
        };
        arms.push_str(&format!(
            "{i} if __v{i}.is_none() => __v{i} = ::core::option::Option::Some({read}),\n"
        ));
        let value = if f.attrs.default && f.attrs.with.is_none() {
            format!("__v{i}.unwrap_or_default()")
        } else {
            format!(
                "match __v{i} {{\n\
                 ::core::option::Option::Some(__v) => __v,\n\
                 ::core::option::Option::None => return {RESULT}::Err({}),\n}}",
                de_error("__A::Error", &format!("missing_field(\"{fname}\")"))
            )
        };
        inits.push_str(&format!("{fname}: {value},\n"));
    }
    format!(
        "{decls}struct {vis};\n\
         impl<'de> ::serde::de::RecordVisitor<'de> for {vis} {{\n\
         type Value = {ty};\n\
         fn visit_record<__A: ::serde::de::RecordAccess<'de>>(self, __record: &mut __A) \
         -> {RESULT}<{ty}, __A::Error> {{\n\
         {slots}\
         while let ::core::option::Option::Some(__i) = \
         ::serde::de::RecordAccess::next_field(__record)? {{\n\
         match __i {{\n\
         {arms}\
         _ => ::serde::de::RecordAccess::skip_value(__record)?,\n\
         }}\n}}\n\
         {RESULT}::Ok({ctor} {{\n{inits}}})\n}}\n}}\n"
    )
}

/// Declarations for, and the expression of, pulling a shape from the
/// deserializer expression `de` into `ctor`.
fn de_shape(shape: &Shape, de: &str, ty: &str, ctor: &str, vis: &str) -> (String, String) {
    match shape {
        Shape::Unit => (
            String::new(),
            format!(
                "::serde::Deserializer::deserialize_ignored({de})\
                 .map(|()| {ctor})"
            ),
        ),
        Shape::Tuple(fields) => (
            de_tuple_visitor(vis, ty, ctor, fields),
            format!("::serde::Deserializer::deserialize_tuple({de}, {vis})"),
        ),
        Shape::Named(fields) => (
            de_record_visitor(vis, ty, ctor, fields),
            format!(
                "::serde::Deserializer::deserialize_record({de}, &[{}], {vis})",
                name_list(fields.iter().map(|f| f.name.as_str()))
            ),
        ),
    }
}

fn gen_deserialize(input: &Input) -> String {
    let (name, decls, body) = match input {
        Input::Struct { name, shape } => {
            let (decls, body) = de_shape(shape, "__d", name, name, "__Visitor");
            (name, decls, body)
        }
        Input::Enum { name, variants } => {
            let mut decls = String::new();
            let mut arms = String::new();
            for (i, v) in variants.iter().enumerate() {
                let ctor = format!("{name}::{}", v.name);
                let (d, pull) =
                    de_shape(&v.shape, "__payload", name, &ctor, &format!("__Variant{i}"));
                decls.push_str(&d);
                arms.push_str(&format!("{i} => {pull},\n"));
            }
            let visitor = format!(
                "struct __Visitor;\n\
                 impl<'de> ::serde::de::EnumVisitor<'de> for __Visitor {{\n\
                 type Value = {name};\n\
                 fn visit_variant<__P: ::serde::Deserializer<'de>>(self, __index: usize, \
                 __payload: __P) -> {RESULT}<{name}, __P::Error> {{\n\
                 match __index {{\n\
                 {arms}\
                 _ => {RESULT}::Err({}),\n\
                 }}\n}}\n}}\n",
                de_error("__P::Error", "custom(\"variant index out of range\")")
            );
            decls.push_str(&visitor);
            let body = format!(
                "::serde::Deserializer::deserialize_enum(__d, \"{name}\", &[{}], __Visitor)",
                name_list(variants.iter().map(|v| v.name.as_str()))
            );
            (name, decls, body)
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
         -> {RESULT}<Self, __D::Error> {{\n\
         {decls}{body}\n}}\n}}\n"
    )
}

/// Derive `serde::Serialize` (shim).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derive `serde::Deserialize` (shim).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("generated Deserialize impl parses")
}
