//! Offline shim for `serde_derive`.
//!
//! Generates `serde::Serialize` / `serde::Deserialize` impls against the
//! shim's owned [`Value`] tree. The input item is parsed with a hand-rolled
//! walk over `proc_macro::TokenTree` (no `syn`/`quote` available offline),
//! which supports exactly the shapes this workspace uses:
//!
//! * structs with named fields (`#[serde(skip)]` honoured: skipped on
//!   serialize, `Default::default()` on deserialize),
//! * tuple structs (newtypes serialize transparently, wider ones as arrays),
//! * enums with unit, tuple and struct variants (externally tagged, like
//!   real serde's default representation).
//!
//! Generic types are intentionally rejected with a clear error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

struct Field {
    name: String,
    skip: bool,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    kind: Kind,
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes (doc comments, #[serde(...)] on the item, ...)
    // and the visibility qualifier.
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 2; // '#' + bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }

    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic type `{name}` is not supported");
        }
    }

    let kind = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::TupleStruct(0),
            other => panic!("serde shim derive: unsupported struct body {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: unsupported enum body {other:?}"),
        },
        kw => panic!("serde shim derive: cannot derive for `{kw}` items"),
    };

    Item { name, kind }
}

/// Does an attribute group's stream spell `serde(skip)`?
fn is_skip_attr(stream: TokenStream) -> bool {
    let mut iter = stream.into_iter();
    match (iter.next(), iter.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(a) if a.to_string() == "skip"))
        }
        _ => false,
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut skip = false;
        // Field attributes.
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                skip |= is_skip_attr(g.stream());
            }
            i += 2;
        }
        // Visibility.
        if let Some(TokenTree::Ident(id)) = tokens.get(i) {
            if id.to_string() == "pub" {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field `{name}`, got {other:?}"),
        }
        // Consume the type: everything up to the next comma at angle-depth 0.
        let mut angle_depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        i += 1; // past the comma (or the end)
        fields.push(Field { name, skip });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    let mut trailing_comma = false;
    for (idx, tok) in tokens.iter().enumerate() {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    if idx == tokens.len() - 1 {
                        trailing_comma = true;
                    } else {
                        count += 1;
                    }
                }
                _ => {}
            }
        }
    }
    let _ = trailing_comma;
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Variant attributes (doc comments).
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            i += 2;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        // Past the comma separating variants.
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// --------------------------------------------------------------- codegen

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let mut pushes = String::new();
            for f in fields.iter().filter(|f| !f.skip) {
                pushes.push_str(&format!(
                    "__fields.push((\"{n}\".to_string(), ::serde::Serialize::serialize(&self.{n})));\n",
                    n = f.name
                ));
            }
            format!(
                "let mut __fields: Vec<(String, ::serde::Value)> = Vec::new();\n\
                 {pushes}\
                 ::serde::Value::Object(__fields)"
            )
        }
        Kind::TupleStruct(0) => "::serde::Value::Null".to_string(),
        Kind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),\n"
                    )),
                    Shape::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__f0) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Serialize::serialize(__f0))]),\n"
                    )),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::serialize({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Array(vec![{items}]))]),\n",
                            binds = binds.join(", "),
                            items = items.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<&str> =
                            fields.iter().map(|f| f.name.as_str()).collect();
                        let items: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{n}\".to_string(), ::serde::Serialize::serialize({n}))",
                                    n = f.name
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(vec![(\"{vn}\".to_string(), ::serde::Value::Object(vec![{items}]))]),\n",
                            binds = binds.join(", "),
                            items = items.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
           fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::NamedStruct(fields) => {
            let mut inits = String::new();
            for f in fields {
                if f.skip {
                    inits.push_str(&format!(
                        "{n}: ::std::default::Default::default(),\n",
                        n = f.name
                    ));
                } else {
                    inits.push_str(&format!(
                        "{n}: ::serde::de_field(__obj, \"{n}\")?,\n",
                        n = f.name
                    ));
                }
            }
            format!(
                "let __obj = __v.as_object().ok_or_else(|| \
                     ::serde::Error::new(\"expected object for {name}\"))?;\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Kind::TupleStruct(0) => format!("let _ = __v; Ok({name})"),
        Kind::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::deserialize(__v)?))")
        }
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::deserialize(&__items[{i}])?"))
                .collect();
            format!(
                "let __items = __v.as_array().ok_or_else(|| \
                     ::serde::Error::new(\"expected array for {name}\"))?;\n\
                 if __items.len() != {n} {{\n\
                     return Err(::serde::Error::new(format!(\
                         \"expected {n} elements for {name}, found {{}}\", __items.len())));\n\
                 }}\n\
                 Ok({name}({items}))",
                items = items.join(", ")
            )
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => unit_arms.push_str(&format!(
                        "\"{vn}\" => Ok({name}::{vn}),\n"
                    )),
                    Shape::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::deserialize(__payload)?)),\n"
                    )),
                    Shape::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| {
                                format!("::serde::Deserialize::deserialize(&__items[{i}])?")
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                                 let __items = __payload.as_array().ok_or_else(|| \
                                     ::serde::Error::new(\"expected array payload for {name}::{vn}\"))?;\n\
                                 if __items.len() != {n} {{\n\
                                     return Err(::serde::Error::new(\"wrong payload arity for {name}::{vn}\"));\n\
                                 }}\n\
                                 Ok({name}::{vn}({items}))\n\
                             }}\n",
                            items = items.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{n}: ::serde::de_field(__inner, \"{n}\")?",
                                    n = f.name
                                )
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                                 let __inner = __payload.as_object().ok_or_else(|| \
                                     ::serde::Error::new(\"expected object payload for {name}::{vn}\"))?;\n\
                                 Ok({name}::{vn} {{ {inits} }})\n\
                             }}\n",
                            inits = inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "match __v {{\n\
                     ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                         {unit_arms}\
                         __other => Err(::serde::Error::new(format!(\
                             \"unknown {name} variant `{{__other}}`\"))),\n\
                     }},\n\
                     ::serde::Value::Object(__fields) if __fields.len() == 1 => {{\n\
                         let (__tag, __payload) = &__fields[0];\n\
                         match __tag.as_str() {{\n\
                             {tagged_arms}\
                             __other => Err(::serde::Error::new(format!(\
                                 \"unknown {name} variant `{{__other}}`\"))),\n\
                         }}\n\
                     }}\n\
                     _ => Err(::serde::Error::new(\
                         \"expected string or single-key object for {name}\")),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
           fn deserialize(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}\n"
    )
}
