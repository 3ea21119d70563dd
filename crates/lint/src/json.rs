//! The lint report's pretty-printing JSON builder.
//!
//! Output is pretty-printed with two-space indentation and stable key
//! order (insertion order); strings go through the workspace's one
//! escaping table, [`xnf_obs::json::write_str`].

use xnf_obs::json::write_str;

/// An in-progress JSON object.
#[derive(Debug)]
pub struct Object {
    buf: String,
    indent: usize,
    empty: bool,
}

impl Object {
    /// Starts a fresh top-level object.
    pub fn new() -> Object {
        Object {
            buf: String::from("{"),
            indent: 1,
            empty: true,
        }
    }

    fn nested(indent: usize) -> Object {
        Object {
            buf: String::from("{"),
            indent,
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push('\n');
        self.buf.push_str(&"  ".repeat(self.indent));
        write_str(&mut self.buf, key);
        self.buf.push_str(": ");
    }

    /// Adds a string member.
    pub fn string(&mut self, key: &str, value: &str) {
        self.key(key);
        write_str(&mut self.buf, value);
    }

    /// Adds an unsigned-number member.
    pub fn number(&mut self, key: &str, value: u64) {
        self.key(key);
        self.buf.push_str(&value.to_string());
    }

    /// Adds a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Adds a `null` member.
    pub fn null(&mut self, key: &str) {
        self.key(key);
        self.buf.push_str("null");
    }

    /// Adds a nested object member, built by `f`.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Object)) {
        self.key(key);
        let mut inner = Object::nested(self.indent + 1);
        f(&mut inner);
        self.buf.push_str(&inner.close());
    }

    /// Adds an array member, built by `f`.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Array)) {
        self.key(key);
        let mut inner = Array::nested(self.indent + 1);
        f(&mut inner);
        self.buf.push_str(&inner.close());
    }

    /// Adds an array-of-strings member.
    pub fn string_array<'a>(&mut self, key: &str, values: impl Iterator<Item = &'a str>) {
        self.array(key, |a| {
            for v in values {
                a.string(v);
            }
        });
    }

    fn close(self) -> String {
        let mut buf = self.buf;
        if !self.empty {
            buf.push('\n');
            buf.push_str(&"  ".repeat(self.indent - 1));
        }
        buf.push('}');
        buf
    }

    /// Finishes the top-level object, returning the JSON text.
    pub fn finish(self) -> String {
        self.close()
    }
}

impl Default for Object {
    fn default() -> Self {
        Object::new()
    }
}

/// An in-progress JSON array.
#[derive(Debug)]
pub struct Array {
    buf: String,
    indent: usize,
    empty: bool,
}

impl Array {
    fn nested(indent: usize) -> Array {
        Array {
            buf: String::from("["),
            indent,
            empty: true,
        }
    }

    fn slot(&mut self) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        self.buf.push('\n');
        self.buf.push_str(&"  ".repeat(self.indent));
    }

    /// Appends a string element.
    pub fn string(&mut self, value: &str) {
        self.slot();
        write_str(&mut self.buf, value);
    }

    /// Appends an object element, built by `f`.
    pub fn object(&mut self, f: impl FnOnce(&mut Object)) {
        self.slot();
        let mut inner = Object::nested(self.indent + 1);
        f(&mut inner);
        self.buf.push_str(&inner.close());
    }

    fn close(self) -> String {
        let mut buf = self.buf;
        if !self.empty {
            buf.push('\n');
            buf.push_str(&"  ".repeat(self.indent - 1));
        }
        buf.push(']');
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure_renders() {
        let mut o = Object::new();
        o.number("version", 1);
        o.object("inner", |i| {
            i.bool("ok", true);
            i.null("missing");
        });
        o.array("items", |a| {
            a.string("x");
            a.object(|i| i.string("k", "v"));
        });
        let s = o.finish();
        assert!(s.contains("\"version\": 1"), "{s}");
        assert!(s.contains("\"ok\": true"), "{s}");
        assert!(s.contains("\"missing\": null"), "{s}");
        assert!(s.contains("\"k\": \"v\""), "{s}");
        assert!(s.starts_with('{') && s.ends_with('}'), "{s}");
    }

    #[test]
    fn empty_object_and_array() {
        let mut o = Object::new();
        o.array("empty", |_| {});
        let s = o.finish();
        assert!(s.contains("\"empty\": []"), "{s}");
    }
}
