"""A JSON Schema validator for the subset used by ``docs/*.schema.json``.

Supports ``type``, ``enum``, ``const``, ``required``, ``properties``,
``additionalProperties``, ``minProperties``, ``items``, ``minItems``,
``minimum``, ``oneOf`` and ``$ref`` (to ``#/$defs/...`` or to a sibling
schema file).  Any other keyword raises, so a schema that grows beyond
this subset is noticed rather than half-checked.
"""

from __future__ import annotations

import json
import os
from typing import Optional

_KNOWN = {"$schema", "$id", "title", "description", "$defs", "type", "enum",
          "const", "required", "properties", "additionalProperties",
          "minProperties", "items", "minItems", "minimum", "oneOf", "$ref"}

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


class Validator:
    def __init__(self, schema_dir: str, root_file: str) -> None:
        self.dir = schema_dir
        self.docs: dict[str, dict] = {}
        self.root_file = root_file

    def _doc(self, name: str) -> dict:
        if name not in self.docs:
            with open(os.path.join(self.dir, name), encoding="utf-8") as fh:
                self.docs[name] = json.load(fh)
        return self.docs[name]

    def __call__(self, value) -> Optional[str]:
        """None when value is valid, else the first violation found."""
        return self._check(value, self._doc(self.root_file), self.root_file,
                           "$")

    def _check(self, v, s: dict, doc: str, path: str) -> Optional[str]:
        unknown = set(s) - _KNOWN
        if unknown:
            raise ValueError("unsupported schema keywords %s"
                             % sorted(unknown))
        if "$ref" in s:
            ref = s["$ref"]
            if ref.startswith("#/$defs/"):
                target = self._doc(doc)["$defs"][ref[len("#/$defs/"):]]
                return self._check(v, target, doc, path)
            return self._check(v, self._doc(ref), ref, path)
        if "type" in s and not _TYPES[s["type"]](v):
            return "%s: not of type %s" % (path, s["type"])
        if "enum" in s and v not in s["enum"]:
            return "%s: %r not in enum" % (path, v)
        if "const" in s and v != s["const"]:
            return "%s: %r != %r" % (path, v, s["const"])
        if "minimum" in s and v < s["minimum"]:
            return "%s: %r below minimum" % (path, v)
        if "oneOf" in s:
            hits = sum(self._check(v, sub, doc, path) is None
                       for sub in s["oneOf"])
            if hits != 1:
                return "%s: matches %d of oneOf" % (path, hits)
        if isinstance(v, dict):
            for key in s.get("required", ()):
                if key not in v:
                    return "%s: missing %r" % (path, key)
            if len(v) < s.get("minProperties", 0):
                return "%s: too few properties" % path
            props = s.get("properties", {})
            extra = s.get("additionalProperties", True)
            for key, item in v.items():
                sub = props.get(key)
                if sub is None:
                    if extra is False:
                        return "%s: unexpected property %r" % (path, key)
                    if extra is True:
                        continue
                    sub = extra
                err = self._check(item, sub, doc, "%s.%s" % (path, key))
                if err:
                    return err
        if isinstance(v, list):
            if len(v) < s.get("minItems", 0):
                return "%s: too few items" % path
            if "items" in s:
                for n, item in enumerate(v):
                    err = self._check(item, s["items"], doc,
                                      "%s[%d]" % (path, n))
                    if err:
                        return err
        return None
