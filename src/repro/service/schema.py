"""Versioned JSON envelopes and a dependency-free schema validator.

Every request and response body of the service API — and every CLI
``--json`` payload — travels inside the same envelope::

    {"schema_version": 1, "kind": "job", ...payload...}

``schema_version`` is bumped when a payload's shape changes
incompatibly; ``kind`` names the payload so one parser can dispatch
every verb the same way. The committed shape contracts live under
``tests/service/data/*.schema.json`` and are enforced by the
round-trip tests; :func:`validate` is the (deliberately small)
JSON-Schema-subset checker both the daemon and the tests run, so the
service never grows a dependency for its own wire format.

Supported schema keywords: ``type`` (including a list of types),
``properties``, ``required``, ``additionalProperties`` (boolean),
``items``, ``enum``, ``const``, ``anyOf``, ``minimum``, ``$defs`` and
local ``$ref`` (``#/$defs/<name>``). That subset covers every payload
the platform emits; an unknown keyword is ignored, matching
JSON-Schema's open-world default.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import PrEspError

#: Bump on any incompatible change to a service or CLI JSON payload.
SCHEMA_VERSION = 1

#: JSON-type name -> accepted Python types. ``bool`` is excluded from
#: the numeric types (JSON booleans are not numbers).
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "null": (type(None),),
}


class SchemaError(PrEspError):
    """A payload violated its committed schema (or the envelope)."""


def envelope(kind: str, payload: Optional[Dict] = None, **extra) -> Dict:
    """Wrap ``payload`` in the versioned envelope.

    The envelope keys lead the document; payload keys keep their names
    (a payload must not carry ``schema_version``/``kind`` of its own).
    """
    document: Dict = {"schema_version": SCHEMA_VERSION, "kind": str(kind)}
    for source in (payload or {}, extra):
        for key, value in source.items():
            if key in ("schema_version", "kind"):
                raise SchemaError(f"payload may not carry the envelope key {key!r}")
            document[key] = value
    return document


def check_envelope(document: object, kind: Optional[str] = None) -> Dict:
    """Validate the envelope of a parsed document; returns it.

    ``kind`` pins the expected payload kind when the caller knows it.
    A version mismatch is an error, not a warning — clients negotiate
    by version, never by guessing shapes.
    """
    if not isinstance(document, dict):
        raise SchemaError(f"expected a JSON object, got {type(document).__name__}")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r} (this build speaks "
            f"{SCHEMA_VERSION})"
        )
    actual = document.get("kind")
    if not isinstance(actual, str) or not actual:
        raise SchemaError("envelope is missing its 'kind'")
    if kind is not None and actual != kind:
        raise SchemaError(f"expected a {kind!r} payload, got {actual!r}")
    return document


# ----------------------------------------------------------------------
# the validator
# ----------------------------------------------------------------------
def _type_ok(instance: object, name: str) -> bool:
    accepted = _TYPES.get(name)
    if accepted is None:
        raise SchemaError(f"schema names unknown type {name!r}")
    if isinstance(instance, bool) and name in ("integer", "number"):
        return False
    return isinstance(instance, accepted)


def _resolve_ref(ref: str, root: Dict) -> Dict:
    if not ref.startswith("#/"):
        raise SchemaError(f"only local $ref is supported, got {ref!r}")
    node: object = root
    for part in ref[2:].split("/"):
        if not isinstance(node, dict) or part not in node:
            raise SchemaError(f"unresolvable $ref {ref!r}")
        node = node[part]
    if not isinstance(node, dict):
        raise SchemaError(f"$ref {ref!r} does not point at a schema object")
    return node


def validate(
    instance: object,
    schema: Dict,
    root: Optional[Dict] = None,
    path: str = "$",
) -> List[str]:
    """All violations of ``schema`` by ``instance`` (empty = valid)."""
    root = root if root is not None else schema
    if "$ref" in schema:
        return validate(instance, _resolve_ref(schema["$ref"], root), root, path)
    errors: List[str] = []

    if "const" in schema and instance != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}, got {instance!r}")
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']!r}")

    declared = schema.get("type")
    if declared is not None:
        names = declared if isinstance(declared, list) else [declared]
        if not any(_type_ok(instance, name) for name in names):
            errors.append(
                f"{path}: expected {'/'.join(names)}, got {type(instance).__name__}"
            )
            return errors  # shape checks below would only cascade

    if "anyOf" in schema:
        candidates = [
            validate(instance, option, root, path) for option in schema["anyOf"]
        ]
        if not any(not errs for errs in candidates):
            flat = "; ".join(errs[0] for errs in candidates if errs)
            errors.append(f"{path}: no anyOf branch matched ({flat})")

    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        for name, value in instance.items():
            if name in properties:
                errors.extend(
                    validate(value, properties[name], root, f"{path}.{name}")
                )
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected property {name!r}")
    elif isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], root, f"{path}[{index}]"))

    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            errors.append(
                f"{path}: {instance!r} below minimum {schema['minimum']!r}"
            )
    return errors


def ensure_valid(instance: object, schema: Dict, label: str = "payload") -> None:
    """Raise :class:`SchemaError` with every violation listed."""
    errors = validate(instance, schema)
    if errors:
        raise SchemaError(f"invalid {label}: " + "; ".join(errors))


# ----------------------------------------------------------------------
# the submit-request contract (the one body the daemon must police)
# ----------------------------------------------------------------------
#: What a ``POST /v1/jobs`` body must look like. Response shapes are
#: pinned by the committed test contracts; the request shape is also
#: enforced live, because garbage in a submit must 400, not crash a
#: worker thread later.
SUBMIT_REQUEST_SCHEMA: Dict = {
    "type": "object",
    "required": ["schema_version", "kind", "config"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "kind": {"const": "submit"},
        "config": {"type": "string"},
        "job_kind": {"enum": ["build", "deploy"]},
        "tenant": {"type": "string"},
        "priority": {"type": "integer"},
        "strategy": {"type": ["string", "null"]},
        "frames": {"type": "integer", "minimum": 1},
        "deadline_s": {"type": ["number", "null"], "minimum": 0},
        "max_attempts": {"type": ["integer", "null"], "minimum": 1},
    },
}
